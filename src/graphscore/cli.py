"""Command-line pipeline driver and the dataset manifest schema.

:func:`load_dataset` parses a manifest and loads every file it names in one
pass. Subcommands: ``score`` (run a scoring method over a dataset manifest),
``eval`` (AUROC/FPR95 reports from score files), ``synth`` (write a
synthetic dataset), and ``cluster-prompts`` (reduce prompt pools to
prototype files). Every subcommand accepts ``--config <json>`` plus
long-form flag overrides; flags win.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import metrics, store, synth
from .baselines import cosine_scores, manifold_score
from .graph import build_adjacency
from .prompts import load_prototypes, pool_prototypes, save_prototypes
from .propagation import PropagationConfig, run_gsp, timed
from .store import load_unit_matrix

METHODS = ("gsp", "cosine", "manifold", "score_prop_only", "gsp_no_cluster", "gsp_no_neg")
_CLUSTERED = frozenset({"gsp", "gsp_no_neg"})
_SELF_TRAIN = frozenset({"gsp", "gsp_no_cluster"})


@dataclass(frozen=True)
class RunConfig:
    method: str = "gsp"
    k: int = 10
    clusters: int = 3
    alpha: float = 0.5
    iterations: int = 5
    m_percent: float = 5.0
    tau: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS + ("all",):
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS + ('all',)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        # alpha, iterations and m_percent are checked by the config they feed
        self.propagation()

    def propagation(self) -> PropagationConfig:
        return PropagationConfig(alpha=self.alpha, iterations=self.iterations,
                                 m_percent=self.m_percent)


@dataclass
class DatasetBundle:
    unlabeled: object
    labeled: object
    pool: object  # (pool files, one per class; the first file's dimension check), read when scored
    prototypes: object
    flags: object


# each file of the pair is only valid beside the other; unlabeled, labeled
# and flags stand alone
_PARTNER = {"prototypes": "prototype_classes", "prototype_classes": "prototypes"}
# manifest keys naming one file each, resolved against the manifest's directory
_MANIFEST_FILES = ("unlabeled", "labeled", "flags", *_PARTNER)


def load_dataset(manifest_path) -> DatasetBundle:
    """Parse the JSON manifest in ``manifest_path``, then load, normalize and
    cross-check every file it references.

    Exactly one prototype source is required: ``prompt_pools`` (one NPY per
    class) or ``prototypes`` + ``prototype_classes`` (a pre-built prototype
    matrix plus its class map). Every referenced file is checked to
    exist before any is read, and every embedding file must have the
    dimension of ``unlabeled``. Unknown keys and null values are errors.
    Pool files are not read here: each is read and checked once, by the
    pass of :func:`compute_scores` that reduces them to prototypes.
    """
    path = Path(manifest_path)
    doc = store.load_json(path, "manifest", ("C_in", "class_names", "prompt_pools",
                                             *_MANIFEST_FILES),
                          required=("unlabeled", "C_in", "class_names"))
    c_in = store.typed(doc["C_in"], int, "C_in", path)
    if c_in < 1:
        raise ValueError(f"{path}: key 'C_in' must be >= 1, got {c_in}")
    n_names = len(store.typed_list(doc["class_names"], str, "class_names", path))
    if n_names != c_in:
        raise ValueError(f"{path}: class_names has {n_names} entries, C_in is {c_in}")
    files = {key: path.parent / store.typed(doc[key], str, key, path)
             for key in _MANIFEST_FILES if key in doc}
    if ("prompt_pools" in doc) == ("prototypes" in doc):
        raise ValueError(f"{path}: exactly one of prompt_pools or prototypes required")
    pools = []
    if "prompt_pools" in doc:
        # str paths: Python 3.11's pathlib interns every part of a Path, so
        # each call would leave one dead interned name per pool file, and
        # rebuilding the full table adds megabytes to the process
        root = os.path.dirname(manifest_path)
        pools = [os.path.join(root, p)
                 for p in store.typed_list(doc["prompt_pools"], str, "prompt_pools", path)]
        if len(pools) != c_in:
            raise ValueError(f"{path}: key 'prompt_pools' lists {len(pools)} files, "
                             f"but C_in is {c_in}")
    for key in files:
        if _PARTNER.get(key, key) not in files:
            raise ValueError(f"{path}: {key} requires {_PARTNER[key]}")
    for p in (*files.values(), *pools):
        if not os.path.exists(p):
            raise FileNotFoundError(f"{path}: referenced file does not exist: {p}")

    unlabeled = load_unit_matrix(files["unlabeled"])

    def check_dim(source, dim):
        if dim != unlabeled.dim:
            raise ValueError(f"{source}: dimension {dim}, but {files['unlabeled']} "
                             f"has dimension {unlabeled.dim}")

    labeled = None
    if "labeled" in files:
        labeled = load_unit_matrix(files["labeled"])
        check_dim(files["labeled"], labeled.dim)
    pool = prototypes = None
    if pools:  # one file per class, so the class count is already checked
        pool = (pools, check_dim)
    else:
        prototypes = load_prototypes(files["prototypes"], files["prototype_classes"])
        check_dim(files["prototypes"], prototypes.vectors.dim)
        if prototypes.n_classes != c_in:
            raise ValueError(f"{files['prototype_classes']}: {prototypes.n_classes} classes, "
                             f"but {path} says C_in is {c_in}")
    flags = store.load_flags(files["flags"]) if "flags" in files else None
    if flags is not None and flags.size != unlabeled.count:
        raise ValueError(f"{files['flags']}: {flags.size} flags but "
                         f"{unlabeled.count} unlabeled rows")
    return DatasetBundle(unlabeled=unlabeled, labeled=labeled, pool=pool,
                         prototypes=prototypes, flags=flags)


def compute_scores(bundle: DatasetBundle, methods, cfg: RunConfig, load_s=None):
    """Score ``bundle`` with each method; returns (method, scores, diagnostics)
    triples in ``methods`` order.

    Prototype sets are keyed by prototypes per class: ``cfg.clusters``
    K-means centers for the clustered methods with a prompt pool, class
    means (or the supplied prototypes) for every other method. Each set,
    its KNN graph and its :func:`run_gsp` are made at most once per call,
    and every set the methods need comes from one pass over the pool files,
    before the first method runs. Each method's ``timing_s`` holds the
    stages it used, shared ones (``load``, the seconds ``load_s`` that
    loading ``bundle`` took, if given; ``pool``, ``build_graph`` and the
    run) charged in full, and ``total``, their sum.
    """

    def per_class(method):
        return cfg.clusters if method in _CLUSTERED and bundle.pool is not None else 1

    sets, stages = {1: bundle.prototypes}, {} if load_s is None else {"load": load_s}
    if bundle.pool is not None:
        paths, check = bundle.pool
        sets, stages["pool"] = timed(pool_prototypes, paths,
                                     {per_class(method) for method in methods}, cfg.seed, check)

    @functools.cache
    def graph(n_c):
        return timed(build_adjacency, sets[n_c], bundle.labeled, bundle.unlabeled, k=cfg.k)

    @functools.cache
    def gsp(n_c):
        return run_gsp(graph(n_c)[0], cfg.propagation())

    results = []
    for method in methods:
        n_c, timing, diag = per_class(method), dict(stages), {}
        if method == "cosine":
            scores, timing["cosine"] = timed(cosine_scores, bundle.unlabeled, sets[n_c], cfg.tau)
        else:
            adj, timing["build_graph"] = graph(n_c)
            if method == "manifold":
                scores, timing["dijkstra"] = timed(manifold_score, adj)
                # exactly the unlabeled nodes that no source reaches score 0
                diag = {"graph": {**adj.summary,
                                  "unreachable": int((scores == 0.0).sum())}}
            else:
                # one run per graph gives both passes: self-training methods
                # report pass 2, the others pass 1
                pass1, final, shared = gsp(n_c)
                self_train = method in _SELF_TRAIN and shared["selection"] is not None
                scores = final if self_train else pass1
                diag = {**shared, "config": {**shared["config"], "self_train": self_train}}
                timing.update(shared["timing_s"])
        diag["timing_s"] = {**timing, "total": sum(timing.values())}
        diag["method"] = method
        diag["run_config"] = asdict(cfg)
        results.append((method, scores, diag))
    return results


def cmd_score(manifest, out_dir, cfg: RunConfig) -> int:
    bundle, load_s = timed(load_dataset, manifest)
    results = compute_scores(bundle, METHODS if cfg.method == "all" else (cfg.method,), cfg,
                             load_s)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for method, scores, diag in results:
        store.save_vector(scores, out / f"scores_{method}.npy")
        with open(out / f"diagnostics_{method}.json", "w", encoding="utf-8") as f:
            json.dump(diag, f)
            f.write("\n")
    if cfg.method == "all" and bundle.flags is not None:
        _write_report_csv([metrics.evaluate(scores, bundle.flags, method)
                           for method, scores, _ in results], out / "ablation.csv")
    return 0


def _write_report_csv(reports, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("method,auroc,fpr95\n")
        for r in reports:
            f.write(f"{r.method},{r.auroc:.6f},{r.fpr95:.6f}\n")


def cmd_eval(scores_paths, flags_path, out_dir, names=None) -> int:
    flags = store.load_flags(flags_path)
    names = names or [Path(p).stem for p in scores_paths]
    if len(names) != len(scores_paths):
        raise ValueError(f"eval needs one --names entry per --scores file, "
                         f"got {len(names)} for {len(scores_paths)}")
    reports = []
    for name, path in zip(names, scores_paths):
        scores = store.load_vector(path)
        if scores.size != flags.size:
            raise ValueError(
                f"{path}: {scores.size} scores but {flags.size} flags"
            )
        reports.append(metrics.evaluate(scores, flags, method=name))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump([asdict(r) for r in reports], f, indent=2)
        f.write("\n")
    _write_report_csv(reports, out / "report.csv")
    for r in reports:
        print(f"{r.method}: auroc={r.auroc:.4f} fpr95={r.fpr95:.4f}")
    return 0


def cmd_synth(spec_path, out_dir) -> int:
    types = {"preset": str, **{f.name: f.type for f in fields(synth.SynthSpec)}}
    doc = store.load_json(spec_path, "synth spec", types)
    # the one tuple field, id_counts, holds integers
    values = {key: store.typed_list(v, int, key, spec_path) if types[key] is tuple
              else store.typed(v, types[key], key, spec_path) for key, v in doc.items()}
    preset = values.pop("preset", None)
    factories = {
        "blob_benchmark": synth.blob_benchmark_spec,
        "bridge_benchmark": synth.bridge_benchmark_spec,
    }
    if preset is not None and preset not in factories:
        raise ValueError(f"{spec_path}: unknown preset {preset!r}; "
                         f"expected one of {sorted(factories)}")
    try:  # the spec's keys override its preset's defaults
        spec = replace(factories.get(preset, synth.SynthSpec)(), **values)
    except ValueError as exc:
        raise ValueError(f"{spec_path}: {exc}") from None
    data = synth.generate(spec)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_prototypes(data.prototypes, out / "prototypes.npy", out / "prototype_classes.json")
    store.save_matrix(data.unlabeled, out / "unlabeled.npy")
    store.save_flags(data.is_id, out / "flags.csv")
    manifest = {
        "unlabeled": "unlabeled.npy",
        "prototypes": "prototypes.npy",
        "prototype_classes": "prototype_classes.json",
        "flags": "flags.csv",
        "C_in": spec.n_classes,
        "class_names": [f"class_{c}" for c in range(spec.n_classes)],
    }
    if data.labeled is not None:
        store.save_matrix(data.labeled, out / "labeled.npy")
        manifest["labeled"] = "labeled.npy"
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"wrote synthetic dataset to {out}")
    return 0


def cmd_cluster_prompts(pool_paths, clusters, seed, out_dir) -> int:
    sets = pool_prototypes(pool_paths, clusters, seed)  # one pass for every value
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    many = len(clusters) > 1
    for n_c in clusters:
        suffix = f"_nc{n_c}" if many else ""
        save_prototypes(sets[n_c], out / f"prototypes{suffix}.npy",
                        out / f"prototype_classes{suffix}.json")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphscore",
                                     description="Graph-based OOD scoring over embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score a dataset manifest")
    p_score.add_argument("--config", help="JSON run configuration")
    p_score.add_argument("--manifest", help="dataset manifest path")
    p_score.add_argument("--method", choices=METHODS + ("all",))
    p_score.add_argument("--k", type=int, help="KNN neighbor count")
    p_score.add_argument("--clusters", type=int, help="prototypes per class")
    p_score.add_argument("--alpha", type=float)
    p_score.add_argument("--iters", type=int, dest="iterations")
    p_score.add_argument("--m-percent", type=float, dest="m_percent")
    p_score.add_argument("--tau", type=float)
    p_score.add_argument("--seed", type=int)
    p_score.add_argument("--out", help="output directory")

    p_eval = sub.add_parser("eval", help="AUROC/FPR95 report from score files")
    p_eval.add_argument("--config", help="JSON run configuration")
    p_eval.add_argument("--scores", nargs="+", help="1-D NPY score files")
    p_eval.add_argument("--flags", help="ground-truth flags CSV")
    p_eval.add_argument("--names", nargs="+", help="method name per scores file")
    p_eval.add_argument("--out", help="output directory")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", help="JSON run configuration")
    p_synth.add_argument("--spec", help="synth spec JSON")
    p_synth.add_argument("--out", help="output directory")

    p_cluster = sub.add_parser("cluster-prompts", help="cluster prompt pools into prototypes")
    p_cluster.add_argument("--config", help="JSON run configuration")
    p_cluster.add_argument("--pools", nargs="+", help="one pool NPY per class")
    p_cluster.add_argument("--clusters", type=int, nargs="+")
    p_cluster.add_argument("--seed", type=int)
    p_cluster.add_argument("--out", help="output directory")
    return parser


def _dispatch(args) -> int:
    keys = set(vars(args)) - {"command", "config"}
    config = store.load_json(args.config, "config", keys) if args.config else {}
    flags = {key: v for key, v in vars(args).items() if v is not None}
    opts = {**config, **flags}  # flags win over the config file

    def opt(key, typ, default=None, many=False):
        if key in flags:  # typed by argparse; the command checks its range
            return flags[key]
        value = config.get(key, default)
        if many and value == []:  # argparse takes one or more, a config file may list none
            raise ValueError(f"{args.config}: key {key!r} must list at least one entry")
        return (store.typed_list if many else store.typed)(value, typ, key, args.config)

    # the options each command needs; score's manifest is checked on its own,
    # as a missing file
    required = {"eval": ("scores", "flags"), "synth": ("spec",),
                "cluster-prompts": ("pools",)}.get(args.command, ())
    if any(opts.get(key) is None for key in required):
        raise ValueError(f"{args.command} needs {' and '.join('--' + key for key in required)}")
    if args.command == "score":
        if opts.get("manifest") is None:
            raise FileNotFoundError("no manifest given (use --manifest or config)")
        manifest, out = opt("manifest", str), opt("out", str, "runs")
        types = {f.name: f.type for f in fields(RunConfig)}
        given = {key: opt(key, types[key]) for key in config if key in types and key not in flags}
        try:  # the config file's values on their own first, so a range error among them names it
            cfg = RunConfig(**given)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        return cmd_score(manifest, out,
                         replace(cfg, **{key: v for key, v in flags.items() if key in types}))
    if args.command == "eval":
        return cmd_eval(opt("scores", str, many=True), opt("flags", str), opt("out", str, "runs"),
                        names=opt("names", str, many=True) if "names" in opts else None)
    if args.command == "synth":
        return cmd_synth(opt("spec", str), opt("out", str, "synth_out"))
    # cluster-prompts: argparse admits no other command
    clusters, seed = opt("clusters", int, [3], many=True), opt("seed", int, 0)
    # a range error names the config file when the value came from it
    where = {key: "" if key in flags else f"{args.config}: " for key in ("seed", "clusters")}
    if seed < 0:
        raise ValueError(f"{where['seed']}seed must be >= 0, got {seed}")
    if min(clusters) < 1:
        raise ValueError(f"{where['clusters']}clusters must be >= 1, got {clusters}")
    return cmd_cluster_prompts(opt("pools", str, many=True), clusters, seed,
                               opt("out", str, "prototypes_out"))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
