"""Command-line pipeline driver.

Subcommands: ``score`` (run a scoring method over a dataset manifest),
``eval`` (AUROC/FPR95 reports from score files), ``synth`` (write a
synthetic dataset), and ``cluster-prompts`` (reduce prompt pools to
prototype files). Every subcommand accepts ``--config <json>`` plus
long-form flag overrides; flags win. The only environment variable read is
GRAPHSCORE_LOG (log level).
"""

import argparse
import functools
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import metrics, store, synth
from .baselines import BaselineConfig, cosine_scores, manifold_score
from .graph import build_adjacency
from .prompts import (cluster_prompts, load_pooled_matrix, load_prompt_pools, load_prototypes,
                      mean_prototypes, save_prototypes)
from .propagation import PropagationConfig, run_gsp
from .store import l2_normalize, load_labels, load_matrix

log = logging.getLogger("graphscore")

METHODS = ("gsp", "cosine", "manifold", "score_prop_only", "gsp_no_cluster", "gsp_no_neg")
_CLUSTERED = frozenset({"gsp", "gsp_no_neg"})
_SELF_TRAIN = frozenset({"gsp", "gsp_no_cluster"})


@dataclass(frozen=True)
class RunConfig:
    manifest: str
    method: str = "gsp"
    k: int = 10
    clusters: int = 3
    alpha: float = 0.5
    iterations: int = 5
    m_percent: float = 5.0
    tau: float = 1.0
    seed: int = 0
    out: str = "runs"

    def __post_init__(self):
        if self.method not in METHODS + ("all",):
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS + ('all',)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        # alpha, iterations, m_percent and tau are checked by the configs they feed
        self.propagation()
        self.baseline()

    def propagation(self) -> PropagationConfig:
        return PropagationConfig(alpha=self.alpha, iterations=self.iterations,
                                 m_percent=self.m_percent)

    def baseline(self) -> BaselineConfig:
        return BaselineConfig(temperature=self.tau)


@dataclass
class DatasetBundle:
    unlabeled: object
    labeled: object
    pool: object
    prototypes: object
    flags: object


def load_dataset(manifest_path) -> DatasetBundle:
    """Load and normalize everything a manifest references."""
    manifest = store.load_manifest(manifest_path)
    unlabeled = l2_normalize(load_matrix(manifest.unlabeled))
    labeled = None
    if manifest.labeled is not None:
        labeled = l2_normalize(load_matrix(manifest.labeled))
        load_labels(manifest.labels, labeled, manifest.c_in)
    pool = prototypes = None
    if manifest.prompt_pools is not None:
        pool = load_prompt_pools(manifest.prompt_pools)
    elif manifest.pool_matrix is not None:
        pool = load_pooled_matrix(manifest.pool_matrix, manifest.pool_boundaries)
    else:
        prototypes = load_prototypes(manifest.prototypes, manifest.prototype_classes)
    flags = store.load_flags(manifest.flags) if manifest.flags is not None else None
    if pool is not None and pool.n_classes != manifest.c_in:
        raise ValueError(f"prompt pool has {pool.n_classes} classes, manifest says {manifest.c_in}")
    if prototypes is not None and prototypes.n_classes != manifest.c_in:
        raise ValueError(f"{manifest.prototype_classes}: prototypes cover "
                         f"{prototypes.n_classes} classes, manifest says {manifest.c_in}")
    if flags is not None and flags.size != unlabeled.count:
        raise ValueError(f"{manifest.flags}: {flags.size} flags but "
                         f"{unlabeled.count} unlabeled rows")
    return DatasetBundle(unlabeled=unlabeled, labeled=labeled, pool=pool,
                         prototypes=prototypes, flags=flags)


def compute_scores(bundle: DatasetBundle, methods, cfg: RunConfig):
    """Score ``bundle`` with each method; returns (method, scores, diagnostics)
    triples in ``methods`` order.

    Each distinct prototype set, KNN graph and propagation run is made at
    most once per call: clustered methods with a prompt pool and
    ``clusters > 1`` use K-means prototypes, every other method the pool
    means (or the supplied prototypes), and all methods on one prototype set
    share one graph and one :func:`run_gsp`.
    """

    @functools.cache
    def prototypes(clustered):
        if bundle.pool is None:
            return bundle.prototypes
        if clustered:
            return cluster_prompts(bundle.pool, cfg.clusters, cfg.seed)
        return mean_prototypes(bundle.pool)

    @functools.cache
    def graph(clustered):
        t0 = time.perf_counter()
        adj = build_adjacency(prototypes(clustered), bundle.labeled, bundle.unlabeled, k=cfg.k)
        return adj, time.perf_counter() - t0

    @functools.cache
    def gsp(clustered):
        return run_gsp(graph(clustered)[0], cfg.propagation())

    results = []
    for method in methods:
        clustered = method in _CLUSTERED and bundle.pool is not None and cfg.clusters > 1
        if method == "cosine":
            t0 = time.perf_counter()
            scores = cosine_scores(bundle.unlabeled, prototypes(clustered), cfg.baseline())
            diag = {"timing_s": {"total": time.perf_counter() - t0}}
        else:
            adj, build_s = graph(clustered)
            if method == "manifold":
                t0 = time.perf_counter()
                scores = manifold_score(adj)
                dijkstra_s = time.perf_counter() - t0
                diag = {"timing_s": {"dijkstra": dijkstra_s, "total": dijkstra_s}}
            else:
                # one run per graph gives both passes: self-training methods
                # report pass 2, the others pass 1
                pass1, final, shared = gsp(clustered)
                self_train = method in _SELF_TRAIN and shared["selection"] is not None
                scores = final if self_train else pass1
                diag = {**shared, "config": {**shared["config"], "self_train": self_train}}
            # the shared build and run are charged in full to every method that used them
            timing = diag["timing_s"]
            diag["timing_s"] = {"build_graph": build_s, **timing,
                                "total": build_s + timing["total"]}
        diag["method"] = method
        diag["run_config"] = asdict(cfg)
        results.append((method, scores, diag))
        log.info("scored method=%s n=%d", method, len(scores))
    return results


def cmd_score(cfg: RunConfig) -> int:
    bundle = load_dataset(cfg.manifest)
    results = compute_scores(bundle, METHODS if cfg.method == "all" else (cfg.method,), cfg)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for method, scores, diag in results:
        store.save_vector(scores, out / f"scores_{method}.npy")
        with open(out / f"diagnostics_{method}.json", "w", encoding="utf-8") as f:
            json.dump(diag, f, indent=2)
            f.write("\n")
    if cfg.method == "all" and bundle.flags is not None:
        rows = []
        for method, scores, _ in results:
            report = metrics.evaluate(scores, bundle.flags, method, asdict(cfg))
            rows.append((method, report.auroc, report.fpr95))
        _write_report_csv(rows, out / "ablation.csv")
    return 0


def _write_report_csv(rows, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("method,auroc,fpr95\n")
        for method, auc, fpr in rows:
            f.write(f"{method},{auc:.6f},{fpr:.6f}\n")


def cmd_eval(scores_paths, flags_path, out_dir, names=None) -> int:
    flags = store.load_flags(flags_path)
    names = names or [Path(p).stem for p in scores_paths]
    if len(names) != len(scores_paths):
        raise ValueError("need one name per scores file")
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
    _write_report_csv([(r.method, r.auroc, r.fpr95) for r in reports], out / "report.csv")
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
    if preset is None:
        spec = synth.SynthSpec(**values)
    else:
        factories = {
            "blob_benchmark": synth.blob_benchmark_spec,
            "bridge_benchmark": synth.bridge_benchmark_spec,
        }
        if preset not in factories:
            raise ValueError(f"unknown preset {preset!r}; expected one of {sorted(factories)}")
        spec = replace(factories[preset](seed=values.pop("seed", 0)), **values)
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
        store.save_labels(data.labels, out / "labels.csv")
        manifest["labeled"] = "labeled.npy"
        manifest["labels"] = "labels.csv"
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"wrote synthetic dataset to {out}")
    return 0


def cmd_cluster_prompts(pool_paths, clusters, seed, out_dir) -> int:
    if any(n_c < 1 for n_c in clusters):
        raise ValueError(f"cluster counts must be >= 1, got {clusters}")
    pool = load_prompt_pools(pool_paths)
    results = [(n_c, cluster_prompts(pool, n_c, seed)) for n_c in clusters]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    many = len(clusters) > 1
    for n_c, protos in results:
        suffix = f"_nc{n_c}" if many else ""
        save_prototypes(protos, out / f"prototypes{suffix}.npy",
                        out / f"prototype_classes{suffix}.json")
    return 0


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
    # flags win over the config file
    opts = {**config, **{key: v for key, v in vars(args).items() if v is not None}}

    def opt(key, typ, default=None, many=False):
        # flag values are typed by argparse, so only a config value can fail here
        value = opts.get(key, default)
        return (store.typed_list if many else store.typed)(value, typ, key, args.config)

    if args.command == "score":
        if opts.get("manifest") is None:
            raise FileNotFoundError("no manifest given (use --manifest or config)")
        types = {f.name: f.type for f in fields(RunConfig)}
        return cmd_score(RunConfig(**{key: opt(key, types[key]) for key in opts if key in types}))
    if args.command == "eval":
        if not opts.get("scores") or opts.get("flags") is None:
            raise ValueError("eval needs --scores and --flags")
        return cmd_eval(opt("scores", str, many=True), opt("flags", str), opt("out", str, "runs"),
                        names=opt("names", str, many=True) if "names" in opts else None)
    if args.command == "synth":
        if opts.get("spec") is None:
            raise ValueError("synth needs --spec")
        return cmd_synth(opt("spec", str), opt("out", str, "synth_out"))
    if args.command == "cluster-prompts":
        if not opts.get("pools"):
            raise ValueError("cluster-prompts needs --pools")
        return cmd_cluster_prompts(opt("pools", str, many=True), opt("clusters", int, [3], many=True),
                                   opt("seed", int, 0), opt("out", str, "prototypes_out"))
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    level = os.environ.get("GRAPHSCORE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
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
