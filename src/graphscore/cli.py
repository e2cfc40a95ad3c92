"""Command-line driver over :mod:`graphscore.pipeline`.

Subcommands: ``score`` (run a scoring method over a dataset manifest),
``eval`` (AUROC/FPR95 reports from score files), ``synth`` (write a
synthetic dataset), and ``cluster-prompts`` (reduce prompt pools to
prototype files). Every subcommand accepts ``--config <json>`` plus
long-form flag overrides; flags win.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import metrics, store, synth
from .pipeline import METHODS, RunConfig, load_dataset, score
from .prompts import pool_prototypes, save_prototypes
from .propagation import timed


def cmd_score(manifest, out_dir, cfg: RunConfig) -> int:
    bundle, load_s = timed(load_dataset, manifest)
    results = score(bundle, cfg, load_s)

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
