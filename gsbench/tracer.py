"""Span and count tracing around graphscore's public functions.

The tracer wraps functions from the benchmark's side; nothing inside the
program changes. A function is wrapped under every name it is bound to in
the ``graphscore`` modules, because ``cli`` and ``propagation`` import
several functions directly (``from .graph import build_adjacency``), so
patching only the defining module would miss those calls. A function that
no longer exists is reported as an absent layer with zero calls.

Spans nest: a span's self time is its duration minus the time its traced
children (and the tracer's own bookkeeping for them) took.
"""

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MB = 1 << 20

# span name -> (defining module, function name)
TARGETS = {
    "cli.cmd_score": ("graphscore.cli", "cmd_score"),
    "store.load": ("graphscore.cli", "load_dataset"),
    "store.save": ("graphscore.store", "save_vector"),
    "graph.build": ("graphscore.graph", "build_adjacency"),
    "graph.normalize": ("graphscore.graph", "normalize"),
    "prompts.cluster": ("graphscore.prompts", "cluster_prompts"),
    "prompts.mean": ("graphscore.prompts", "mean_prototypes"),
    "propagation.run_gsp": ("graphscore.propagation", "run_gsp"),
    "propagation.propagate": ("graphscore.propagation", "propagate"),
    "propagation.select": ("graphscore.propagation", "select_pseudo_prompts"),
    "baselines.cosine": ("graphscore.baselines", "cosine_scores"),
    "baselines.manifold": ("graphscore.baselines", "manifold_score"),
    "metrics.evaluate": ("graphscore.metrics", "evaluate"),
}


def _manifest_bytes(args, kwargs, result):
    """Size of the manifest plus every file it references."""
    path = Path(kwargs.get("manifest_path", args[0] if args else ""))
    doc = json.loads(path.read_text(encoding="utf-8"))
    files = [doc.get(k) for k in ("unlabeled", "labeled", "labels", "flags", "prototypes",
                                  "prototype_classes", "pool_matrix", "pool_boundaries")]
    files += doc.get("prompt_pools") or []
    size = path.stat().st_size + sum((path.parent / f).stat().st_size for f in files if f)
    return {"bytes_read": size}


def _graph_counts(args, kwargs, result):
    """FLOPs and similarity-block size of the KNN build, from its inputs."""
    names = ("prototypes", "labeled", "unlabeled")
    given = dict(zip(names, args))
    given.update({k: v for k, v in kwargs.items() if k in names})
    n_p = given["prototypes"].count
    n_l = given["labeled"].count if given.get("labeled") is not None else 0
    n_u, dim = given["unlabeled"].count, given["unlabeled"].dim
    return {
        "edges": getattr(result, "nnz", 0),
        "knn_flop": 2.0 * (n_p + n_l + n_u) * n_u * dim,
        "knn_sim_bytes_max": max(n_p, n_l, n_u) * n_u * 8,
    }


HOOKS = {"store.load": _manifest_bytes, "graph.build": _graph_counts}


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; totals
    accumulate across installs."""

    def __init__(self):
        self._patches = []  # (module, attribute, original)
        self._stack = []
        self.absent = []
        self.hook_errors = []
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.max_counts = defaultdict(float)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "graphscore" or name.startswith("graphscore.")]
        self.absent = []
        for span, (mod_name, attr) in TARGETS.items():
            try:
                original = getattr(importlib.import_module(mod_name), attr, None)
            except ImportError:
                original = None
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, span, original):
        hook = HOOKS.get(span)

        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.total_s[span] += t1 - t0
                self.self_s[span] += t1 - t0 - frame[0]
                self.calls[span] += 1
            if hook is not None:
                try:
                    for key, value in hook(args, kwargs, result).items():
                        name = f"{span}.{key}"
                        self.counts[name] += value
                        self.max_counts[name] = max(self.max_counts[name], value)
                except (AttributeError, KeyError, TypeError, IndexError, OSError,
                        ValueError) as exc:
                    self.hook_errors.append(f"{span}: {exc!r}")
            if self._stack:
                self._stack[-1][0] += time.perf_counter() - t0
            return result

        traced.__wrapped__ = original
        return traced

    def per_call(self, n_calls: int, diag_bytes: float, overhead_s: float) -> dict:
        """The per-layer table, each value averaged over ``n_calls`` scoring
        calls except where the name says otherwise."""
        n = max(n_calls, 1)
        builds = self.calls["graph.build"]
        metrics = {
            "graph.build_s": (self.total_s["graph.build"] / n, "s"),
            "graph.build_calls": (builds / n, "count"),
            "graph.edges": (self.counts["graph.build.edges"] / builds if builds else 0.0,
                            "count"),
            "graph.knn_gflop": (self.counts["graph.build.knn_flop"] / n / 1e9, "GFLOP"),
            "graph.knn_sim_mb": (self.max_counts["graph.build.knn_sim_bytes_max"] / MB, "MB"),
            "graph.normalize_s": (self.total_s["graph.normalize"] / n, "s"),
            "graph.normalize_calls": (self.calls["graph.normalize"] / n, "count"),
            "prompts.cluster_s": (self.total_s["prompts.cluster"] / n, "s"),
            "prompts.cluster_calls": (self.calls["prompts.cluster"] / n, "count"),
            "prompts.mean_s": (self.total_s["prompts.mean"] / n, "s"),
            "prompts.mean_calls": (self.calls["prompts.mean"] / n, "count"),
            "store.load_s": (self.total_s["store.load"] / n, "s"),
            "store.bytes_read": (self.counts["store.load.bytes_read"] / n / MB, "MB"),
            "store.save_s": (self.total_s["store.save"] / n, "s"),
            "propagation.propagate_s": (self.total_s["propagation.propagate"] / n, "s"),
            "propagation.propagate_calls": (self.calls["propagation.propagate"] / n, "count"),
            "propagation.select_s": (self.total_s["propagation.select"] / n, "s"),
            "propagation.run_gsp_self_s": (self.self_s["propagation.run_gsp"] / n, "s"),
            "baselines.cosine_s": (self.total_s["baselines.cosine"] / n, "s"),
            "baselines.manifold_s": (self.total_s["baselines.manifold"] / n, "s"),
            "metrics.evaluate_s": (self.total_s["metrics.evaluate"] / n, "s"),
            "cli.self_s": (self.self_s["cli.cmd_score"] / n, "s"),
            "cli.diag_bytes": (diag_bytes, "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
