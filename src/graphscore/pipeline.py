"""The scoring path that the library and the CLI share.

:func:`load_dataset` parses a dataset manifest and loads every file it
names in one pass; :func:`score` scores the loaded bundle with the method a
:class:`RunConfig` names, or with every method.
"""

import functools
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from . import store
from .baselines import cosine_scores, manifold_score
from .graph import build_adjacency
from .prompts import load_prototypes, pool_prototypes
from .propagation import PropagationConfig, run_gsp, timed

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
    pool: object  # the pool files, one per class, read when scored
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
    Of the pool files only the first one's header is read here, for its
    dimension: each file is read and checked once, by the pass of
    :func:`score` that reduces them to prototypes.
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

    unlabeled = store.load_unit_matrix(files["unlabeled"])

    def check_dim(source, dim):
        if dim != unlabeled.dim:
            raise ValueError(f"{source}: dimension {dim}, but {files['unlabeled']} "
                             f"has dimension {unlabeled.dim}")

    labeled = prototypes = None
    if "labeled" in files:
        labeled = store.load_unit_matrix(files["labeled"])
        check_dim(files["labeled"], labeled.dim)
    if pools:  # one file per class, so the class count is already checked
        # the header alone; the pool pass holds every later file to its shape
        store.read_npy(pools[0], rank=2, slot=lambda shape: check_dim(pools[0], shape[1]))
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
    return DatasetBundle(unlabeled=unlabeled, labeled=labeled, pool=pools or None,
                         prototypes=prototypes, flags=flags)


def score(bundle: DatasetBundle, cfg: RunConfig, load_s=None):
    """Score ``bundle`` with ``cfg.method``, or with every method of
    :data:`METHODS` if it is ``all``; returns (method, scores, diagnostics)
    triples in :data:`METHODS` order.

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
    methods = METHODS if cfg.method == "all" else (cfg.method,)

    def per_class(method):
        return cfg.clusters if method in _CLUSTERED and bundle.pool is not None else 1

    sets, stages = {1: bundle.prototypes}, {} if load_s is None else {"load": load_s}
    if bundle.pool is not None:
        sets, stages["pool"] = timed(pool_prototypes, bundle.pool,
                                     {per_class(method) for method in methods}, cfg.seed)

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
        diag.update(timing_s={**timing, "total": sum(timing.values())}, method=method,
                    run_config=asdict(cfg))
        results.append((method, scores, diag))
    return results
