import threading
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.sparse as sp

from graphscore import store
from graphscore.graph import BlockAdjacency


def hand_graph(weights, partition):
    """A ``BlockAdjacency`` over ``partition`` holding ``weights``, a dense
    or scipy sparse matrix, as scipy's canonical float64 CSR: a dense
    matrix's zeros are not stored, a sparse matrix's stored zeros are."""
    w = sp.csr_matrix(weights, dtype=np.float64)
    w.sum_duplicates()
    return BlockAdjacency(w.indptr, w.indices, w.data, partition)


def csr(adj):
    """``adj``'s weights as a scipy CSR matrix on its own arrays."""
    n = adj.partition.n_total
    return sp.csr_matrix((adj.data, adj.indices, adj.indptr), shape=(n, n))


class _InlineExecutor:
    # runs each submitted call at once on the calling thread
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.fixture
def inline_worker(monkeypatch):
    """A switch after which the worker of ``store.share`` runs on the calling
    thread, at once: it takes every task, with the second buffer set,
    before the calling thread takes one."""
    return lambda: monkeypatch.setattr(store, "ThreadPoolExecutor", _InlineExecutor)


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started
