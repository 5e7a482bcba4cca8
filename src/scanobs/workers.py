"""Forked pools of single-BLAS-thread worker processes (Linux only).

The MCMC chains and the network's micro-batches run here.  Every task runs
at one OpenBLAS thread, and results come back in task order, so what a
caller computes from them depends neither on the worker count nor on the
BLAS thread count.  Workers are forked, so they start with the caller's
modules, data and module attributes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os

import numpy as np


@functools.cache
def _openblas():
    """(set, get) thread-count functions of each OpenBLAS that numpy
    loaded; empty where no such library or setter is found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split(None, 5)[5].strip() for line in fh
                if "openblas" in line}
    found = []
    for lib in map(ctypes.CDLL, libs):
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed code at one OpenBLAS thread, and restore the
    previous thread count afterwards."""
    before = [getter() for _, getter in _openblas()]
    for setter, _ in _openblas():
        setter(1)
    try:
        yield
    finally:
        for (setter, _), n in zip(_openblas(), before):
            setter(n)


def shared_copies(arrays):
    """Copies of arrays in one anonymous shared mapping: a worker forked
    after this call sees every later write to them."""
    buf = mmap.mmap(-1, max(1, sum(a.nbytes for a in arrays)))
    copies, offset = [], 0
    for a in arrays:
        copy = np.frombuffer(buf, a.dtype, a.size, offset).reshape(a.shape)
        copy[...] = a
        copies.append(copy)
        offset += a.nbytes
    return copies


@contextlib.contextmanager
def fork_pool(tasks):
    """A pool of min(tasks, usable CPUs) workers, forked while this process
    runs at one BLAS thread: each worker inherits that setting, so two
    workers do not crowd each other with spinning BLAS threads.  (Setting
    it again in a forked worker made the worker's first 4-image pass of the
    paper net about 80 ms slower, with OpenBLAS 0.3.31.)"""
    # imported here, so that a process that forks no worker does not load
    # the pool machinery (1.4 MB of peak RSS)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with one_blas_thread(), ProcessPoolExecutor(
            min(tasks, len(os.sched_getaffinity(0))),
            get_context("fork")) as pool:
        yield pool


_shared = None  # the pool of the open task_map scope that made one


@contextlib.contextmanager
def task_map(tasks):
    """Yields a map for a call of ``tasks`` tasks, each run at one BLAS
    thread; the caller's own BLAS work in the scope runs at one thread too.

    With one task, or one usable CPU, the map is the builtin, run in this
    process.  Otherwise it is the map of a fork_pool, which nested task_map
    scopes reuse until this one exits, so a training run forks once for its
    steps and validations alike.  Consume the map inside the scope.
    """
    global _shared
    with one_blas_thread():
        if tasks < 2 or len(os.sched_getaffinity(0)) < 2:
            yield map
        elif _shared is not None:
            yield _shared.map
        else:
            with fork_pool(tasks) as pool:
                _shared = pool
                try:
                    yield pool.map
                finally:
                    _shared = None
