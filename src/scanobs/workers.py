"""The second core: two threads for numpy kernels, forked pools of
single-BLAS-thread worker processes for Python (Linux only).

One rule decides which a stage uses.  A numpy kernel that releases the
interpreter lock and writes disjoint parts of one output runs on two
threads in this process through ``two_threads``: the Laplace noise of a
stack of images (``imaging.apply_noise``), the Laplacian log-LRs
(``observers.laplacian_io_log_lrs_batch``) and the clustered-lumpy blobs
(``imaging.render_clb_image``).  Work that holds the lock, in Python, goes
to forked workers through ``task_map``: the MCMC chains, the network's
micro-batches and each observer's report (``runner.run_observers``).

Every task of a pool runs at one thread of numpy's OpenBLAS, and results
come back in task order, so what a caller computes from them depends
neither on the worker count nor on the BLAS thread count.  Workers are
forked, so they start with the caller's modules, data and module
attributes as they are at the pool's first task.  ``two_threads`` starts
and joins its thread inside the call, so no such thread is alive when a
pool forks.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
import threading

import numpy as np


# (prefix, suffix) of the thread-count functions of numpy's OpenBLAS: an
# ILP64 scipy-openblas in numpy's wheels, or a system OpenBLAS
NUMPY_BLAS = (("scipy_openblas_", "64_"), ("openblas_", ""))
# and also of scipy's own, an LP64 scipy-openblas in scipy's wheels
EVERY_BLAS = NUMPY_BLAS + (("scipy_openblas_", ""),)


@functools.cache
def _openblas(names=NUMPY_BLAS):
    """(set, get) thread-count functions of each loaded OpenBLAS that
    exports a pair of names; empty where no such library is found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split(None, 5)[5].strip() for line in fh
                if "openblas" in line}
    found = []
    for lib in map(ctypes.CDLL, libs):
        for prefix, suffix in names:
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread(names=NUMPY_BLAS):
    """Run the enclosed code at one thread of each OpenBLAS that exports a
    pair of names (by default numpy's), and restore the previous thread
    counts afterwards."""
    libs = _openblas(names)
    before = [getter() for _, getter in libs]
    for setter, _ in libs:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), n in zip(libs, before):
            setter(n)


def two_threads(fn, n, step):
    """Run ``fn(lo, hi)`` over the two halves of range(n), cut at a
    multiple of step, the second half on a thread started and joined here;
    ``fn(0, n)`` alone when the cut leaves a half empty or fewer than 2
    CPUs are usable.  fn must write disjoint parts of its output for
    disjoint ranges.  Starting and joining the thread costs about 50 us on
    a 2-core x86_64 VM, so a half should be far more work than that: a
    stack, not an image."""
    mid = -(-n // (2 * step)) * step
    if mid >= n or len(os.sched_getaffinity(0)) < 2:
        fn(0, n)
        return
    errors = []

    def second_half():
        try:
            fn(mid, n)
        except BaseException as exc:  # raised again in the caller below
            errors.append(exc)

    thread = threading.Thread(target=second_half)
    thread.start()
    try:
        fn(0, mid)
    finally:
        thread.join()
    if errors:
        raise errors[0]


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
def task_map(tasks):
    """Yields a map for a call of ``tasks`` tasks, each run at one BLAS
    thread; the caller's own BLAS work in the scope runs at one thread too.
    Only numpy's OpenBLAS is set, since no task uses scipy's: a thread
    count set after a fork restarts that library's threads, which then
    busy-wait before they sleep.

    With one task, or one usable CPU, the map is the builtin, run in this
    process.  Otherwise it is the map of a pool of min(tasks, usable CPUs)
    workers, forked at the pool's first task.  Consume the map inside the
    scope.
    """
    with one_blas_thread():
        cpus = len(os.sched_getaffinity(0))
        if tasks < 2 or cpus < 2:
            yield map
            return
        # imported here, so that a process that forks no worker does not
        # load the pool machinery (1.4 MB of peak RSS)
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # each worker inherits the one BLAS thread of this process, so two
        # workers do not crowd each other with spinning BLAS threads.
        # (Setting it again in a forked worker made the worker's first
        # 4-image pass of the paper net about 80 ms slower, with OpenBLAS
        # 0.3.31.)
        with ProcessPoolExecutor(min(tasks, cpus),
                                 get_context("fork")) as pool:
            yield pool.map
