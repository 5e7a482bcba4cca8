"""The second core: two threads for numpy kernels, forked pools of
worker processes for Python (Linux only).

One rule decides which a stage uses.  A numpy kernel that releases the
interpreter lock and writes disjoint parts of one output runs on two
threads in this process through ``two_threads``: the blocks of a split or
store, each from its own substream, whose noise draws release the lock
(``runner.generate_dataset``), the Laplacian log-LRs
(``observers.laplacian_io_log_lrs_batch``), the scanning Hotelling
products (``observers.scanning_ho_records``) and the clustered-lumpy blobs
(``imaging.render_clb_image``).  Writing a file, which must stay in order,
runs beside them on one thread per file through ``writer_thread``: each
drawn block of a split or store is appended whole, in block order, and
hashed as it is written, and the thread is joined inside
``runner._write_blocks``.  Work that holds the lock, in Python, goes to
forked workers through ``task_map``: the MCMC chains, the network's
micro-batches and each observer's report (``runner.run_observers``).

Importing this module sets every loaded OpenBLAS, numpy's and scipy's, to
one thread, once, before anything can fork, and nothing sets it again.  So
BLAS never takes the second core: no BLAS thread spins beside
``two_threads`` or a pool's workers, and every product has the bits of
one thread.  (OpenBLAS 0.3.31 shuts its threads down at each fork, and a
thread count set after that, even to one, starts them again; each then
busy-waits for a while before it sleeps.)

Results of a pool come back in task order, so what a caller computes from
them does not depend on the worker count.  Workers are forked at the
pool's first task, so they start with the caller's modules, data and
module attributes as they are then, and with its one BLAS thread.
``two_threads`` and ``writer_thread`` start and join their threads inside
the call or scope, so no such thread is alive when a pool forks.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import queue
import threading

import numpy as np
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS before the pin)


# (prefix, suffix) of the thread-count functions of an OpenBLAS: the
# ILP64 scipy-openblas in numpy's wheels, a system OpenBLAS, and the LP64
# scipy-openblas in scipy's wheels
_BLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", ""),
               ("scipy_openblas_", ""))


def _openblas():
    """(set, get) thread-count functions of each loaded OpenBLAS, in the
    order of the libraries' paths; empty where no such library is
    found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split(None, 5)[5].strip() for line in fh
                       if "openblas" in line})
    found = []
    for lib in map(ctypes.CDLL, libs):
        for prefix, suffix in _BLAS_NAMES:
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


# the pin: every loaded OpenBLAS at one thread, set once, before any fork
for _setter, _ in _openblas():
    _setter(1)


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


# Calls a writer_thread holds queued; each is a 64-image block of about
# 1 MB at 64x64 in runner._write_blocks, so peak memory stays small
_QUEUED_WRITES = 4


@contextlib.contextmanager
def writer_thread(write):
    """Yields put(*args), which queues write(*args) for one thread started
    here while the caller goes on; the thread makes the calls in put order,
    and put blocks while _QUEUED_WRITES calls wait.  The thread is joined
    before the scope is left, however it is left.  Once write raises, or the
    scope does, the calls still queued are dropped; write's exception is
    raised again in the caller, at its next put or at the scope's end.  The
    thread drains the queue until the scope ends, so a put never waits on a
    dead thread."""
    pending = queue.Queue(_QUEUED_WRITES)
    errors = []

    def drain():
        while (args := pending.get()) is not None:
            if not errors:
                try:
                    write(*args)
                except BaseException as exc:  # raised again in the caller
                    errors.append(exc)

    def put(*args):
        if errors:
            raise errors[0]
        pending.put(args)

    thread = threading.Thread(target=drain)
    thread.start()
    try:
        yield put
    except BaseException as exc:
        errors.append(exc)  # the thread drops the calls still queued
        raise
    finally:
        pending.put(None)
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
    """Yields a map for a call of ``tasks`` tasks.

    With one task, or one usable CPU, the map is the builtin, run in this
    process.  Otherwise it is the map of a pool of min(tasks, usable CPUs)
    workers, forked at the pool's first task.  Consume the map inside the
    scope.
    """
    cpus = len(os.sched_getaffinity(0))
    if tasks < 2 or cpus < 2:
        yield map
        return
    # imported here, so that a process that forks no worker does not load
    # the pool machinery (1.4 MB of peak RSS)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(min(tasks, cpus), get_context("fork")) as pool:
        yield pool.map
