"""The second core: two threads for numpy kernels, forked pools of
worker processes for Python (Linux only).

One rule decides which a stage uses.  A numpy kernel that releases the
interpreter lock and writes disjoint parts of one output runs on two
threads in this process through ``two_threads``: the Laplacian log-LRs
(``observers.laplacian_io_log_lrs_batch``), the scanning Hotelling
products (``observers.scanning_ho_records``) and the clustered-lumpy blobs
(``imaging.render_clb_image``).  A file written in blocks, each drawn from
its own substream with noise draws that release the lock, goes through
``ordered_blocks``: the blocks of a split or store are drawn on the
threads of an executor, two given two CPUs and two blocks, each taking
the next block as soon as it is free, and appended whole, in block
order, on the caller's thread, which hashes them as it writes
(``runner._write_blocks``).  Work that holds the lock, in Python, goes
to forked workers through ``task_map``: the MCMC chains, the network's
micro-batches and each observer's report (``runner.run_observers``).
All three are built on ``concurrent.futures``.

Importing this module sets every loaded OpenBLAS to one thread, once,
before anything can fork, and nothing sets it again.  So BLAS never takes
the second core: no BLAS thread spins beside ``two_threads`` or a pool's
workers, and every product has the bits of one thread.  (OpenBLAS 0.3.31
shuts its threads down at each fork, and a thread count set after that,
even to one, starts them again; each then busy-waits for a while before
it sleeps.)

Results of a pool come back in task order, so what a caller computes from
them does not depend on the worker count.  Workers are forked at the
pool's first task, so they start with the caller's modules, data and
module attributes as they are then, and with its one BLAS thread.
``two_threads`` and ``ordered_blocks`` open and shut their executors
inside the call, joining every thread, so no such thread is alive when a
pool forks.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np


# (prefix, suffix) of the thread-count functions of an OpenBLAS: the
# ILP64 build in numpy's wheels, a system OpenBLAS, and the LP64 build
# that a module imported before this one may have loaded
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
    multiple of step, the second half on the one thread of an executor
    opened here; ``fn(0, n)`` alone when the cut leaves a half empty or
    fewer than 2 CPUs are usable.  fn must write disjoint parts of its
    output for disjoint ranges.  The thread is joined before the call
    returns or raises; if both halves raise, the first half's error is the
    one raised.  Opening the executor and starting and joining its thread
    cost about 80 us on a 2-core x86_64 VM, so a half should be far more
    work than that: a stack, not an image."""
    mid = -(-n // (2 * step)) * step
    if mid >= n or len(os.sched_getaffinity(0)) < 2:
        fn(0, n)
        return
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(fn, mid, n)
        fn(0, mid)
        second.result()


# Blocks that ordered_blocks holds submitted but not yet written; each is a
# 64-image block of about 1 MB at 64x64 in runner._write_blocks, so peak
# memory stays small
_IN_FLIGHT = 6


def ordered_blocks(draw, n, write):
    """Call write(b, draw(b)) for b in range(n).  The draws run on an
    executor opened here, with 2 threads given at least 2 usable CPUs and 2
    blocks, and 1 otherwise; the writes run on this thread, in block
    order.  At most _IN_FLIGHT blocks are submitted but not yet written.
    A failing draw is raised when this thread reaches its block.  Once a
    draw or a write raises, an interrupt of this thread included, no block
    is written after it: the draws not yet started are cancelled, those
    under way finish, and every thread is joined before the exception is
    raised here.  A call that returns has joined its threads too."""
    drawers = 2 if n >= 2 and len(os.sched_getaffinity(0)) >= 2 else 1
    with ThreadPoolExecutor(drawers) as pool:
        pending = deque(pool.submit(draw, b)
                        for b in range(min(n, _IN_FLIGHT)))
        try:
            for b in range(n):
                write(b, pending.popleft().result())
                if b + _IN_FLIGHT < n:
                    pending.append(pool.submit(draw, b + _IN_FLIGHT))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
