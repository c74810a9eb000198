"""One runner, `run_bands`, for the bands of `diff.conv2d`, the query chunks
of `inr.eval_global_batch` and their replay in `diff.backward`, on the cores
BLAS leaves idle.  Callers cut spans from shapes, the per-thread byte budget
and spliced tapes, never the workers."""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

# Byte budget for the temporaries of one span, per thread: each array stays
# below glibc's largest mmap threshold (32 MiB), so the heap can reuse it.
_CHUNK_BYTES = 16 << 20
_RUNNING = threading.local()  # .active: inside run_bands, as its caller or a helper


def _workers() -> int:
    """cores // BLAS threads, read as OpenBLAS does from OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS; 1 when neither is a positive integer, as OpenBLAS
    then uses every core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cores // blas)
    return 1


def _cpu_slices(threads: int) -> tuple[set[int], list[set[int]]]:
    """This thread's CPU set and `threads` disjoint, contiguous slices of it
    (none when the platform cannot pin or has fewer CPUs than threads).
    Unpinned, two threads that hand the GIL back and forth can share one
    core for a whole process."""
    if not hasattr(os, "sched_setaffinity"):
        return set(), []
    own = os.sched_getaffinity(0)
    cpus = sorted(own)
    if len(cpus) < threads:
        return own, []
    return own, [set(cpus[len(cpus) * i // threads:len(cpus) * (i + 1) // threads])
                 for i in range(threads)]


def _set_cpus(cpus: set[int]) -> None:
    """Run the calling thread on `cpus`; placement changes no result, so a refusal is ignored."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


@functools.cache
def _keep_heap_pages() -> None:
    """Free one budget-sized mapped block, once per process: glibc then raises
    its mmap threshold (128 KiB at start) to that size and its trim threshold
    to twice it, so span temporaries come from a heap that keeps its pages
    instead of fresh mappings, page-faulted on first touch."""
    np.empty(_CHUNK_BYTES // 8)


def run_bands(spans, fn) -> None:
    """Call fn(a, b) once per span, on this thread and up to _workers() - 1
    helpers on disjoint CPU slices; fn writes its part of a preallocated result.

    After a failure no thread takes a new span, and the first error is raised
    once every helper has joined and this thread has its CPU set back.  On a
    helper, or inside a span, the spans run in order on that thread.
    """
    _keep_heap_pages()
    spans = list(spans)
    threads = min(_workers(), len(spans))
    if threads <= 1 or getattr(_RUNNING, "active", False):
        for a, b in spans:
            fn(a, b)
        return
    todo = iter(spans)
    lock = threading.Lock()
    errors: list[BaseException] = []
    own, slices = _cpu_slices(threads)

    def work(slot: int):
        _RUNNING.active = True
        if slices:
            _set_cpus(slices[slot])
        while not errors:
            with lock:
                span = next(todo, None)
            if span is None:
                return
            try:
                fn(*span)
            except BaseException as e:  # re-raised by the caller once all have joined
                errors.append(e)

    helpers = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(1, threads)]
    for th in helpers:
        th.start()
    try:
        work(0)
    finally:
        _RUNNING.active = False
        for th in helpers:
            th.join()
        if slices:
            _set_cpus(own)
    if errors:
        raise errors[0]
