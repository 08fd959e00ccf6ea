"""Scoped single-thread BLAS sections.

The coarsest-level spectral construction
(:func:`repro.partitioner.initial.spectral_sweep`) runs a dense
symmetric eigensolve on a few hundred vertices at most.  On matrices
that small OpenBLAS's worker threads save nothing, and when several partitioner processes run at once (the ``jobs=N`` process
pool, the serve daemon's workers) their BLAS thread pools oversubscribe
the cores: on a 2-core VM a 144×144 ``numpy.linalg.eigh`` took 2.4 ms
alone but 68 and 256 ms in two processes running it concurrently (2.3 ms
each with one thread).
:func:`single_thread_blas` pins OpenBLAS to one thread for the duration
of a ``with`` block and restores the previous count on exit.

The thread-count entry points are resolved once per process with
``ctypes`` from the OpenBLAS library numpy loaded (found through
``/proc/self/maps`` or numpy's bundled-library directory); builds
prefix and suffix them differently (``openblas_set_num_threads``,
``scipy_openblas_set_num_threads64_``, ...).  When no such library or
symbol exists — another BLAS, another platform — the section is a
no-op.  Inside a section the count is always one, so results do not
depend on the BLAS thread setting the process started with.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

__all__ = ["single_thread_blas"]

_NAMES = [
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]

#: ``(get, set)`` once resolved; ``()`` when this process has no
#: OpenBLAS thread control; ``None`` before the first lookup.
_API: Optional[tuple] = None
_LOCK = threading.Lock()
_depth = 0
_saved = 1


def _library_paths() -> Iterator[str]:
    """Paths of OpenBLAS shared libraries this process (probably) uses."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            mapped = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        mapped = set()
    yield from sorted(p for p in mapped
                      if "openblas" in os.path.basename(p).lower())
    base = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        yield from sorted(glob.glob(os.path.join(base, pattern)))


def _resolve() -> tuple:
    global _API
    if _API is None:
        api: tuple = ()
        for path in _library_paths():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _NAMES:
                get = getattr(lib, get_name, None)
                set_ = getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.restype = ctypes.c_int
                    get.argtypes = []
                    set_.restype = None
                    set_.argtypes = [ctypes.c_int]
                    api = (get, set_)
                    break
            if api:
                break
        _API = api
    return _API


@contextmanager
def single_thread_blas() -> Iterator[None]:
    """Run the ``with`` body with OpenBLAS limited to one thread.

    Nested and concurrent sections (threads of one process) share one
    pinning: the first to enter records the current thread count, the
    last to leave restores it.  A no-op when OpenBLAS thread control is
    unavailable.
    """
    global _depth, _saved
    api = _resolve()
    if not api:
        yield
        return
    get, set_ = api
    with _LOCK:
        if _depth == 0:
            _saved = get()
            if _saved != 1:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _LOCK:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                set_(_saved)
