"""The OpenBLAS that numpy loaded, reached through ctypes.

Every command runs on one thread: the training matmuls are tiny, the
inference ones and the set distances gain little from a second thread,
and an idle OpenBLAS thread spins on a core. One thread also makes the
outputs the same on any machine: the last bits of a matrix product depend
on the thread count, so the ROC files and the distance tables would
otherwise depend on the core count. numpy's wheels bundle
OpenBLAS with prefixed symbol names (``scipy_openblas_set_num_threads64_``);
a system OpenBLAS has the plain ``openblas_`` ones. Where numpy uses
another BLAS, pinning does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np


class OpenBlas(NamedTuple):
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    config: str | None


@functools.cache
def openblas() -> OpenBlas | None:
    """The thread controls of the OpenBLAS mapped into this process, or None."""
    try:
        with open("/proc/self/maps") as maps:
            path = next((line.split()[-1] for line in maps if "openblas" in line), None)
    except OSError:
        return None
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            config = None
            if get_config is not None:
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                config = get_config().decode()
            return OpenBlas(get, set_, config)
    return None


@contextmanager
def single_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count."""
    lib = openblas()
    if lib is None:
        yield
        return
    previous = lib.get_num_threads()
    lib.set_num_threads(1)
    try:
        yield
    finally:
        lib.set_num_threads(previous)


def environment() -> dict:
    """numpy and BLAS versions, the BLAS thread count training runs at (read
    back inside ``single_thread``; None without OpenBLAS), the CPU count."""
    lib = openblas()
    config = threads = None
    if lib is not None:
        config = lib.config
        with single_thread():
            threads = lib.get_num_threads()
    return {"numpy": np.__version__, "blas": config, "training_blas_threads": threads,
            "cpu_count": os.cpu_count()}
