"""Kernel backend selection.

The exact-cover enumeration (``enumerate_covers``) exists twice: a
compiled Cython extension (``oddcross._speedups``) and a pure-Python twin
(``oddcross._kernels_py``) with identical semantics. The compiled backend
is used when importable; set ``ODDCROSS_PURE=1`` to force the pure backend.
``benchmarks/`` compares the two. Identity classification is not a kernel:
it is decided in ``oddcross.verify`` by the Plücker criterion.
"""

import os

from . import _kernels_py

try:
    from . import _speedups
except ImportError:
    _speedups = None

if os.environ.get("ODDCROSS_PURE"):
    _active = _kernels_py
elif _speedups is not None:
    _active = _speedups
else:
    _active = _kernels_py

BACKEND = _active.BACKEND_NAME


def active_backend():
    return _active


def backend_for(pair_count: int):
    """Active backend, unless the pair count exceeds its mask width."""
    max_bits = _active.MAX_PAIR_BITS
    if max_bits is not None and pair_count > max_bits:
        return _kernels_py
    return _active


def get_backend(name: str):
    """Fetch a backend by name ("pure-python" or "compiled"); for tests and benchmarks."""
    if name == _kernels_py.BACKEND_NAME:
        return _kernels_py
    if _speedups is not None and name == _speedups.BACKEND_NAME:
        return _speedups
    raise KeyError(f"backend {name!r} not available")


def available_backends():
    names = [_kernels_py.BACKEND_NAME]
    if _speedups is not None:
        names.append(_speedups.BACKEND_NAME)
    return names
