"""A benchmark-local NumPy backend that counts computed bytes.

Every call through the backend's array namespace is forwarded to NumPy
unchanged; the ``nbytes`` of whatever arrays the call returns are summed.
The figure is *computed* from array sizes — it is the volume the kernels
write, not a measurement of memory traffic, and it ignores caches.
Dispatch and allocation counts come from the program's own counting
backend: ``"profile:bench-bytes"`` (or ``run_simulation(profile=True,
backend="bench-bytes")``) wraps this backend in it, so one run yields all
three counts. Wrapping does not change any result.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from repro import register_backend, resolve_backend
from repro.backend import ArrayBackend, BackendCapabilities, registered_backends

#: Registry name of the byte-counting backend.
BYTES_BACKEND = "bench-bytes"
#: Dispatches, allocations and bytes counted at once.
COUNTED_BACKEND = f"profile:{BYTES_BACKEND}"


class _Tally:
    __slots__ = ("nbytes",)

    def __init__(self) -> None:
        self.nbytes = 0

    def add(self, out) -> None:
        if isinstance(out, (np.ndarray, np.generic)):
            self.nbytes += int(out.nbytes)
        elif isinstance(out, (tuple, list)):
            for item in out:
                if isinstance(item, (np.ndarray, np.generic)):
                    self.nbytes += int(item.nbytes)


class _BytesCallable:
    __slots__ = ("_func", "_tally")

    def __init__(self, func, tally: _Tally) -> None:
        self._func = func
        self._tally = tally

    def __call__(self, *args, **kwargs):
        out = self._func(*args, **kwargs)
        self._tally.add(out)
        return out

    def __getattr__(self, name: str):
        # ufunc methods (``xp.add.at``) are dispatches of their own.
        attr = getattr(self._func, name)
        if callable(attr) and not isinstance(attr, type):
            return _BytesCallable(attr, self._tally)
        return attr


class _BytesNamespace:
    """NumPy namespace proxy; types and constants pass through untouched."""

    def __init__(self, xp, tally: _Tally) -> None:
        self._xp = xp
        self._tally = tally
        self._cache: Dict[str, object] = {}

    def __getattr__(self, name: str):
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        attr = getattr(self._xp, name)
        if callable(attr) and not isinstance(attr, type):
            attr = _BytesCallable(attr, self._tally)
        self._cache[name] = attr
        return attr


class ComputedBytesBackend(ArrayBackend):
    capabilities = BackendCapabilities(name=BYTES_BACKEND, module="numpy", device="cpu")

    def __init__(self) -> None:
        self.tally = _Tally()
        self.xp = _BytesNamespace(np, self.tally)


def bytes_tally() -> _Tally:
    """Register ``bench-bytes`` once; return its running byte count."""
    if BYTES_BACKEND not in registered_backends():
        register_backend(BYTES_BACKEND, ComputedBytesBackend)
    return resolve_backend(BYTES_BACKEND).tally
