"""Central finite differences used wherever analytic partials are absent."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteDerivativeError

# Cube root of machine epsilon balances truncation against round-off for
# central differences; scaled per coordinate by (1 + |value|).
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
# The fourth root balances them for second differences, whose round-off
# grows as 1/h^2.
FD2_STEP = float(np.finfo(float).eps) ** (1.0 / 4.0)


def _step(value: float) -> float:
    return FD_STEP * (1.0 + abs(value))


def central_scalar(fn: Callable[[float], float], x: float,
                   step: Optional[float] = None) -> float:
    h = _step(x) if step is None else step
    lo, hi = fn(x - h), fn(x + h)
    out = (hi - lo) / (2.0 * h)
    if not np.isfinite(out):
        raise NonFiniteDerivativeError(f"non-finite derivative probe at {x}")
    return out


def gradient(fn: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Gradient of a scalar function of a vector, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        h = _step(x.flat[i])
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        out.flat[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise NonFiniteDerivativeError("non-finite gradient probe")
    return out


def jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             out_dim: int) -> np.ndarray:
    """Jacobian (out_dim, len(x)) of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty((out_dim, x.size))
    for i in range(x.size):
        h = _step(x.flat[i])
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        out[:, i] = (np.asarray(fn(xp), float).reshape(out_dim)
                     - np.asarray(fn(xm), float).reshape(out_dim)) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise NonFiniteDerivativeError("non-finite Jacobian probe")
    return out


def hessian(fn: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Symmetric finite-difference Hessian; coarse but enough for sign checks."""
    x = np.asarray(x, dtype=float)
    k = x.size
    out = np.empty((k, k))
    hs = FD2_STEP * (1.0 + np.abs(x.ravel()))
    f0 = fn(x)
    for i in range(k):
        xp = x.copy(); xp.flat[i] += hs[i]
        xm = x.copy(); xm.flat[i] -= hs[i]
        out[i, i] = (fn(xp) - 2.0 * f0 + fn(xm)) / hs[i] ** 2
        for j in range(i + 1, k):
            xpp = x.copy(); xpp.flat[i] += hs[i]; xpp.flat[j] += hs[j]
            xpm = x.copy(); xpm.flat[i] += hs[i]; xpm.flat[j] -= hs[j]
            xmp = x.copy(); xmp.flat[i] -= hs[i]; xmp.flat[j] += hs[j]
            xmm = x.copy(); xmm.flat[i] -= hs[i]; xmm.flat[j] -= hs[j]
            out[i, j] = out[j, i] = (
                fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * hs[i] * hs[j])
    if not np.all(np.isfinite(out)):
        raise NonFiniteDerivativeError("non-finite Hessian probe")
    return out


# -- slot partials of five-argument problem functions -------------------------

def _slot_probe(fn: Callable, slot: int, args: tuple):
    """fn(t, x, y, u, v) as a function of the vector in ``slot`` alone, and
    that vector."""
    base = [np.asarray(a, dtype=float) if i > 0 else float(a)
            for i, a in enumerate(args)]

    def probe(vec):
        call = list(base)
        call[slot] = vec
        return fn(*call)

    return probe, base[slot]


def partial_vec_slot(fn: Callable, slot: int, args: tuple, out_dim: int) -> np.ndarray:
    """Jacobian of fn(t, x, y, u, v) w.r.t. the vector argument in ``slot``."""
    probe, at = _slot_probe(fn, slot, args)
    return jacobian(probe, at, out_dim)


def grad_scalar_slot(fn: Callable, slot: int, args: tuple) -> np.ndarray:
    """Gradient of scalar fn(t, x, y, u, v) w.r.t. the vector in ``slot``."""
    probe, at = _slot_probe(fn, slot, args)
    return gradient(lambda vec: float(probe(vec)), at)
