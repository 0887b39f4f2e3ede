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
    """Gradient of a scalar function of a vector: its one-row Jacobian."""
    x = np.asarray(x, dtype=float)
    return jacobian(fn, x, 1).reshape(x.shape)


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


def hessians(fn: Callable[[np.ndarray], np.ndarray], X: np.ndarray) -> np.ndarray:
    """The Hessian at each row of X, (P, k, k): central second differences
    with steps FD2_STEP (1 + |x_i|), every probe of every row in one call of
    ``fn`` on rows, (M, k) -> (M,).  The probes of a row are x, x +- h_i e_i
    for each i, then x +- h_i e_i +- h_j e_j for each pair i < j."""
    X = np.asarray(X, dtype=float)
    P, k = X.shape
    hs, E, pm, (I, J) = FD2_STEP * (1.0 + np.abs(X)), np.eye(k), (1.0, -1.0), np.triu_indices(k, 1)
    steps = np.array([np.zeros(k)] + [s * E[i] for i in range(k) for s in pm]
                     + [si * E[i] + sj * E[j] for i, j in zip(I, J) for si in pm for sj in pm])
    probes = np.where(steps == 0.0, X[:, None], X[:, None] + steps * hs[:, None])
    F = np.asarray(fn(probes.reshape(-1, k)), dtype=float).reshape(P, len(steps))
    d, c = 1 + 2 * np.arange(k), 1 + 2 * k + 4 * np.arange(len(I))
    out = np.empty((P, k, k))
    with np.errstate(all="ignore"):
        # float_power is libm pow, as a float64 scalar's ** 2 (not x * x)
        out[:, range(k), range(k)] = ((F[:, d] - 2.0 * F[:, :1] + F[:, d + 1])
                                      / np.float_power(hs, 2))
        out[:, I, J] = out[:, J, I] = ((F[:, c] - F[:, c + 1] - F[:, c + 2] + F[:, c + 3])
                                       / (4.0 * hs[:, I] * hs[:, J]))
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
