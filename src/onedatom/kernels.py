"""Closed-form scattering kernels in the moving frame.

The one-photon kernel is an identity (delta) part plus a smooth
absorption-reemission part; the two-photon kernel is the product of two
one-photon kernels plus a nonlinear correction that removes the forbidden
simultaneous double absorption at a two-level atom.

The delta parts are never evaluated numerically here; the propagation module
applies them as copy terms.
"""

from __future__ import annotations

import numpy as np

from .model import PhysicalParams

__all__ = ["eval_abs_kernel", "eval_nonlin_kernel"]


def _as_finite(*arrays):
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("kernel arguments must be finite")
        out.append(a)
    return out


def eval_abs_kernel(x, xp, params: PhysicalParams):
    """Absorption-reemission amplitude -(2 gamma/c) exp(-(gamma/c)(x'-x)) for
    x <= x', zero for x > x' (the boundary x = x' takes the inside limit
    -2 gamma/c).  Accepts scalars or broadcastable arrays."""
    x, xp = _as_finite(x, xp)
    k = params.gamma_over_c
    d = np.subtract(xp, x)
    out = np.zeros(np.broadcast(x, xp).shape)
    mask = d >= 0
    out[mask] = -(2.0 * k) * np.exp(-k * d[mask])
    return float(out) if out.ndim == 0 else out


def eval_nonlin_kernel(x1, x2, x1p, x2p, params: PhysicalParams):
    """Nonlinear two-photon kernel
    -(4 gamma^2/c^2) exp(-(gamma/c)(x1'+x2'-x1-x2)) on the open domain
    x1, x2 < min(x1', x2'), zero elsewhere (equality maps to zero)."""
    x1, x2, x1p, x2p = _as_finite(x1, x2, x1p, x2p)
    k = params.gamma_over_c
    m = np.minimum(x1p, x2p)
    mask = (x1 < m) & (x2 < m)
    shape = np.broadcast(x1, x2, x1p, x2p).shape
    out = np.zeros(shape)
    if np.any(mask):
        expo = np.add(x1p, x2p) - np.add(x1, x2)
        out[mask] = -(4.0 * k * k) * np.exp(-k * np.broadcast_to(expo, shape)[mask])
    if out.ndim == 0:
        return float(out)
    return out

