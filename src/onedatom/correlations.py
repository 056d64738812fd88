"""Second-order correlation functions of the scattered two-photon field.

Detection times map to positions through t = -x/c, so the joint detection
statistics at delay tau probe the amplitude at (x + c tau, x).  Off-node
points are evaluated by bilinear interpolation (error O(dx^2)).

A two-photon state is read only through its `grid` and `rows` (row blocks),
which a `Wavefunction2` and a `propagate.ScatteredState` both offer.  By
exchange symmetry the line (x + c tau, x) is read as psi(x, x + c tau),
along the rows at the anchor x: a curve reads two rows for its amplitude,
plus the rows of its density window when it is normalised by the local
density, and never needs the dense grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, Wavefunction2, _row_density, blocks, grid_weights

__all__ = [
    "CorrelationCurve",
    "second_order_correlation",
    "normalized_g2",
    "g2_slice",
    "find_dip_zeros",
]

ZERO_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CorrelationCurve:
    """Sampled correlation curve over delays tau at a fixed detection
    coordinate."""

    tau: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.tau, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("tau and values must be matching 1D arrays")
        object.__setattr__(self, "tau", t)
        object.__setattr__(self, "values", v)


def _interp2(psi2: Wavefunction2, x1, x2) -> np.ndarray:
    """Bilinear interpolation of the two-photon amplitude; points outside the
    grid are rejected.  The corners at x2's nodes j and j + 1 are entries i
    and i + 1 of rows j and j + 1, psi(x1, x2) = psi(x2, x1), read in row
    blocks over each run of consecutive rows needed: two rows for a scalar
    x2, at most two per distinct j."""
    pts = psi2.grid.points
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    if np.any(x1 < pts[0]) or np.any(x1 > pts[-1]) \
            or np.any(x2 < pts[0]) or np.any(x2 > pts[-1]):
        raise ValueError("evaluation point outside the wavefunction grid")
    n = len(pts)
    i = np.clip(np.searchsorted(pts, x1, side="right") - 1, 0, n - 2)
    j = np.clip(np.searchsorted(pts, x2, side="right") - 1, 0, n - 2)
    u = (x1 - pts[i]) / (pts[i + 1] - pts[i])
    v = (x2 - pts[j]) / (pts[j + 1] - pts[j])
    # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1), one per point
    corners = np.empty((4, j.size), dtype=complex)
    i, j = i.ravel(), j.ravel()
    needed = np.zeros(n, dtype=np.int8)
    needed[j] = needed[j + 1] = 1
    # the runs of consecutive needed rows, from where the mask rises to where it falls
    edges = np.flatnonzero(np.diff(needed, prepend=0, append=0))
    for run0, run1 in zip(edges[::2], edges[1::2]):
        for r0, r1 in blocks(int(run0), int(run1), n):
            block = psi2.rows(r0, r1)
            for d in (0, 1):
                sel = (j + d >= r0) & (j + d < r1)
                row, col = j[sel] + (d - r0), i[sel]
                corners[2 * d, sel] = block[row, col]
                corners[2 * d + 1, sel] = block[row, col + 1]
            del block                   # freed before the next block is read
    a00, a10, a01, a11 = corners.reshape((4,) + u.shape)
    return ((1 - u) * (1 - v) * a00 + u * (1 - v) * a10
            + (1 - u) * v * a01 + u * v * a11)


def second_order_correlation(psi2: Wavefunction2, x: float, tau,
                             params: PhysicalParams):
    """Joint detection probability density G2(t, t+tau) = 2 c^2
    |psi(x + c tau, x)|^2 at detection coordinate x (t = -x/c).  Both photon
    orderings contribute equally by bosonic symmetry."""
    tau = np.asarray(tau, dtype=float)
    amp = _interp2(psi2, x + params.c * tau, x)
    out = 2.0 * params.c ** 2 * np.abs(amp) ** 2
    return float(out) if out.ndim == 0 else out


def _density_window(pts: np.ndarray, x: np.ndarray) -> tuple[int, int]:
    """The grid rows lo:hi whose cells bracket every point of x, which must
    be finite, inside the grid and not empty."""
    lo = int(np.searchsorted(pts, np.min(x), side="right")) - 1
    hi = int(np.searchsorted(pts, np.max(x), side="left")) + 1
    return lo, hi


def marginal_density(psi2: Wavefunction2, x, params: PhysicalParams):
    """Single-photon detection probability density per unit time at
    coordinate x: 2c * integral |psi(x, y)|^2 dy, read in row blocks, only
    over the rows whose cells hold x."""
    x = np.asarray(x, dtype=float)
    pts = psi2.grid.points
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point is not finite")
    if np.any(x < pts[0]) or np.any(x > pts[-1]):
        raise ValueError("evaluation point outside the wavefunction grid")
    if x.size == 0:
        return 2.0 * params.c * x
    lo, hi = _density_window(pts, x)
    # np.interp reads only the two nodes around each point, all in lo:hi
    rho = np.interp(x, pts[lo:hi], _row_density(psi2, grid_weights(psi2.grid), lo, hi))
    out = 2.0 * params.c * rho
    return float(out) if out.ndim == 0 else out


def normalized_g2(psi2: Wavefunction2, x: float, tau, length: float | None,
                  params: PhysicalParams):
    """Normalized second-order correlation.

    With a pulse length L, G2 is divided by the squared long-pulse average
    density 2c/L, giving (L^2/2)|psi(x+c tau, x)|^2.  With length=None it is
    divided by the actual single-photon densities at the two detection
    coordinates (for anchors outside the plateau); g2 is nan where their
    product is 0, beyond the pulse's reach or where it underflows.
    """
    if length is not None and not (length > 0 and math.isfinite(length)):
        raise ValueError(f"pulse length must be positive, got {length}")
    g2 = second_order_correlation(psi2, x, tau, params)
    if length is not None:
        return g2 / (2.0 * params.c / length) ** 2
    tau = np.asarray(tau, dtype=float)
    # one pass over the rows for both coordinates; the anchor's density last
    rho = marginal_density(psi2, np.append(x + params.c * tau, x), params)
    density = rho[:-1].reshape(tau.shape) * rho[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(density > 0, g2 / density, np.nan)
    return float(out) if np.ndim(out) == 0 else out


def g2_slice(psi2: Wavefunction2, x_anchor: float, tau_range: tuple[float, float],
             n_samples: int, length: float | None,
             params: PhysicalParams) -> CorrelationCurve:
    """Uniformly sampled normalized g2 curve at a fixed anchor coordinate."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    tau = np.linspace(tau_range[0], tau_range[1], n_samples)
    vals = normalized_g2(psi2, x_anchor, tau, length, params)
    return CorrelationCurve(tau=tau, values=np.asarray(vals, dtype=float))


def find_dip_zeros(curve: CorrelationCurve) -> list[float]:
    """Delays where the curve touches zero: local minima below
    1e-6 * max(curve), refined by parabolic interpolation.  The peak is taken
    over the finite values, and a sample that is nan or has a nan neighbour
    (g2 undefined there) is never a minimum.

    The curve must be sampled finely enough to resolve the sign structure of
    the underlying amplitude (spacing <= 0.01/gamma for the double-dip
    feature).
    """
    v = curve.values
    if len(v) == 0:
        raise ValueError("empty correlation curve")
    finite = v[np.isfinite(v)]
    peak = float(np.max(finite)) if len(finite) else 0.0
    if peak <= 0.0:
        return []
    threshold = ZERO_THRESHOLD * peak
    zeros: list[float] = []
    for i in range(1, len(v) - 1):
        # every comparison with a nan is False, so a nan sample or neighbour fails
        if not (v[i] <= v[i - 1] and v[i] <= v[i + 1] and v[i] < threshold):
            continue
        if v[i] == v[i - 1]:        # plateau of equal minima: keep one edge
            continue
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        if denom > 0:
            shift = 0.5 * (v[i - 1] - v[i + 1]) / denom
            h = curve.tau[i + 1] - curve.tau[i]
            zeros.append(float(curve.tau[i] + shift * h))
        else:
            zeros.append(float(curve.tau[i]))
    return zeros
