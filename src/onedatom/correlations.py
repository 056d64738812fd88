"""Second-order correlation functions of the scattered two-photon field.

Detection times map to positions through t = -x/c, so the joint detection
statistics at delay tau probe the amplitude at (x + c tau, x).  Off-node
points are evaluated by bilinear interpolation (error O(dx^2)).

A two-photon state is read only through its `grid` and `rows` (row blocks),
which a `Wavefunction2` and a `propagate.ScatteredState` both offer.  By
exchange symmetry the line (x + c tau, x) is read as psi(x, x + c tau),
along the rows at the anchor x: a curve reads the two rows around its anchor
for its amplitude, plus the rows of its density window when it is normalised
by the local density, and never needs the dense grid.  A zero of a sampled
curve is a minimum whose parabola through it and its two neighbours dips
below a millionth of the peak, so it needs no sample that close to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, Wavefunction2, _row_density, grid_weights

__all__ = ["CorrelationCurve", "g2_slice", "find_dip_zeros"]

ZERO_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CorrelationCurve:
    """Sampled correlation curve over delays tau at a fixed detection
    coordinate, with the number of grid rows its local density read (0 for
    the long-pulse normalisation)."""

    tau: np.ndarray
    values: np.ndarray
    density_rows: int = 0

    def __post_init__(self) -> None:
        t = np.asarray(self.tau, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("tau and values must be matching 1D arrays")
        object.__setattr__(self, "tau", t)
        object.__setattr__(self, "values", v)


def _interp2(psi2: Wavefunction2, x1: np.ndarray, x2: float) -> np.ndarray:
    """Bilinear interpolation of the two-photon amplitude at (x1, x2) for a
    scalar x2; every point must lie inside the grid.  The corners at x2's
    nodes j and j + 1 are entries i and i + 1 of rows j and j + 1,
    psi(x1, x2) = psi(x2, x1), read in one call."""
    pts = psi2.grid.points
    n = len(pts)
    i = np.clip(np.searchsorted(pts, x1, side="right") - 1, 0, n - 2)
    j = min(max(int(np.searchsorted(pts, x2, side="right")) - 1, 0), n - 2)
    u = (x1 - pts[i]) / (pts[i + 1] - pts[i])
    v = (x2 - pts[j]) / (pts[j + 1] - pts[j])
    (a00, a10), (a01, a11) = (row[[i, i + 1]] for row in psi2.rows(j, j + 2))
    return ((1 - u) * (1 - v) * a00 + u * (1 - v) * a10
            + (1 - u) * v * a01 + u * v * a11)


def g2_slice(psi2: Wavefunction2, x_anchor: float, tau_range: tuple[float, float],
             n_samples: int, length: float | None,
             params: PhysicalParams) -> CorrelationCurve:
    """Normalized g2 at a fixed anchor coordinate x, sampled uniformly in tau.

    The joint detection density G2(t, t+tau) = 2 c^2 |psi(x + c tau, x)|^2
    (t = -x/c; both photon orderings contribute equally by bosonic symmetry).
    With a pulse length L it is divided by the squared long-pulse average
    density 2c/L, giving (L^2/2)|psi(x+c tau, x)|^2.  With length=None it is
    divided by the single-photon densities 2c * integral |psi(x', y)|^2 dy
    at the two detection coordinates, read only over the rows whose cells
    hold them (for anchors outside the plateau); g2 is nan where their
    product is 0, beyond the pulse's reach or where it underflows.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if length is not None and not (length > 0 and math.isfinite(length)):
        raise ValueError(f"pulse length must be positive, got {length}")
    c, pts = params.c, psi2.grid.points
    tau = np.linspace(tau_range[0], tau_range[1], n_samples)
    # the partner coordinates, then the anchor last
    x = np.append(x_anchor + c * tau, x_anchor)
    x_lo, x_hi = np.min(x), np.max(x)
    if not pts[0] <= x_lo <= x_hi <= pts[-1]:          # a nan fails every comparison
        raise ValueError(
            f"x + c*tau over tau in [{tau_range[0]}, {tau_range[1]}] at x = {x_anchor} spans "
            f"[{x_lo:.6g}, {x_hi:.6g}]: not finite or outside the output grid "
            f"[{pts[0]:.6g}, {pts[-1]:.6g}]")
    g2 = 2.0 * c ** 2 * np.abs(_interp2(psi2, x[:-1], x_anchor)) ** 2
    if length is not None:
        scale = 2.0 * c / length
        if not 0.0 < scale * scale < math.inf:      # neither overflows nor underflows to 0
            raise ValueError(f"the g2 normaliser (2c/L)^2 is 0 or inf at c={c}, L={length}")
        return CorrelationCurve(tau, g2 / scale ** 2)
    # the rows lo:hi whose cells bracket every point; np.interp reads only
    # the two nodes around each point, all in lo:hi
    lo = int(np.searchsorted(pts, x_lo, side="right")) - 1
    hi = int(np.searchsorted(pts, x_hi, side="left")) + 1
    rho = 2.0 * c * np.interp(x, pts[lo:hi],
                              _row_density(psi2, grid_weights(psi2.grid), lo, hi))
    density = rho[:-1] * rho[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(density > 0, g2 / density, np.nan)
    return CorrelationCurve(tau, values, density_rows=hi - lo)


def find_dip_zeros(curve: CorrelationCurve) -> list[float]:
    """Delays where the curve touches zero: local minima where the parabola
    through the minimum and its two neighbours dips below 1e-6 * max(curve),
    placed at that parabola's vertex.  The peak is taken over the finite
    values, and a sample that is nan or has a nan neighbour (g2 undefined
    there) is never a minimum.
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
        a, b, c = v[i - 1:i + 2]
        # every comparison with a nan is False, so a nan sample or neighbour
        # fails; of a plateau of equal minima only its first sample is kept
        if not (b <= a and b <= c) or b == a:
            continue
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom > 0 else 0.0
        if b - 0.25 * (a - c) * shift < threshold:     # the parabola's lowest value
            zeros.append(float(curve.tau[i] + shift * (curve.tau[i + 1] - curve.tau[i])))
    return zeros
