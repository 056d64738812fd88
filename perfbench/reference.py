"""Closed forms the benchmark checks the program's outputs against.

Nothing here imports `onedatom`: the formulas are written out from the
package's documented physics, so a defect in the program cannot hide in its
own reference.  Units are gamma = c = 1 (the CLI defaults every workload
uses), so the reemission decay rate is K = gamma/c = 1.

The scattering map in these units:
  one photon   phi_out(x) = phi(x) - 2 K T(x),  T(x) = int_x^inf e^{-K(u-x)} phi(u) du
  two photons  psi_out = (phi_out x phi_out)                       [linear part]
               - 4 K^2 e^{-K(M-x1)} e^{-K(M-x2)} T(M)^2,  M = max(x1, x2)
For a sum of products a x b the tails enter bilinearly (T_a T_b), which is how
the non-factored inputs get their reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfcx

K = 1.0
PLATEAU_ZERO = 2.0 * math.log(2.0) / K


# ---------------------------------------------------------------------------
# rectangular pulse on [0, L]
# ---------------------------------------------------------------------------

def rect_phi_out(x, length):
    """One-photon output of the unit rectangle on [0, length]."""
    x = np.asarray(x, dtype=float)
    root = math.sqrt(length)
    inside = (2.0 * np.exp(-K * (length - np.minimum(x, length))) - 1.0) / root
    before = (2.0 / root) * (np.exp(-K * (length - x)) - np.exp(K * np.minimum(x, 0.0)))
    return np.where(x < 0, before, np.where(x <= length, inside, 0.0))


def rect_nonlin(x1, x2, length):
    """Nonlinear two-photon correction for the rectangle (zero beyond L)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    m = np.maximum(0.0, np.maximum(x1, x2))
    tail = 1.0 - np.exp(-K * (length - np.minimum(m, length)))
    val = -(4.0 / length) * np.exp(-K * (m - x1)) * np.exp(-K * (m - x2)) * tail ** 2
    return np.where((x1 <= length) & (x2 <= length), val, 0.0)


def rect_psi(x1, x2, length):
    return rect_phi_out(x1, length) * rect_phi_out(x2, length) + rect_nonlin(x1, x2, length)


def rect_processes(x1, x2, length):
    """(p_i, p_ii, p_iii) on the transmitted window 0 <= x_i <= L: both photons
    pass, one is reemitted, both are reemitted (p_iii carries the nonlinear
    part)."""
    a1 = np.exp(-K * (length - np.asarray(x1, dtype=float)))
    a2 = np.exp(-K * (length - np.asarray(x2, dtype=float)))
    p_i = np.full(np.broadcast(a1, a2).shape, 1.0 / length)
    p_ii = (2.0 / length) * ((a1 - 1.0) + (a2 - 1.0))
    p_iii = (4.0 / length) * (a1 - 1.0) * (a2 - 1.0) + rect_nonlin(x1, x2, length)
    return p_i, p_ii, p_iii


def _left_cells(cells: int, length: float, x_min: float) -> int:
    """Cells of a grid on [x_min, L] that fall on [x_min, 0], in proportion to
    the segment lengths."""
    return int(round(-x_min * cells / (length - x_min)))


def aligned_rect_grid(length_target: float, n_target: int, x_min: float):
    """A uniform grid on [x_min, L] with both pulse edges 0 and L on nodes.

    Picks the cell counts a (on [x_min, 0]) and b (on [0, L]) with a + b =
    n_target - 1 and sets L = |x_min| b / a, so the spacing is |x_min|/a on
    both segments.  Returns (L, n)."""
    cells = n_target - 1
    a = _left_cells(cells, length_target, x_min)
    return -x_min * (cells - a) / a, n_target


def rect_grid_points(length: float, n: int, x_min: float) -> np.ndarray:
    """Nodes of the grid `aligned_rect_grid` describes.  The program builds
    the same nodes from (x_min, L, n) with breakpoints (0, L); the reference
    needs them for the exact bilinear interpolant."""
    cells = n - 1
    a = _left_cells(cells, length, x_min)
    return np.concatenate([np.linspace(x_min, 0.0, a + 1),
                           np.linspace(0.0, length, cells - a + 1)[1:]])


def rect_dip_zeros(anchor: float, tau_lo: float, tau_hi: float, length: float):
    """All sign changes of psi(anchor + tau, anchor) on [tau_lo, tau_hi],
    root-found with Brent's method on the closed form, and the two of them
    that are the plateau dips (nearest -2 ln 2 and +2 ln 2)."""
    def f(t):
        return float(rect_psi(anchor + t, anchor, length))

    tau = np.linspace(tau_lo, tau_hi, 20001)
    vals = rect_psi(anchor + tau, anchor, length)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(brentq(f, tau[i], tau[i + 1], xtol=1e-14))
    roots = np.array(roots)
    plateau = [float(roots[np.argmin(np.abs(roots - s * PLATEAU_ZERO))])
               for s in (-1.0, 1.0)]
    return roots, plateau


# ---------------------------------------------------------------------------
# Gaussians a(u) = amp exp(-alpha (u - center)^2), alpha complex with Re > 0
# ---------------------------------------------------------------------------

def gaussian(u, center, alpha, amp):
    u = np.asarray(u, dtype=float)
    return amp * np.exp(-alpha * (u - center) ** 2)


def gaussian_tail(x, center, alpha, amp):
    """T(x) = int_x^inf e^{-K(u-x)} amp e^{-alpha (u-center)^2} du in closed
    form: completing the square leaves a shifted Gaussian tail, i.e. an erfc,
    which erfcx evaluates without overflow,
        T = amp (sqrt(pi) / (2 sqrt(alpha))) e^{-alpha d^2}
            erfcx(sqrt(alpha) d + K / (2 sqrt(alpha))),  d = x - center."""
    d = np.asarray(x, dtype=float) - center
    sa = np.sqrt(complex(alpha))
    return amp * (0.5 * math.sqrt(math.pi) / sa) * np.exp(-alpha * d * d) \
        * erfcx(sa * d + K / (2.0 * sa))


def unit_gaussian(center, width, chirp=0.0):
    """(center, alpha, amp) of the unit-norm Gaussian with |a|^2 of standard
    deviation `width` and quadratic phase chirp*(u-center)^2."""
    alpha = 1.0 / (4.0 * width * width) - 1j * chirp
    amp = (2.0 * math.pi * width * width) ** -0.25
    return center, alpha, amp


def gaussian_overlap(w_a, w_b, separation):
    """<a, b> of two real unit Gaussians of widths w_a, w_b."""
    s2 = w_a * w_a + w_b * w_b
    return math.sqrt(2.0 * w_a * w_b / s2) * math.exp(-separation ** 2 / (4.0 * s2))


def sum_of_products_out(points, terms):
    """Exact output on the grid `points` (n x n) for the two-photon input
    sum_j c_j (a_j x b_j); each term is (c_j, a_j, b_j) with a Gaussian given
    as (center, alpha, amp)."""
    x = np.asarray(points, dtype=float)
    n = len(x)
    idx = np.arange(n)
    m = np.maximum(idx[:, None], idx[None, :])
    decay = np.exp(-K * (x[m] - x[:, None])) * np.exp(-K * (x[m] - x[None, :]))
    out = np.zeros((n, n), dtype=complex)
    for coef, a, b in terms:
        ta, tb = gaussian_tail(x, *a), gaussian_tail(x, *b)
        out_a = gaussian(x, *a) - 2.0 * K * ta
        out_b = gaussian(x, *b) - 2.0 * K * tb
        out += coef * (np.outer(out_a, out_b) - 4.0 * K * K * decay * (ta * tb)[m])
    return out


def sum_of_products_at(x1, x2, terms):
    """The same output as `sum_of_products_out`, pointwise at (x1, x2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    m = np.maximum(x1, x2)
    decay = np.exp(-K * (m - x1)) * np.exp(-K * (m - x2))
    out = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
    for coef, a, b in terms:
        out_a = gaussian(x1, *a) - 2.0 * K * gaussian_tail(x1, *a)
        out_b = gaussian(x2, *b) - 2.0 * K * gaussian_tail(x2, *b)
        out += coef * (out_a * out_b - 4.0 * K * K * decay
                       * gaussian_tail(m, *a) * gaussian_tail(m, *b))
    return out


# ---------------------------------------------------------------------------
# g2 on the tau line
# ---------------------------------------------------------------------------

def bilinear_on_tau_line(points, node_value, anchor, tau):
    """Bilinear interpolant at (anchor + tau, anchor) of the field whose value
    at nodes (i, j) is node_value(i, j) (index arrays in, array out)."""
    pts = np.asarray(points)
    n = len(pts)
    x1 = anchor + tau
    x2 = np.full_like(tau, anchor)
    i = np.clip(np.searchsorted(pts, x1, side="right") - 1, 0, n - 2)
    j = np.clip(np.searchsorted(pts, x2, side="right") - 1, 0, n - 2)
    u = (x1 - pts[i]) / (pts[i + 1] - pts[i])
    v = (x2 - pts[j]) / (pts[j + 1] - pts[j])
    return ((1 - u) * (1 - v) * node_value(i, j) + u * (1 - v) * node_value(i + 1, j)
            + (1 - u) * v * node_value(i, j + 1) + u * v * node_value(i + 1, j + 1))


def rect_g2(points, length, anchor, tau):
    """Reference for `g2` on a rectangular pulse: (L^2/2)|psi(x+tau, x)|^2,
    both pointwise exact and as the bilinear interpolant of the exact nodes
    (the program interpolates its grid)."""
    pts = np.asarray(points)
    exact = 0.5 * length ** 2 * rect_psi(anchor + tau, anchor, length) ** 2
    interp = bilinear_on_tau_line(
        pts, lambda i, j: rect_psi(pts[i], pts[j], length), anchor, tau)
    return exact, 0.5 * length ** 2 * interp ** 2


def local_g2(points, terms, anchor, tau):
    """Reference for `g2` with local-density normalisation:
    |psi(x+tau, x)|^2 / (2 rho(x+tau) rho(x)), rho(x) = int |psi(x, y)|^2 dy
    by the trapezoid rule over the grid, interpolated linearly.

    Returns (exact, interp): the amplitude on the tau line taken pointwise
    from the closed form, and as the bilinear interpolant of the exact nodes
    (the program interpolates its grid)."""
    pts = np.asarray(points)
    psi_nodes = sum_of_products_out(pts, terms)
    rho = np.trapezoid(np.abs(psi_nodes) ** 2, pts, axis=1)
    norm = 2.0 * np.interp(anchor + tau, pts, rho) * np.interp(anchor, pts, rho)
    exact = sum_of_products_at(anchor + tau, anchor, terms)
    interp = bilinear_on_tau_line(pts, lambda i, j: psi_nodes[i, j], anchor, tau)
    return np.abs(exact) ** 2 / norm, np.abs(interp) ** 2 / norm
