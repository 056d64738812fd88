import math

import numpy as np
import pytest

from onedatom import (
    Grid1D,
    PhysicalParams,
    Wavefunction1,
    apply_one_photon,
    apply_two_photon,
    eval_abs_kernel,
    eval_nonlin_kernel,
    gaussian_pulse,
)

P = PhysicalParams()


def test_abs_kernel_pinned_values():
    assert eval_abs_kernel(0.0, 0.0, P) == -2.0
    assert eval_abs_kernel(1.0, 0.0, P) == 0.0
    assert eval_abs_kernel(-1.0, 0.0, P) == pytest.approx(-2 * math.exp(-1), rel=1e-15)


def test_abs_kernel_boundary_takes_inside_limit():
    # at x = x' the smooth part evaluates to -2 gamma / c
    p = PhysicalParams(gamma=2.0, c=4.0)
    assert eval_abs_kernel(3.7, 3.7, p) == -2 * 2.0 / 4.0


def test_abs_kernel_vectorized_matches_scalar():
    x = np.linspace(-3, 3, 41)
    vec = eval_abs_kernel(x, 0.5, P)
    for xi, vi in zip(x, vec):
        assert eval_abs_kernel(float(xi), 0.5, P) == vi


def test_nonlin_kernel_pinned_values():
    assert eval_nonlin_kernel(0.0, 0.0, 0.0, 0.0, P) == 0.0
    assert eval_nonlin_kernel(-1.0, -1.0, 0.0, 0.0, P) == pytest.approx(
        -4 * math.exp(-2), rel=1e-15)
    # x2 = 1 is not below min(0, 2) = 0
    assert eval_nonlin_kernel(-1.0, 1.0, 0.0, 2.0, P) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_reject_nonfinite(bad):
    with pytest.raises(ValueError):
        eval_abs_kernel(bad, 0.0, P)
    with pytest.raises(ValueError):
        eval_abs_kernel(0.0, bad, P)
    with pytest.raises(ValueError):
        eval_nonlin_kernel(0.0, bad, 0.0, 0.0, P)


def test_exchange_symmetry_is_exact():
    rng = np.random.default_rng(7)
    x1, x2, a, b = rng.uniform(-10, 10, size=(4, 10_000))
    base = eval_nonlin_kernel(x1, x2, a, b, P)
    assert np.array_equal(base, eval_nonlin_kernel(x2, x1, a, b, P))
    assert np.array_equal(base, eval_nonlin_kernel(x1, x2, b, a, P))


def test_translation_invariance():
    rng = np.random.default_rng(11)
    x1, x2, a, b = rng.uniform(-5, 5, size=(4, 10_000))
    shift = rng.uniform(-50, 50, size=10_000)
    k0 = eval_nonlin_kernel(x1, x2, a, b, P)
    k1 = eval_nonlin_kernel(x1 + shift, x2 + shift, a + shift, b + shift, P)
    scale = np.maximum(np.abs(k0), 1e-300)
    assert np.max(np.abs(k0 - k1) / scale) <= 1e-13

    s0 = eval_abs_kernel(x1, a, P)
    s1 = eval_abs_kernel(x1 + shift, a + shift, P)
    scale = np.maximum(np.abs(s0), 1e-300)
    assert np.max(np.abs(s0 - s1) / scale) <= 1e-13


def test_kernels_are_nonpositive():
    rng = np.random.default_rng(13)
    x1, x2, a, b = rng.uniform(-8, 8, size=(4, 10_000))
    assert np.all(eval_abs_kernel(x1, a, P) <= 0)
    assert np.all(eval_nonlin_kernel(x1, x2, a, b, P) <= 0)
    assert np.all(np.abs(eval_abs_kernel(x1, a, P)) <= 2 * P.gamma / P.c)


def test_kernels_integrate_to_the_map():
    # the kernels integrated by the trapezoid rule against a chirped Gaussian
    # converge to the closed-form map: the one-photon map with psi(x) as its
    # delta part, and the nonlinear part at node pairs.  Each kernel jumps at
    # its cut (x' = x, or min(x1', x2') = max(x1, x2)), which the rule misses
    # by a fixed fraction of a cell, so the error is first order: halving h
    # halves it.  The map reads the samples' piecewise-linear interpolant, and
    # so does the quadrature.
    g = Grid1D(0.0, 10.0, 401)
    gauss = gaussian_pulse(5.0, 0.5, g)
    f = Wavefunction1(g, gauss.amp * np.exp(0.4j * (g.points - 5.0) ** 2))

    def psi(x):
        return np.interp(x, g.points, f.amp.real, 0.0, 0.0) \
            + 1j * np.interp(x, g.points, f.amp.imag, 0.0, 0.0)

    def nodes(cut, h):
        # trapezoid nodes over the pulse, 0.3 of a cell off the cut
        k = np.arange(np.floor(-cut / h) - 1, np.ceil((10.0 - cut) / h) + 2)
        x = cut + (k + 0.3) * h
        w = np.full(len(x), h)
        w[[0, -1]] = h / 2
        return x, w

    xs = np.array([3.1, 4.6, 5.35])
    out = Grid1D(3.1, 5.35, 3, _points=xs)
    one = apply_one_photon(f, out, P).amp
    nonlinear = apply_two_photon(f, out, P).nonlinear.rows(0, 3)
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    errors = []
    for h in (0.02, 0.01, 0.005):
        err = []
        for x, ref in zip(xs, one):
            xp, w = nodes(x, h)
            err.append(abs(psi(x) + np.sum(w * eval_abs_kernel(x, xp, P) * psi(xp)) - ref))
        for a, b in pairs:
            xp, w = nodes(max(xs[a], xs[b]), 8 * h)
            kernel = eval_nonlin_kernel(xs[a], xs[b], xp[:, None], xp[None, :], P)
            quad = np.sum(np.outer(w * psi(xp), w * psi(xp)) * kernel)
            err.append(abs(quad - nonlinear[a, b]))
        errors.append(err)
    ratios = np.array(errors[1:]) / np.array(errors[:-1])
    assert np.all((ratios > 0.4) & (ratios < 0.6)), ratios
