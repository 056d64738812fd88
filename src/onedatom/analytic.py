"""Closed-form output wavefunctions for rectangular input pulses, the
long-pulse limit, and the interaction-process decomposition.

All expressions are grouped so that every exponent is non-positive; they stay
finite for arbitrarily long pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams

__all__ = [
    "rect_one_photon_out",
    "rect_nonlin_out",
    "rect_two_photon_out",
    "rect_process_amplitudes",
    "longpulse_psi_out",
    "longpulse_g2",
    "ProcessAmplitudes",
    "PLATEAU_MARGIN",
]

# plateau condition: 0 < x_i < L - PLATEAU_MARGIN * c/gamma
PLATEAU_MARGIN = 2.0


def _check_length(length: float) -> float:
    if not (length > 0 and math.isfinite(length)):
        raise ValueError(f"pulse length must be positive, got {length}")
    return float(length)


def rect_one_photon_out(x, length: float, params: PhysicalParams):
    """One-photon output for the unit rectangle on [0, length]:

        (2/sqrt(L)) (e^{-k(L-x)} - e^{k x})   for x < 0
        (1/sqrt(L)) (2 e^{-k(L-x)} - 1)       for 0 <= x <= L
        0                                      otherwise

    with k = gamma/c.  Scalar in, scalar out; arrays broadcast.
    """
    length = _check_length(length)
    k = params.gamma_over_c
    x = np.asarray(x, dtype=float)
    root = math.sqrt(length)
    out = np.zeros(x.shape)
    neg = x < 0
    mid = (x >= 0) & (x <= length)
    out[neg] = (2.0 / root) * (np.exp(-k * (length - x[neg])) - np.exp(k * x[neg]))
    out[mid] = (1.0 / root) * (2.0 * np.exp(-k * (length - x[mid])) - 1.0)
    return float(out) if out.ndim == 0 else out


def rect_nonlin_out(x1, x2, length: float, params: PhysicalParams):
    """Nonlinear two-photon correction for the rectangular input:
    -(4/L) e^{k(x1+x2)} (e^{-k max(0,x1,x2)} - e^{-kL})^2 for x1, x2 <= L,
    zero beyond the pulse end.  Evaluated in the overflow-free grouping
    e^{-k(M-x1)} e^{-k(M-x2)} (1 - e^{-k(L-M)})^2."""
    length = _check_length(length)
    k = params.gamma_over_c
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    m = np.maximum(0.0, np.maximum(x1, x2))
    val = -(4.0 / length) * np.exp(-k * (m - x1)) * np.exp(-k * (m - x2)) \
        * (1.0 - np.exp(-k * (length - m))) ** 2
    out = np.where((x1 <= length) & (x2 <= length), val, 0.0)
    return float(out) if out.ndim == 0 else out


def rect_two_photon_out(x1, x2, length: float, params: PhysicalParams):
    """Full two-photon output: product of one-photon outputs plus the
    nonlinear correction."""
    nonlin = rect_nonlin_out(x1, x2, length, params)   # its temporaries go first
    lin = np.multiply(rect_one_photon_out(x1, length, params),
                      rect_one_photon_out(x2, length, params))
    return lin + nonlin


@dataclass(frozen=True)
class ProcessAmplitudes:
    """Amplitudes of the three interaction processes at a point (x1, x2):
    (i) both photons pass without absorption, (ii) exactly one is absorbed and
    reemitted, (iii) both are absorbed and reemitted; p_iii contains the
    nonlinear correction."""

    p_i: np.ndarray | float
    p_ii: np.ndarray | float
    p_iii: np.ndarray | float

    @property
    def total(self):
        return self.p_i + self.p_ii + self.p_iii


def rect_process_amplitudes(x1, x2, length: float, params: PhysicalParams) -> ProcessAmplitudes:
    """Process decomposition of the rectangular-pulse output, defined on the
    transmitted window 0 <= x_i <= length only.  For array inputs p_i is a
    read-only broadcast of 1/length."""
    length = _check_length(length)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any((x1 < 0) | (x1 > length) | (x2 < 0) | (x2 > length)):
        raise ValueError("process decomposition is defined on 0 <= x_i <= length")
    k = params.gamma_over_c
    a1 = np.exp(-k * (length - x1))
    a2 = np.exp(-k * (length - x2))
    nonlin = rect_nonlin_out(x1, x2, length, params)   # its temporaries go first
    p_iii = (4.0 / length) * (a1 - 1.0) * (a2 - 1.0) + nonlin
    p_ii = (2.0 / length) * (a1 - 1.0) + (2.0 / length) * (a2 - 1.0)
    p_i = np.broadcast_to(np.asarray(1.0 / length), p_ii.shape)
    if p_ii.ndim == 0:
        return ProcessAmplitudes(float(p_i), float(p_ii), float(p_iii))
    return ProcessAmplitudes(p_i, p_ii, p_iii)


def longpulse_psi_out(x1, x2, length: float, params: PhysicalParams):
    """Long-pulse plateau output (1/L)(1 - 4 e^{-k|x1-x2|}); both coordinates
    must satisfy the plateau condition 0 < x_i < L - 2 c/gamma."""
    length = _check_length(length)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    margin = PLATEAU_MARGIN * params.relaxation_length()
    if np.any((x1 <= 0) | (x2 <= 0) | (x1 >= length - margin) | (x2 >= length - margin)):
        raise ValueError("plateau condition 0 < x_i < L - 2 c/gamma violated")
    out = (1.0 - 4.0 * np.exp(-params.gamma_over_c * np.abs(x1 - x2))) / length
    return float(out) if out.ndim == 0 else out


def longpulse_g2(tau, params: PhysicalParams):
    """Normalized second-order correlation of the long-pulse output:
    (1/2)(1 - 4 e^{-gamma |tau|})^2."""
    tau = np.asarray(tau, dtype=float)
    out = 0.5 * (1.0 - 4.0 * np.exp(-params.gamma * np.abs(tau))) ** 2
    return float(out) if out.ndim == 0 else out
