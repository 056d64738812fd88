"""Exact two-photon scattering at a single two-level atom coupled to a
chiral one-dimensional field: closed-form propagator kernels, rectangular
pulse solutions, second-order correlations, process decomposition, and an
independent lab-frame integrator for cross-validation."""

__version__ = "0.1.0"

from .analytic import (
    ProcessAmplitudes,
    longpulse_g2,
    rect_nonlin_out,
    rect_one_photon_out,
    rect_process_amplitudes,
    rect_two_photon_out,
)
from .correlations import (
    CorrelationCurve,
    find_dip_zeros,
    g2_slice,
)
from .kernels import eval_abs_kernel, eval_nonlin_kernel
from .model import (
    Grid1D,
    LabState,
    PhysicalParams,
    Wavefunction1,
    Wavefunction2,
    gaussian_pulse,
    max_asymmetry,
    norm1,
    norm2,
    rectangular_pulse,
)
from .oracle import (
    evolve_one_photon,
    evolve_two_photon,
    far_field,
    rect_initial,
    run_rect,
    run_rect_error,
)
from .propagate import (
    ScatteredState,
    TwoPhotonResult,
    apply_one_photon,
    apply_two_photon,
    apply_two_photon_linear,
    apply_two_photon_nonlinear,
)

__all__ = [
    "__version__",
    "PhysicalParams",
    "Grid1D",
    "Wavefunction1",
    "Wavefunction2",
    "LabState",
    "rectangular_pulse",
    "gaussian_pulse",
    "norm1",
    "norm2",
    "max_asymmetry",
    "eval_abs_kernel",
    "eval_nonlin_kernel",
    "apply_one_photon",
    "apply_two_photon_linear",
    "apply_two_photon_nonlinear",
    "apply_two_photon",
    "ScatteredState",
    "TwoPhotonResult",
    "rect_one_photon_out",
    "rect_nonlin_out",
    "rect_two_photon_out",
    "rect_process_amplitudes",
    "longpulse_g2",
    "ProcessAmplitudes",
    "evolve_one_photon",
    "evolve_two_photon",
    "rect_initial",
    "far_field",
    "run_rect",
    "run_rect_error",
    "g2_slice",
    "find_dip_zeros",
    "CorrelationCurve",
]
