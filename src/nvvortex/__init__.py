"""NV-center vector magnetometry with azimuthally polarized excitation.

Submodules:
    focal_field   - focused field of the azimuthal (doughnut) beam
    pattern       - orientation-dependent confocal scan synthesis
    orient_fit    - orientation fitting: linear solve per centre, 2-D centre search
    spin          - ground-state Hamiltonians, ODMR spectra and their fit, inversion
    least_squares - Levenberg-Marquardt solver shared by both fits
    vector_recon  - field vector from cone constraints
    cli           - command-line front end (``nvvortex`` entry point)
"""

__version__ = "0.1.0"

from .focal_field import OpticalConfig, azimuthal_field, field_vector_at
from .pattern import NVOrientation, ScanGrid, ScanImage, simulate_pattern
from .orient_fit import OrientationFit, fit_orientation
from .spin import (
    FieldEstimate,
    SpinParams,
    Spectrum,
    TransitionPair,
    fit_odmr_spectrum,
    invert_magnitude,
    invert_polar_angle,
    simulate_odmr_spectrum,
    transition_frequencies,
)
from .vector_recon import (
    ConeConstraint,
    VectorFieldResult,
    aggregate_magnitude,
    solve_direction,
    triangle_diagnostic,
)

__all__ = [
    "__version__",
    "OpticalConfig",
    "azimuthal_field",
    "field_vector_at",
    "NVOrientation",
    "ScanGrid",
    "ScanImage",
    "simulate_pattern",
    "OrientationFit",
    "fit_orientation",
    "SpinParams",
    "TransitionPair",
    "FieldEstimate",
    "Spectrum",
    "transition_frequencies",
    "invert_magnitude",
    "invert_polar_angle",
    "simulate_odmr_spectrum",
    "fit_odmr_spectrum",
    "ConeConstraint",
    "VectorFieldResult",
    "solve_direction",
    "aggregate_magnitude",
    "triangle_diagnostic",
]
