"""NV-center vector magnetometry with azimuthally polarized excitation.

Submodules:
    bessel        - self-contained Bessel J1 of the focal-field integral
    focal_field   - focused field of the azimuthal (doughnut) beam
    pattern       - orientation-dependent confocal scan synthesis
    orient_fit    - orientation fitting: linear solve per centre, 2-D centre search
    spin          - ground-state Hamiltonians, ODMR spectra and their fit, inversion
    least_squares - variable-projection solver shared by both fits
    vector_recon  - field vector from cone constraints
    config        - run configuration: one strictly validated JSON file
    errors        - exception types, grouped by CLI exit code
    fileio        - on-disk formats: scan and spectrum CSV, PGM, JSON
    cli           - command-line front end (``nvvortex`` entry point) and
                    ``measure``, the chain with a typed result; not imported
                    here, which would load argparse on ``import nvvortex``
"""

__version__ = "0.1.0"

from .focal_field import OpticalConfig
from .pattern import NVOrientation, ScanGrid, ScanImage, simulate_pattern
from .orient_fit import OrientationFit, fit_orientation
from .spin import (
    FieldEstimate,
    SpinParams,
    Spectrum,
    TransitionPair,
    field_estimate,
    fit_odmr_model,
    simulate_odmr_spectrum,
    transition_frequencies,
)
from .vector_recon import (
    ConeConstraint,
    VectorFieldResult,
    aggregate_magnitude,
    solve_direction,
)

__all__ = [
    "__version__",
    "OpticalConfig",
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
    "field_estimate",
    "simulate_odmr_spectrum",
    "fit_odmr_model",
    "ConeConstraint",
    "VectorFieldResult",
    "solve_direction",
    "aggregate_magnitude",
]
