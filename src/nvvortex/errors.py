"""Exception types shared across the toolkit.

Grouped by how the command-line front end maps them to exit codes:
configuration/usage problems exit 2, numerical/domain failures exit 3,
file I/O and parse problems exit 4.
"""


class NVVortexError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NVVortexError):
    """Invalid configuration or usage (bad key, bad value, bad arguments)."""


class FileFormatError(NVVortexError):
    """A data file could not be parsed in the documented format."""


# --- numerical / domain failures -------------------------------------------

class InvalidOptics(NVVortexError):
    """Optical parameters are physically inconsistent (e.g. NA >= n)."""


class QuadratureNotConverged(NVVortexError):
    """Node doubling changed the focal-field integral beyond tolerance."""


class NonUnitVector(NVVortexError):
    """An input that must be unit-norm deviates beyond tolerance."""


class DegenerateTemplate(NVVortexError):
    """Fit template (or data) is constant; the linear system is singular."""


class ObjectiveNotFinite(NVVortexError):
    """The least-squares solver met a NaN or infinite residual or Jacobian."""


class NoConvergence(NVVortexError):
    """The orientation fit's centre search exhausted its iteration budget."""


class InconsistentFrequencies(NVVortexError):
    """No real magnetic field reproduces the supplied transition pair."""


class DegenerateField(NVVortexError):
    """Zero-field transition pair: the cone angle is undefined."""


class FitFailed(NVVortexError):
    """Spectrum fitting could not locate or converge on the dips."""


class TripletsOverlap(NVVortexError):
    """The two hyperfine triplets are not separable in the spectrum."""


class DegenerateAxes(NVVortexError):
    """NV axes are too close to coplanar/parallel for reconstruction."""


class NoSolution(NVVortexError):
    """Best branch combination still exceeds the residual gate."""


class NoIntersection(NVVortexError):
    """Two cones do not intersect on the unit sphere."""
