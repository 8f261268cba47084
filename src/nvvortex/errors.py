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


class DegenerateTemplate(NVVortexError):
    """The scan is constant, has no more pixels than the fit's 6 unknowns,
    a rank-deficient basis (one row or column) or no positive amplitude."""


class ObjectiveNotFinite(NVVortexError):
    """The least-squares solver met a NaN or infinite residual or Jacobian."""


class RankDeficient(NVVortexError):
    """A separable least-squares model's basis, or its full Jacobian at
    the solution, is rank-deficient: the data do not determine the fit."""


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
