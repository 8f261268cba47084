import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nvvortex import least_squares, pattern, spin
from nvvortex.errors import (
    DegenerateField,
    DegenerateTemplate,
    FitFailed,
    InconsistentFrequencies,
    NVVortexError,
    ObjectiveNotFinite,
    TripletsOverlap,
)
from nvvortex.focal_field import OpticalConfig, azimuthal_field_profile
from nvvortex.orient_fit import TETRAHEDRAL_POLAR
from nvvortex.pattern import NVOrientation, ScanGrid, ScanImage, intensity_map
from nvvortex.spin import (
    _ID3,
    A_PAR_MHZ,
    A_PERP_MHZ,
    GAMMA_N_MHZ_PER_G,
    QUADRUPOLE_MHZ,
    SX,
    SY,
    SZ,
    SpinParams,
    _lorentz,
)
from nvvortex.vector_recon import _unit_sphere_lstsq

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def optics():
    return OpticalConfig()


@pytest.fixture(scope="session")
def spin_params():
    return SpinParams()


@pytest.fixture(scope="session")
def grid31():
    """Shared scan raster; session scope keeps the radial profile cache warm."""
    return ScanGrid(width_px=31, height_px=31, pitch_nm=50.0)


@pytest.fixture
def bounded_quadrature(monkeypatch):
    """Fails the test, before the quadrature runs, when a profile build
    asks for more radii than a profile of MAX_PROFILE_PANELS holds (25
    per panel), so that an input which slips past the bound fails fast.
    A build needs only its table plus one block, so without this check
    such an input would run on, slowly, into a table of gigabytes (3.1 MB
    per 138 panels), unless its reach first asks for more than
    MAX_QUADRATURE_NODES nodes."""
    limit = (pattern._PANEL_DEGREE + 1) * pattern.MAX_PROFILE_PANELS
    real = pattern.azimuthal_field_profile

    def bounded(r, *args, **kwargs):
        if np.size(r) > limit:
            raise AssertionError(f"profile build asked for {np.size(r)} radii")
        return real(r, *args, **kwargs)

    monkeypatch.setattr(pattern, "azimuthal_field_profile", bounded)


#: fitted orientations of the four NV patterns used throughout
REFERENCE_ORIENTATIONS_DEG = [
    (0.37, 153.68),
    (109.84, 20.60),
    (109.25, 260.51),
    (109.31, 140.74),
]

#: per-NV cone angles (deg) and magnitudes (G) used for reconstruction
REFERENCE_CONE_ANGLES_DEG = [117.62, 106.96, 102.55]
REFERENCE_B_GAUSS = [59.53, 59.48, 59.56]
REFERENCE_FIELD_DIRECTION_DEG = (8.59, 182.56)


def axis_from_degrees(theta_deg: float, phi_deg: float) -> np.ndarray:
    t, p = np.radians(theta_deg), np.radians(phi_deg)
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def axis_angle_deg(t1, p1, t2, p2) -> float:
    """Smallest angle between the orientation classes (radians in,
    degrees out): insensitive to axis sign and to the 180-degree
    azimuth ambiguity a scan pattern cannot resolve."""
    b = axis_from_degrees(np.degrees(t2), np.degrees(p2))
    best = 0.0
    for p1_rep in (p1, p1 + np.pi):
        a = axis_from_degrees(np.degrees(t1), np.degrees(p1_rep))
        best = max(best, abs(float(a @ b)))
    return float(np.degrees(np.arccos(min(1.0, best))))


class QuadratureNotConverged(NVVortexError):
    """Node doubling changed the focal-field integral beyond tolerance."""


def azimuthal_field(
    r: float, z: float, config: OpticalConfig, check: bool = False, rtol: float = 1e-9,
    nodes: int | None = None,
) -> complex:
    """E_phi(r, z) as a complex scalar, by the automatic rule or by the
    single rule of ``nodes`` nodes.

    With ``check=True`` the quadrature is repeated by the single rule of
    twice the nodes (of one sub-interval, for the automatic rule) and
    QuadratureNotConverged is raised if the relative change exceeds
    ``rtol``.
    """
    rr = np.array([r], dtype=float)
    val = complex(azimuthal_field_profile(rr, z, config, nodes=nodes)[0])
    if check:
        doubled = 2 * (nodes or config.quadrature_nodes)
        val2 = complex(azimuthal_field_profile(rr, z, config, nodes=doubled)[0])
        scale = max(abs(val), abs(val2))
        if scale > 0.0 and abs(val2 - val) / scale > rtol:
            raise QuadratureNotConverged(
                f"node doubling moved E_phi({r}, {z}) by "
                f"{abs(val2 - val) / scale:.3e} relative (> {rtol:.1e})"
            )
    return val


def node_doubling_error(config: OpticalConfig, rs, zs) -> float:
    """Largest change under node doubling across a (r, z) grid.

    Normalized by the largest field magnitude on the grid, so points
    near nulls do not dominate.
    """
    rs = np.asarray(rs, dtype=float)
    worst = 0.0
    peak = 0.0
    for z in np.atleast_1d(zs):
        a = azimuthal_field_profile(rs, float(z), config)
        b = azimuthal_field_profile(
            rs, float(z), config, nodes=2 * config.quadrature_nodes
        )
        worst = max(worst, float(np.abs(a - b).max()))
        peak = max(peak, float(np.abs(b).max()))
    if peak == 0.0:
        return 0.0
    return worst / peak


class NonUnitVector(NVVortexError):
    """An input that must be unit-norm deviates beyond tolerance."""


_UNIT_TOL = 1e-9


def dipole_projection_factor(axis, azimuthal_dir) -> float:
    """Summed squared projection of the field direction onto the two
    excitation dipoles spanning the plane perpendicular to ``axis``: the
    two-dipole oracle for the pattern's projection factor.

    Equals 1 - (azimuthal_dir . axis)^2 for any orthonormal dipole pair
    in that plane. Both arguments must be unit vectors.
    """
    a = np.asarray(axis, dtype=float)
    e = np.asarray(azimuthal_dir, dtype=float)
    for name, v in (("axis", a), ("azimuthal_dir", e)):
        if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
            raise NonUnitVector(f"{name} has norm {np.linalg.norm(v)!r}")
    d = float(a @ e)
    return max(0.0, 1.0 - d * d)


def pattern_residual(
    theta: float,
    phi: float,
    center_nm: tuple[float, float],
    image: ScanImage,
    optics: OpticalConfig,
) -> tuple[float, float, float]:
    """Normalized misfit against ``image`` of the pattern of the axis
    (theta, phi) centred at ``center_nm``, built by ``intensity_map``:
    the reference for the report of ``fit_orientation``.

    Solves the two-parameter linear least squares for (amplitude,
    background) in closed form, clamps amplitude to >= 0, and returns

        (sum((data - a*T - b)^2) / sum((data - mean)^2), a, b).

    Raises DegenerateTemplate when the template or the data is constant
    on the grid (either denominator of the solve vanishes).
    """
    t = intensity_map(
        NVOrientation(theta, phi), image.grid, optics, center_nm=center_nm
    ).ravel()
    d = image.values.ravel()
    n = d.size
    st, sd = t.sum(), d.sum()
    stt, std = float(t @ t), float(t @ d)
    det = n * stt - st * st  # n^2 * var(T)
    if det <= 1e-14 * max(n * stt, 1e-300):
        raise DegenerateTemplate("model pattern is constant across the grid")
    dvar = float(((d - sd / n) ** 2).sum())
    if dvar == 0.0:
        raise DegenerateTemplate("image is constant; misfit is undefined")
    a = (n * std - st * sd) / det
    if a < 0.0:
        a = 0.0
    b = (sd - a * st) / n
    sse = float(((d - a * t - b) ** 2).sum())
    return sse / dvar, a, b


def field_vector_at(point, beam_center, z: float, config: OpticalConfig) -> np.ndarray:
    """Complex 3-vector E at a 3D ``point`` for a beam focused at
    (beam_center_x, beam_center_y, z).

    The field is purely azimuthal about the beam axis:
    E = E_phi(rho, point_z - z) * phi_hat with rho the transverse
    distance from the axis. On the axis (rho = 0) the zero vector is
    returned; phi_hat is undefined there but the amplitude vanishes.
    """
    p = np.asarray(point, dtype=float)
    c = np.asarray(beam_center, dtype=float)
    dx = p[0] - c[0]
    dy = p[1] - c[1]
    rho = math.hypot(dx, dy)
    if rho == 0.0:
        return np.zeros(3, dtype=complex)
    amp = azimuthal_field(rho, p[2] - z, config)
    phi_hat = np.array([-dy / rho, dx / rho, 0.0])
    return amp * phi_hat


def triplet_model_reference(f: np.ndarray, x: np.ndarray):
    """Two-triplet basis [-L_1 .. -L_6, 1] (n, 7) and the function giving
    d(model)/dx (n, 5) for coefficients c, in the sample-major (n, 6)
    layout with one column per center and the derivatives summed column
    by column: the reference for the sweep-major ``spin._triplet_model``,
    which takes them as one matrix product."""
    c1, c2, s1, s2, w = x
    centers = np.array([c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2])
    h = 0.5 * w
    u = f[:, None] - centers
    lor = _lorentz(f[:, None], centers, w)

    def slopes(c):
        depths = c[:6]
        d_center = -depths * (2.0 * u * lor * lor / (h * h))
        jac = np.empty((f.size, 5))
        jac[:, 0] = d_center[:, :3].sum(axis=1)
        jac[:, 1] = d_center[:, 3:].sum(axis=1)
        jac[:, 2] = d_center[:, 2] - d_center[:, 0]
        jac[:, 3] = d_center[:, 5] - d_center[:, 3]
        jac[:, 4] = -(lor * (1.0 - lor) / h) @ depths
        return jac

    return np.column_stack((-lor, np.ones_like(f))), slopes


def dip_candidates_reference(f: np.ndarray, y: np.ndarray) -> list[float]:
    """``spin._dip_candidates`` with the local minima found by a loop
    over every sweep point: the reference for its single mask."""
    baseline = float(np.median(y))
    depth = baseline - float(y.min())
    noise = 1.4826 * float(np.median(np.abs(y - baseline)))
    if depth <= max(1e-12, 5.0 * noise):
        raise FitFailed("no significant dips found in the spectrum")
    cut = baseline - 0.4 * depth
    idx = [
        i
        for i in range(1, y.size - 1)
        if y[i] < cut and y[i] <= y[i - 1] and y[i] <= y[i + 1]
    ]
    if not idx:
        raise FitFailed("no local minima below the detection threshold")
    radius = max(4.0 * float(f[1] - f[0]), 1.0)
    merged: list[int] = []
    for i in idx:
        if merged and f[i] - f[merged[-1]] < radius:
            if y[i] < y[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(i)
    return [float(f[i]) for i in merged]


def scan_image_csv_reference(image: ScanImage) -> str:
    """The scan CSV text with one ``repr`` per pixel: the reference for
    ``fileio.write_scan_image_csv``, which formats each distinct value
    once."""
    g = image.grid
    lines = [
        "width,height,pitch_nm,origin_x_nm,origin_y_nm",
        f"{g.width_px},{g.height_px},{float(g.pitch_nm)!r},"
        f"{float(g.origin_nm[0])!r},{float(g.origin_nm[1])!r}",
    ]
    for row in image.values:
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def pgm_reference(image: ScanImage) -> bytes:
    """The PGM bytes with the whole image scaled at once: the reference
    for ``fileio.write_pgm``, which scales one row block at a time."""
    lo = float(image.values.min())
    hi = float(image.values.max())
    maxval = 65535
    span = hi - lo
    if span > 0.0:
        scaled = np.subtract(image.values, lo)
        scaled /= span
        scaled *= maxval
        scaled = np.round(scaled, out=scaled).astype(">u2")
    else:
        scaled = np.zeros_like(image.values, dtype=">u2")
    header = f"P5\n{image.grid.width_px} {image.grid.height_px}\n{maxval}\n".encode()
    return header + scaled.tobytes()


def spectrum_csv_reference(spectrum) -> str:
    """The spectrum CSV text formatted from numpy scalars: the reference
    for ``fileio.write_spectrum_csv``."""
    lines = ["frequency_mhz,contrast"]
    for f, c in zip(spectrum.frequencies, spectrum.contrast):
        lines.append(f"{float(f)!r},{float(c)!r}")
    return "\n".join(lines) + "\n"


def bootstrap_direction_sigma(constraints, result, samples: int, seed: int) -> float:
    """RMS great-circle deviation of the direction over a parametric
    bootstrap of the cone angles, branch held fixed: the Monte Carlo
    reference for the first-order ``direction_sigma`` of
    ``vector_recon.solve_direction``."""
    axes = np.stack([c.axis.unit_axis for c in constraints])
    alphas = np.array([c.alpha for c in constraints])
    sigmas = np.array([c.alpha_sigma for c in constraints])
    noisy = sigmas > 0.0
    draws = np.random.default_rng(seed).standard_normal((samples, int(noisy.sum())))
    drawn = np.tile(alphas, (samples, 1))
    drawn[:, noisy] += sigmas[noisy] * draws
    signs = np.where(result.branch_flipped, -1.0, 1.0)
    points, _ = _unit_sphere_lstsq(axes, signs * np.cos(drawn))
    devs = np.arccos(np.clip(points @ result.direction, -1.0, 1.0))
    return float(np.sqrt(np.mean(np.square(devs))))


def nearest_tetrahedral_axis_reference(
    theta: float, phi: float, azimuth_offset: float = 0.0
) -> tuple[int, float, tuple[float, float]]:
    """``orient_fit.nearest_tetrahedral_axis`` as a double loop over the
    two azimuth partners and the four tetrahedral axes, keeping the first
    smallest mismatch: the reference for the one-table form, which must
    match it bit for bit."""
    tet = [(0.0, 0.0)] + [
        (TETRAHEDRAL_POLAR, azimuth_offset + k * 2.0 * math.pi / 3.0)
        for k in range(3)
    ]
    reps = [(theta, phi), (theta, phi + math.pi)]
    best = None
    for rt, rp in reps:
        v = NVOrientation(rt, rp).unit_axis
        for i, (tt, tp) in enumerate(tet):
            a = NVOrientation(tt, tp).unit_axis
            d = float(np.clip(v @ a, -1.0, 1.0))
            mismatch = math.acos(abs(d))
            if best is None or mismatch < best[0]:
                rep = (rt, rp) if d >= 0.0 else (math.pi - rt, rp + math.pi)
                best = (mismatch, i, rep)
    mismatch, index, rep = best
    return index, mismatch, (rep[0], rep[1] % (2.0 * math.pi))


def levenberg_marquardt_reference(fun, x0) -> least_squares.LeastSquaresResult:
    """``least_squares.levenberg_marquardt`` with the damped matrix
    formed as a + mu diag(scale) and the norms from ``np.linalg.norm``:
    the reference for the leaner loop, which must match it bit for bit."""
    x = np.array(x0, dtype=float).ravel()

    def evaluate(x):
        r, jac = fun(x)[:2]
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
            raise ObjectiveNotFinite(f"residual or Jacobian is not finite at x = {x!r}")
        return r, jac, float(r @ r)

    r, jac, cost = evaluate(x)
    mu, nu = least_squares.INITIAL_DAMPING, 2.0
    tol = least_squares.X_TOLERANCE
    for iteration in range(least_squares.MAX_ITERATIONS):
        a = jac.T @ jac
        g = jac.T @ r
        scale = np.diag(a).copy()
        scale[scale == 0.0] = 1.0
        step = np.linalg.solve(a + mu * np.diag(scale), -g)
        if np.linalg.norm(step) <= tol * (np.linalg.norm(x) + tol):
            return least_squares.LeastSquaresResult(x, iteration, True)
        trial = x + step
        r_new, jac_new, cost_new = evaluate(trial)
        reduction = cost - cost_new
        if reduction > 0.0:
            predicted = float(step @ (mu * scale * step - g))
            rho = reduction / predicted if reduction < predicted else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x, r, jac, cost = trial, r_new, jac_new, cost_new
        else:
            mu *= nu
            nu *= 2.0
    return least_squares.LeastSquaresResult(x, least_squares.MAX_ITERATIONS, False)


def fit_odmr_model_reference(spectrum, baseline: float):
    """``spin.fit_odmr_model`` with variable projection over the whole
    sweep and the baseline held at ``baseline``: the reference for the
    fit on windows around the dips. The points off the windows inform
    the baseline, so a free one would differ by its own noise; held at
    the windowed fit's value, it leaves only what the windows cut.
    Returns (omega1, omega2, sigma1, sigma2, linewidth)."""
    f = spectrum.frequencies
    y = spectrum.contrast
    median = spin._median(y)
    lo_group, hi_group = spin._split_groups(spin._dip_candidates(f, y, median))

    def centroid(group):
        mask = (f >= group[0] - 4.0) & (f <= group[-1] + 4.0)
        w = np.clip(median - y[mask], 0.0, None)
        total = float(w.sum())
        if total <= 0.0:
            return spin._median(group)
        return float((w * f[mask]).sum() / total)

    def spacing_init(group):
        return 0.5 * (group[-1] - group[0]) if len(group) == 3 else 2.0

    df = float(f[1] - f[0])
    start = np.array([centroid(lo_group), centroid(hi_group),
                      spacing_init(lo_group), spacing_init(hi_group), max(4.0 * df, 0.5)])
    def model(x):
        basis, slopes = spin._triplet_model(f, x)
        return basis[:, :6], slopes

    result = least_squares.variable_projection(model, y - baseline, start)
    if not result.converged:
        raise FitFailed(
            f"triplet fit did not converge within {result.iterations} iterations"
        )
    c1, c2, width = result.x[0], result.x[1], abs(result.x[4])
    sig1, sig2 = np.sqrt(result.covariance.diagonal()[:2])
    if c1 > c2:
        c1, c2, sig1, sig2 = c2, c1, sig2, sig1
    if c2 - c1 < 3.0 * width:
        raise TripletsOverlap("group centers closer than three linewidths")
    return float(c1), float(c2), float(sig1), float(sig2), float(width)


def full_hamiltonian_reference(b_vec_nv, params: SpinParams) -> np.ndarray:
    """9x9 electron (S=1) x nuclear (I=1) Hamiltonian for a field given
    in the NV frame (gauss), including axial hyperfine, quadrupole, and
    nuclear Zeeman terms with the fixed 14N constants. MHz; Hermitian.
    The general-vector builder: the reference for
    ``spin.full_hamiltonian(b_par, b_perp, params)``."""
    bx, by, bz = (float(c) for c in np.asarray(b_vec_nv, dtype=float))
    h_e = params.d * (SZ @ SZ) + params.gamma_e * (bx * SX + by * SY + bz * SZ)
    h = np.kron(h_e, _ID3)
    h += A_PERP_MHZ * (np.kron(SX, SX) + np.kron(SY, SY))
    h += A_PAR_MHZ * np.kron(SZ, SZ)
    h += QUADRUPOLE_MHZ * np.kron(_ID3, SZ @ SZ)
    h += GAMMA_N_MHZ_PER_G * (
        bx * np.kron(_ID3, SX) + by * np.kron(_ID3, SY) + bz * np.kron(_ID3, SZ)
    )
    return h


def field_estimate_reference(w1, w2, sigma1=None, sigma2=None, d=2870.0, gamma_e=2.8025):
    """The pair inversion as it stood with ``None`` for "no sigma":
    ``_magnitude``, ``_cone_ratio`` and ``field_estimate`` in one, the
    reference for ``spin.field_estimate``. Returns (b, alpha candidates,
    b_sigma, alpha_sigma), the sigmas None without line sigmas."""
    rtol = 1e-9
    f1, f2, f3 = 2.0 * w1 - w2 - d, w1 - 2.0 * w2 + d, w1 + w2 + d
    k = 27.0 * d
    p = (w1 * w1 + w2 * w2 - w1 * w2 - d * d) / 3.0
    q = f1 * f2 * f3 / k
    dp = ((2.0 * w1 - w2) / 3.0, (2.0 * w2 - w1) / 3.0)
    dq = ((2.0 * f2 * f3 + f1 * f3 + f1 * f2) / k,
          (f1 * f2 - f2 * f3 - 2.0 * f1 * f3) / k)
    tol = rtol * d * d / 3.0
    if p < -tol:
        raise InconsistentFrequencies(
            f"(gamma_e B)^2 = {p:.6g} MHz^2 below -{tol:.3g}; no real field fits"
        )
    b = math.sqrt(max(p, 0.0)) / gamma_e
    if p <= rtol * d * d / 3.0:
        raise DegenerateField(
            "transition pair implies B ~ 0; the cone angle is undefined"
        )
    ratio = q / p
    tol = rtol
    if not 0.0 <= ratio <= 1.0 and sigma1 is not None and sigma2 is not None:
        tol = max(tol, 5.0 * math.hypot((dq[0] - ratio * dp[0]) * sigma1,
                                        (dq[1] - ratio * dp[1]) * sigma2) / p)
    if ratio < -tol or ratio > 1.0 + tol:
        raise InconsistentFrequencies(
            f"arccos argument {ratio:.6g} outside [0, 1] beyond tolerance {tol:.3g}"
        )
    ratio = min(max(ratio, 0.0), 1.0)
    a = math.acos(math.sqrt(ratio))
    b_sigma = alpha_sigma = None
    if sigma1 is not None and sigma2 is not None:
        s1, s2 = sigma1, sigma2
        b_sigma = math.hypot(dp[0] * s1, dp[1] * s2) / (2.0 * gamma_e**2 * b)
        sigma_r = math.hypot((dq[0] - ratio * dp[0]) * s1,
                             (dq[1] - ratio * dp[1]) * s2) / p
        if 0.0 < ratio < 1.0:
            alpha_sigma = sigma_r / (2.0 * math.sqrt(ratio * (1.0 - ratio)))
        low, high = ratio - sigma_r, ratio + sigma_r
        if low <= 0.0 or high >= 1.0:
            low, high = max(low, 0.0), min(high, 1.0)
            cap = 0.5 * (math.acos(math.sqrt(low)) - math.acos(math.sqrt(high)))
            alpha_sigma = cap if alpha_sigma is None else min(alpha_sigma, cap)
    return b, (a, math.pi - a), b_sigma, alpha_sigma
