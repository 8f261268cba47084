"""Correctness checks and accuracy figures for every benchmark operation.

Each check returns the list of failed conditions (empty when the output
is correct) together with the accuracy figures, so a caller can both
count failures and report how far from the truth an output was.

Accuracy tolerances are set well above the noise-driven scatter
(axis errors of 0.1-0.6 deg, or 4-8 deg for the near-z NV0; omega
errors of 0.01-0.03 MHz; |B| errors below 0.02 G at the workloads' noise
levels), so they trip on
a broken result, not on an unlucky noise draw. The direction tolerance
sits above the known canonical-axis defect, which leaves today's
pipeline about 17 deg off the true field on the fig-2 axes.
"""

from __future__ import annotations

import math

import numpy as np

AXIS_TOL_DEG = 2.0
#: an axis within NEAR_Z_DEG of the beam modulates the pattern only by
#: sin^2(theta); at 1e4 peak counts the noise alone puts the fitted
#: polar angle of the 0.37-deg NV0 at 4-8 deg
NEAR_Z_DEG = 5.0
AXIS_TOL_NEAR_Z_DEG = 20.0
OMEGA_TOL_MHZ = 0.2
B_TOL_GAUSS = 0.25
DIRECTION_TOL_DEG = 25.0
MAP_REL_TOL = 1e-9
#: Poisson chi^2 per pixel must lie within this many standard errors of 1
CHI2_SIGMAS = 8.0


def unit(theta_deg: float, phi_deg: float) -> np.ndarray:
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def line_angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between the lines through u and v, in [0, 90] deg: the
    angle modulo the antipode."""
    c = min(1.0, abs(float(u @ v)))
    return math.degrees(math.acos(c))


def axis_class_error_deg(fit_deg, true_deg) -> float:
    """Axis error within the orientation class: neither the axis sign
    nor the 180-degree azimuth partner counts as an error."""
    fitted = unit(*fit_deg)
    return min(
        line_angle_deg(fitted, unit(true_deg[0], true_deg[1])),
        line_angle_deg(fitted, unit(true_deg[0], true_deg[1] + 180.0)),
    )


def check_pipeline(returncode: int, report: dict | None, truth: dict):
    """Check one ``nvvortex pipeline`` result against the truth.

    Returns (failures, failed_nvs, accuracy). An operation is one NV
    plus the reconstruction, so a failure of the run as a whole (exit
    status, missing reconstruction, direction or |B| off) fails every
    NV, while a per-NV failure fails that NV alone.
    """
    stems = sorted(truth["nvs"])
    failures: list[str] = []
    if returncode != 0:
        failures.append(f"exit status {returncode}")
    if not isinstance(report, dict):
        failures.append("no JSON report")
        return failures, set(stems), {}

    per_nv = report.get("per_nv") or {}
    errors = report.get("errors")
    rec = report.get("reconstruction")
    if len(per_nv) != len(stems):
        failures.append(f"{len(per_nv)} per_nv entries, expected {len(stems)}")
    if errors:
        failures.append(f"errors reported: {errors}")
    if rec is None:
        failures.append("reconstruction is null")

    run_failed = bool(failures)  # exit status, entry count, errors, reconstruction
    failed_nvs: set[str] = set()
    axis_errs, omega_errs = [], []
    for stem in stems:
        entry = per_nv.get(stem)
        if entry is None:
            failed_nvs.add(stem)
            continue
        nv = truth["nvs"][stem]
        axis_err = axis_class_error_deg(
            (entry["theta_deg"], entry["phi_deg"]), (nv["theta_deg"], nv["phi_deg"])
        )
        w1, w2 = nv["omega_mid_mhz"]
        omega_err = max(abs(entry["omega1_mhz"] - w1), abs(entry["omega2_mhz"] - w2))
        axis_errs.append(axis_err)
        omega_errs.append(omega_err)
        polar = min(nv["theta_deg"], 180.0 - nv["theta_deg"])
        axis_tol = AXIS_TOL_NEAR_Z_DEG if polar < NEAR_Z_DEG else AXIS_TOL_DEG
        if axis_err > axis_tol:
            failures.append(f"{stem}: axis error {axis_err:.3f} deg")
            failed_nvs.add(stem)
        if omega_err > OMEGA_TOL_MHZ:
            failures.append(f"{stem}: omega error {omega_err:.4f} MHz")
            failed_nvs.add(stem)

    accuracy = {}
    if axis_errs:
        accuracy["axis_err_deg"] = max(axis_errs)
        accuracy["omega_err_mhz"] = max(omega_errs)
    if rec is not None:
        direction = unit(rec["theta_b_deg"], rec["phi_b_deg"])
        truth_dir = unit(truth["b_theta_deg"], truth["b_phi_deg"])
        accuracy["direction_err_deg"] = line_angle_deg(direction, truth_dir)
        accuracy["b_err_gauss"] = abs(rec["b_mean_gauss"] - truth["b_gauss"])
        if accuracy["direction_err_deg"] > DIRECTION_TOL_DEG:
            failures.append(f"direction error {accuracy['direction_err_deg']:.2f} deg")
            run_failed = True
        if accuracy["b_err_gauss"] > B_TOL_GAUSS:
            failures.append(f"|B| error {accuracy['b_err_gauss']:.4f} G")
            run_failed = True
    return failures, set(stems) if run_failed else failed_nvs, accuracy


def reference_map(spec: dict, optics, pixel_index: np.ndarray, amplitude, background):
    """Independent noiseless intensity at the given flat pixel indices.

    Uses the node-doubled quadrature of ``azimuthal_field_profile`` and
    the dipole factor 1 - (phi_hat . n)^2 written from the lab-frame
    axis vector, not the library's folded-trig fast path.
    """
    from nvvortex.focal_field import azimuthal_field_profile

    iy, ix = np.divmod(pixel_index, spec["width_px"])
    dx = ix * spec["pitch_nm"] - spec["center_nm"][0]
    dy = iy * spec["pitch_nm"] - spec["center_nm"][1]
    rho = np.hypot(dx, dy)
    field = azimuthal_field_profile(rho, 0.0, optics, nodes=2 * optics.quadrature_nodes)
    e2 = field.real**2 + field.imag**2
    n = unit(*spec["axis_deg"])
    safe = np.where(rho > 0.0, rho, 1.0)
    phi_dot_n = (-dy * n[0] + dx * n[1]) / safe
    proj = np.where(rho > 0.0, 1.0 - phi_dot_n**2, 1.0)
    return background + amplitude * e2 * proj


def check_synthesis(
    spec: dict,
    noisy: np.ndarray,
    mean: np.ndarray,
    reference: np.ndarray,
    pixel_index: np.ndarray,
    background: float,
    scan_readback: np.ndarray,
    spectrum_written,
    spectrum_readback,
    pgm_bytes: bytes,
):
    """Check one synthesized NV. Returns (failures, accuracy)."""
    failures: list[str] = []
    width = spec["width_px"]
    if scan_readback.shape != noisy.shape or not np.array_equal(
        scan_readback.view(np.uint64), noisy.view(np.uint64)
    ):
        failures.append("scan CSV read-back differs from the written image")
    if not (
        np.array_equal(
            spectrum_readback.frequencies.view(np.uint64),
            spectrum_written.frequencies.view(np.uint64),
        )
        and np.array_equal(
            spectrum_readback.contrast.view(np.uint64),
            spectrum_written.contrast.view(np.uint64),
        )
    ):
        failures.append("spectrum CSV read-back differs from the written spectrum")
    header = f"P5\n{width} {width}\n65535\n".encode()
    if not pgm_bytes.startswith(header) or len(pgm_bytes) != len(header) + 2 * width * width:
        failures.append("PGM header or size is wrong")

    peak = float(mean.max()) - background
    rel_err = float(np.abs(mean.ravel()[pixel_index] - reference).max()) / peak
    if not rel_err <= MAP_REL_TOL:
        failures.append(f"noiseless map off the reference by {rel_err:.3e} of the peak")
    if not np.array_equal(noisy, np.round(noisy)) or np.any(noisy < 0.0):
        failures.append("Poisson counts are not non-negative integers")
    chi2 = float(np.mean((noisy - mean) ** 2 / mean))
    if abs(chi2 - 1.0) > CHI2_SIGMAS * math.sqrt(2.0 / noisy.size):
        failures.append(f"Poisson chi^2 per pixel {chi2:.4f} is implausible")
    return failures, {"synth_rel_err": rel_err, "poisson_chi2": chi2}
