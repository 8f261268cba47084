"""Seeded input generation for the three benchmark workloads.

Every input is built with public ``nvvortex`` functions from the
workload seed, so the same seed gives byte-identical files. The truth
(field vector, physical NV axes, true mI = 0 middle lines) is written to
``truth.json`` beside the inputs; the program under test is only ever
given the ``scans/`` and ``spectra/`` directories.

The physical NV axes are the fig-2 orientations in their
non-canonical form (theta > 90 deg for NV1-NV3), so the pipeline's
canonical-axis folding is exercised exactly as on real data. They are
copied here rather than read from the package fixture, so that a change
to the fixture cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from nvvortex import fileio, pattern, spin
from nvvortex.focal_field import OpticalConfig

#: fig-2 axes in degrees (theta, phi), physical orientation
FIG2_AXES_DEG = {
    "NV0": (0.37, 153.68),
    "NV1": (109.84, 20.60),
    "NV2": (109.25, 260.51),
    "NV3": (109.31, 140.74),
}
#: true field: 59.5 G at (8.59, 182.56) deg
B_GAUSS = 59.5
B_THETA_DEG = 8.59
B_PHI_DEG = 182.56

#: scan synthesis: the CLI's default amplitude and background
AMPLITUDE = 10000.0
BACKGROUND = 100.0
PITCH_NM = 50.0
SPECTRUM_NOISE = 0.002

#: CLI default sweep, 2780-2980 MHz at 0.1 MHz
DEFAULT_SWEEP = spin.SweepSettings()
#: same 0.1 MHz step, widened so NV0's lines near 2704 and 3036 MHz are
#: inside with a 20 MHz margin
WIDE_SWEEP = spin.SweepSettings(start_mhz=2680.0, stop_mhz=3060.0, n_points=3801)
SWEEP_MARGIN_MHZ = 10.0


def b_vector() -> np.ndarray:
    return B_GAUSS * pattern.NVOrientation.from_degrees(B_THETA_DEG, B_PHI_DEG).unit_axis


def noise_seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds for (workload seed, stream)."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


def write_pipeline_inputs(
    out_dir: Path, labels: list[str], sweep, seed: int, stream: int, width_px: int = 31
) -> dict:
    """Scans and spectra for one NV set; returns (and stores) the truth.

    One scan and one spectrum per NV, named ``<index>-<label>.csv`` so
    that repeated axes stay distinct. Scans are ``width_px`` square at
    50 nm pitch with Poisson noise; spectra carry Gaussian contrast
    noise of 0.002.
    """
    scans = out_dir / "scans"
    spectra = out_dir / "spectra"
    scans.mkdir(parents=True, exist_ok=True)
    spectra.mkdir(parents=True, exist_ok=True)
    grid = pattern.ScanGrid(width_px, width_px, PITCH_NM)
    optics = OpticalConfig()
    params = spin.SpinParams()
    b_vec = b_vector()
    seeds = noise_seeds(seed, stream, 2 * len(labels))
    truth = {
        "b_gauss": B_GAUSS,
        "b_theta_deg": B_THETA_DEG,
        "b_phi_deg": B_PHI_DEG,
        "nvs": {},
    }
    for i, label in enumerate(labels):
        stem = f"{i}-{label}"
        theta_deg, phi_deg = FIG2_AXES_DEG[label]
        orientation = pattern.NVOrientation.from_degrees(theta_deg, phi_deg)
        image = pattern.simulate_pattern(
            orientation, grid, optics, amplitude=AMPLITUDE, background=BACKGROUND,
            noise_seed=seeds[2 * i],
        )
        fileio.write_scan_image_csv(image, scans / f"{stem}.csv")
        clean = spin.simulate_odmr_spectrum(b_vec, orientation, params, sweep=sweep)
        lines = clean.metadata["lines_mhz"]
        lo, hi = sweep.start_mhz + SWEEP_MARGIN_MHZ, sweep.stop_mhz - SWEEP_MARGIN_MHZ
        if min(lines) < lo or max(lines) > hi:
            raise ValueError(f"{label}: lines {lines} fall outside the sweep margin")
        noisy = spin.add_contrast_noise(clean, SPECTRUM_NOISE, seeds[2 * i + 1])
        fileio.write_spectrum_csv(noisy, spectra / f"{stem}.csv")
        truth["nvs"][stem] = {
            "theta_deg": theta_deg,
            "phi_deg": phi_deg,
            "omega_mid_mhz": sorted((float(lines[1]), float(lines[4]))),
        }
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True))
    return truth


def synth_spec(seed: int, k: int, width_px: int = 256) -> dict:
    """Parameters of synthesis operation ``k``.

    Orientations cycle through the four fig-2 axes, starting at an
    offset set by the seed. Even operations put the NV at the grid
    centre, where most pixel radii repeat up to 8-fold; odd ones shift
    it by a seeded sub-pixel offset, which makes every radius distinct.
    """
    labels = sorted(FIG2_AXES_DEG)
    label = labels[(seed + k) % len(labels)]
    scan_seed, spectrum_seed, ox, oy = noise_seeds(seed, 1000 + k, 4)
    grid = pattern.ScanGrid(width_px, width_px, PITCH_NM)
    centred = k % 2 == 0
    if centred:
        center = grid.center_nm
    else:
        # uniform in (-0.5, 0.5) pixel on each axis, never exactly 0
        cx, cy = grid.center_nm
        center = (
            cx + PITCH_NM * ((ox + 0.5) / 2.0**32 - 0.5),
            cy + PITCH_NM * ((oy + 0.5) / 2.0**32 - 0.5),
        )
    return {
        "label": label,
        "axis_deg": FIG2_AXES_DEG[label],
        "width_px": width_px,
        "pitch_nm": PITCH_NM,
        "centred": centred,
        "center_nm": [float(center[0]), float(center[1])],
        "scan_seed": scan_seed,
        "spectrum_seed": spectrum_seed,
    }
