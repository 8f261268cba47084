#!/usr/bin/env python3
"""End-to-end synthetic demonstration of the vector magnetometer.

Picks a ground-truth field, synthesizes a scan pattern and an ODMR
spectrum for three NV centers along the fig-2 axes NV1-NV3 as they lie
in the crystal, read from the bundled ``paper_fig2_orientations.json``,
writes them to a temporary directory, runs ``nvvortex pipeline`` on it
(orientation fit -> spectrum fit -> inversion -> cone intersection)
and compares the reported field with the truth. Exits with the
pipeline's status.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from nvvortex import cli
from nvvortex.config import RunConfig
from nvvortex.fileio import write_scan_image_csv, write_spectrum_csv
from nvvortex.pattern import NVOrientation, ScanGrid, simulate_pattern
from nvvortex.spin import add_contrast_noise, simulate_odmr_spectrum


def fig2_axes_deg() -> list[tuple[float, float]]:
    """(theta, phi) in degrees of NV1, NV2 and NV3 of the bundled fig-2
    orientations."""
    with open(cli.bundled_fixture_path("paper_fig2_orientations")) as handle:
        entries = {entry["label"]: entry for entry in json.load(handle)}
    return [(entries[k]["theta_deg"], entries[k]["phi_deg"])
            for k in ("NV1", "NV2", "NV3")]


def synthesize(args, axes_deg, b_vec: np.ndarray, scans: Path, spectra: Path) -> None:
    """One scan CSV and one spectrum CSV per NV axis, named NV1.csv ..."""
    config = RunConfig()
    grid = ScanGrid(31, 31, 50.0)
    for i, (theta_deg, phi_deg) in enumerate(axes_deg, start=1):
        orientation = NVOrientation.from_degrees(theta_deg, phi_deg)
        if args.poisson_peak > 0:
            clean = simulate_pattern(orientation, grid, config.optics)
            image = simulate_pattern(
                orientation, grid, config.optics,
                amplitude=args.poisson_peak / clean.values.max(),
                background=0.005 * args.poisson_peak, noise_seed=args.seed + i,
            )
        else:
            image = simulate_pattern(orientation, grid, config.optics)
        spectrum = simulate_odmr_spectrum(
            b_vec, orientation, config.spin, linewidth_mhz=0.8, contrast_depth=0.03
        )
        if args.contrast_noise > 0:
            spectrum = add_contrast_noise(spectrum, args.contrast_noise,
                                          args.seed + 100 + i)
        write_scan_image_csv(image, scans / f"NV{i}.csv")
        write_spectrum_csv(spectrum, spectra / f"NV{i}.csv")


def run_pipeline(scans: Path, spectra: Path) -> tuple[int, dict]:
    """``nvvortex pipeline`` in this process: its exit status and report."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["pipeline", "--scans", str(scans), "--spectra", str(spectra)])
    return code, json.loads(stdout.getvalue())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b-gauss", type=float, default=59.5)
    parser.add_argument("--b-theta-deg", type=float, default=8.59)
    parser.add_argument("--b-phi-deg", type=float, default=182.56)
    parser.add_argument("--poisson-peak", type=float, default=1e4,
                        help="peak counts for pattern shot noise (0 = noiseless)")
    parser.add_argument("--contrast-noise", type=float, default=0.002)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    axes_deg = fig2_axes_deg()
    b_dir = NVOrientation.from_degrees(args.b_theta_deg, args.b_phi_deg)
    with tempfile.TemporaryDirectory() as tmp:
        scans, spectra = Path(tmp, "scans"), Path(tmp, "spectra")
        scans.mkdir()
        spectra.mkdir()
        synthesize(args, axes_deg, args.b_gauss * b_dir.unit_axis, scans, spectra)
        code, report = run_pipeline(scans, spectra)
    if code != cli.EXIT_OK:
        print(json.dumps(report, indent=2, sort_keys=True), file=sys.stderr)
        return code

    print(f"truth: |B| = {args.b_gauss:.3f} G along "
          f"(theta={args.b_theta_deg:.2f}, phi={args.b_phi_deg:.2f}) deg\n")
    for i, (theta_deg, phi_deg) in enumerate(axes_deg, start=1):
        nv = report["per_nv"][f"NV{i}"]
        axis = NVOrientation.from_degrees(theta_deg, phi_deg).unit_axis
        alpha_true = math.degrees(
            math.acos(float(np.clip(b_dir.unit_axis @ axis, -1, 1)))
        )
        alpha_fit = min(nv["alpha_candidates_deg"], key=lambda a: abs(a - alpha_true))
        print(
            f"NV{i}: axis ({theta_deg:7.2f}, {phi_deg:7.2f}) deg, "
            f"fit ({nv['theta_deg']:7.3f}, {nv['phi_deg']:8.3f}) deg  "
            f"B = {nv['b_gauss']:7.3f} G  "
            f"alpha = {alpha_fit:8.3f} deg (true {alpha_true:8.3f})"
        )

    recon = report["reconstruction"]
    got = NVOrientation.from_degrees(recon["theta_b_deg"], recon["phi_b_deg"]).unit_axis
    want = b_dir.unit_axis
    err_deg = math.degrees(
        2 * math.asin(min(np.linalg.norm(got - want), np.linalg.norm(got + want)) / 2)
    )
    print(
        f"\nreconstructed: theta_B = {recon['theta_b_deg']:.2f} deg, "
        f"phi_B = {recon['phi_b_deg']:.2f} deg "
        f"(mirror {recon['mirror_deg'][0]:.2f}, {recon['mirror_deg'][1]:.2f})"
    )
    print(f"|B| = {recon['b_mean_gauss']:.3f} +/- {recon['b_std_gauss']:.3f} G")
    if "triangle_spread_deg" in recon:
        print(f"triangle spread = {recon['triangle_spread_deg']:.4f} deg")
    if "direction_sigma_deg" in recon:
        print(f"first-order direction sigma = {recon['direction_sigma_deg']:.4f} deg")
    print(f"direction error vs truth (mod antipode) = {err_deg:.4f} deg")
    return code


if __name__ == "__main__":
    sys.exit(main())
