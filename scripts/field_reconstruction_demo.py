#!/usr/bin/env python3
"""End-to-end synthetic demonstration of the vector magnetometer.

Picks a ground-truth field, synthesizes a scan pattern and an ODMR
spectrum for three NV centers along the fig-2 axes NV1-NV3 as they lie
in the crystal, read from the bundled ``paper_fig2_orientations.json``,
runs them in memory through ``cli.measure``, the chain of ``nvvortex
pipeline`` (orientation fit -> spectrum fit -> inversion -> cone
intersection), and compares the reconstructed field with the truth.
Exits 3, as the pipeline does, when no field is reconstructed.
"""

import argparse
import functools
import math
import sys

import numpy as np

from nvvortex import cli
from nvvortex.config import RunConfig
from nvvortex.fileio import read_json
from nvvortex.pattern import NVOrientation, ScanGrid, simulate_pattern
from nvvortex.spin import add_contrast_noise, simulate_odmr_spectrum


def fig2_axes_deg() -> list[tuple[float, float]]:
    """(theta, phi) in degrees of NV1, NV2 and NV3 of the bundled fig-2
    orientations."""
    fixture = read_json(cli.bundled_fixture_path("paper_fig2_orientations"))
    entries = {entry["label"]: entry for entry in fixture}
    return [(entries[k]["theta_deg"], entries[k]["phi_deg"])
            for k in ("NV1", "NV2", "NV3")]


def synthesize(args, i: int, orientation: NVOrientation, b_vec: np.ndarray):
    """The scan and the spectrum of NV ``i`` along ``orientation``."""
    config = RunConfig()
    grid = ScanGrid(31, 31, 50.0)
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
        spectrum = add_contrast_noise(spectrum, args.contrast_noise, args.seed + 100 + i)
    return image, spectrum


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
    b_vec = args.b_gauss * b_dir.unit_axis
    result = cli.measure(
        [(f"NV{i}", functools.partial(synthesize, args, i,
                                      NVOrientation.from_degrees(*axis), b_vec))
         for i, axis in enumerate(axes_deg, start=1)],
        RunConfig(),
    )
    recon = result.reconstruction
    if recon is None:
        for stage, exc in {**result.errors, "reconstruction": result.failure}.items():
            if exc is not None:
                print(f"{stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return cli.EXIT_NUMERICAL

    deg = math.degrees
    print(f"truth: |B| = {args.b_gauss:.3f} G along "
          f"(theta={args.b_theta_deg:.2f}, phi={args.b_phi_deg:.2f}) deg\n")
    for i, (theta_deg, phi_deg) in enumerate(axes_deg, start=1):
        nv = result.measurements[f"NV{i}"]
        axis = NVOrientation.from_degrees(theta_deg, phi_deg).unit_axis
        alpha_true = math.acos(float(np.clip(b_dir.unit_axis @ axis, -1, 1)))
        alpha_fit = min(nv.estimate.alpha_candidates, key=lambda a: abs(a - alpha_true))
        print(
            f"NV{i}: axis ({theta_deg:7.2f}, {phi_deg:7.2f}) deg, "
            f"fit ({deg(nv.fit.theta):7.3f}, {deg(nv.fit.phi):8.3f}) deg  "
            f"B = {nv.estimate.b:7.3f} G  "
            f"alpha = {deg(alpha_fit):8.3f} deg (true {deg(alpha_true):8.3f})"
        )

    got, want = recon.direction, b_dir.unit_axis
    err_deg = deg(
        2 * math.asin(min(np.linalg.norm(got - want), np.linalg.norm(got + want)) / 2)
    )
    print(
        f"\nreconstructed: theta_B = {deg(recon.theta_b):.2f} deg, "
        f"phi_B = {deg(recon.phi_b):.2f} deg "
        f"(mirror {deg(recon.mirror[0]):.2f}, {deg(recon.mirror[1]):.2f})"
    )
    print(f"|B| = {recon.b_mean:.3f} +/- {recon.b_std:.3f} G")
    if recon.triangle_spread is not None:
        print(f"triangle spread = {deg(recon.triangle_spread):.4f} deg")
    print(f"first-order direction sigma = {deg(recon.direction_sigma):.4f} deg")
    print(f"direction error vs truth (mod antipode) = {err_deg:.4f} deg")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
