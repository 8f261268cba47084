#!/usr/bin/env python3
"""End-to-end synthetic demonstration of the vector magnetometer.

Picks a ground-truth field, synthesizes scan patterns and ODMR spectra
for three differently oriented NV centers, runs each through the same
measurement chain as ``nvvortex pipeline`` (``cli.measure_nv``: orientation
fit -> spectrum fit -> inversion), intersects the cones, and compares the
recovered field against the truth.
"""

import argparse
import math

import numpy as np

from nvvortex.cli import measure_nv
from nvvortex.config import RunConfig
from nvvortex.pattern import NVOrientation, ScanGrid, simulate_pattern
from nvvortex.spin import add_contrast_noise, simulate_odmr_spectrum
from nvvortex.vector_recon import solve_direction

NV_ANGLES_DEG = [(70.16, 20.60), (70.75, 80.51), (70.69, 140.74)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b-gauss", type=float, default=59.5)
    parser.add_argument("--b-theta-deg", type=float, default=8.59)
    parser.add_argument("--b-phi-deg", type=float, default=2.56)
    parser.add_argument("--poisson-peak", type=float, default=1e4,
                        help="peak counts for pattern shot noise (0 = noiseless)")
    parser.add_argument("--contrast-noise", type=float, default=0.002)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = RunConfig()
    optics, spin = config.optics, config.spin
    grid = ScanGrid(31, 31, 50.0)
    b_dir = NVOrientation.from_degrees(args.b_theta_deg, args.b_phi_deg)
    b_vec = args.b_gauss * b_dir.unit_axis

    constraints = []
    print(f"truth: |B| = {args.b_gauss:.3f} G along "
          f"(theta={args.b_theta_deg:.2f}, phi={args.b_phi_deg:.2f}) deg\n")
    for i, (theta_deg, phi_deg) in enumerate(NV_ANGLES_DEG, start=1):
        true_orientation = NVOrientation.from_degrees(theta_deg, phi_deg)

        if args.poisson_peak > 0:
            clean = simulate_pattern(true_orientation, grid, optics)
            scale = args.poisson_peak / clean.values.max()
            image = simulate_pattern(
                true_orientation, grid, optics, amplitude=scale,
                background=0.005 * args.poisson_peak, noise_seed=args.seed + i,
            )
        else:
            image = simulate_pattern(true_orientation, grid, optics)
        spectrum = simulate_odmr_spectrum(
            b_vec, true_orientation, spin, linewidth_mhz=0.8, contrast_depth=0.03
        )
        if args.contrast_noise > 0:
            spectrum = add_contrast_noise(spectrum, args.contrast_noise,
                                          args.seed + 100 + i)
        fit, _, estimate, constraint = measure_nv(image, spectrum, config, f"NV{i}")

        alpha_true = math.degrees(
            math.acos(float(np.clip(b_dir.unit_axis @ true_orientation.unit_axis,
                                    -1, 1)))
        )
        alpha_fit = min(
            estimate.alpha_candidates,
            key=lambda a: abs(math.degrees(a) - alpha_true),
        )
        print(
            f"NV{i}: axis fit ({math.degrees(fit.theta):7.3f}, "
            f"{math.degrees(fit.phi):8.3f}) deg  "
            f"B = {estimate.b:7.3f} G  "
            f"alpha = {math.degrees(alpha_fit):8.3f} deg "
            f"(true {alpha_true:8.3f})"
        )
        constraints.append(constraint)

    result = solve_direction(constraints)
    got = result.direction
    want = b_dir.unit_axis
    err_deg = math.degrees(
        2 * math.asin(min(np.linalg.norm(got - want), np.linalg.norm(got + want)) / 2)
    )
    print(
        f"\nreconstructed: theta_B = {math.degrees(result.theta_b):.2f} deg, "
        f"phi_B = {math.degrees(result.phi_b):.2f} deg "
        f"(mirror {math.degrees(result.mirror[0]):.2f}, "
        f"{math.degrees(result.mirror[1]):.2f})"
    )
    print(f"|B| = {result.b_mean:.3f} +/- {result.b_std:.3f} G")
    if result.triangle_spread is not None:
        print(f"triangle spread = {math.degrees(result.triangle_spread):.4f} deg")
    if result.direction_sigma is not None:
        print(f"first-order direction sigma = "
              f"{math.degrees(result.direction_sigma):.4f} deg")
    print(f"direction error vs truth (mod antipode) = {err_deg:.4f} deg")


if __name__ == "__main__":
    main()
