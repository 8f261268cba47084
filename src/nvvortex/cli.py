"""Command-line front end.

Subcommands: simulate-pattern, fit-orientation, odmr, reconstruct,
pipeline. Angles cross this boundary in degrees; everything internal is
radians. Every report embeds the tool version, a hash of the effective
configuration, and the seed, so runs are reproducible byte for byte.

Exit codes: 0 success, 2 usage or validation error, 3 numerical
failure, 4 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, load_config
from .errors import ConfigError, FileFormatError, NVVortexError
from .fileio import (
    constraints_to_json,
    load_constraints_json,
    read_scan_image_csv,
    read_spectrum_csv,
    write_json,
    write_pgm,
    write_scan_image_csv,
    write_spectrum_csv,
)
from .orient_fit import fit_orientation, nearest_tetrahedral_axis
from .pattern import NVOrientation, ScanGrid, simulate_pattern
from .spin import (
    add_contrast_noise,
    field_estimate,
    fit_odmr_model,
    simulate_odmr_spectrum,
    SweepSettings,
)
from .vector_recon import ConeConstraint, solve_direction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def bundled_fixture_path(name: str) -> Path:
    """Path of a fixture shipped inside the package (e.g. 'paper_fig4')."""
    candidate = resources.files("nvvortex") / "fixtures" / f"{name}.json"
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise ConfigError(f"no bundled fixture named '{name}'")
        return Path(path)


def _base_report(config: RunConfig, seed: int) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config_hash(config),
        "seed": seed,
    }


def _emit(report: dict, out_dir: str | None, filename: str) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(report, out / filename)


# ------------------------------------------------------------------ commands

def cmd_simulate_pattern(args, config: RunConfig) -> int:
    pat = config.pattern
    grid = ScanGrid(
        width_px=args.width if args.width is not None else pat.width_px,
        height_px=args.height if args.height is not None else pat.height_px,
        pitch_nm=args.pitch_nm if args.pitch_nm is not None else pat.pitch_nm,
    )
    orientation = NVOrientation.from_degrees(args.theta_deg, args.phi_deg)
    center = None
    if args.center_x_nm is not None or args.center_y_nm is not None:
        cx, cy = grid.center_nm
        center = (
            args.center_x_nm if args.center_x_nm is not None else cx,
            args.center_y_nm if args.center_y_nm is not None else cy,
        )
    image = simulate_pattern(
        orientation,
        grid,
        config.optics,
        amplitude=args.amplitude if args.amplitude is not None else pat.amplitude,
        background=args.background if args.background is not None else pat.background,
        noise_seed=args.noise_seed,
        center_nm=center,
        z_nm=args.z_nm,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.prefix}.csv"
    pgm_path = out / f"{args.prefix}.pgm"
    write_scan_image_csv(image, csv_path)
    write_pgm(image, pgm_path)
    report = _base_report(config, args.seed)
    report.update(
        {
            "theta_deg": args.theta_deg,
            "phi_deg": args.phi_deg,
            "noise_seed": args.noise_seed,
            "grid": {
                "width_px": grid.width_px,
                "height_px": grid.height_px,
                "pitch_nm": grid.pitch_nm,
            },
            "files": {"csv": str(csv_path), "pgm": str(pgm_path)},
        }
    )
    write_json(report, out / f"{args.prefix}.meta.json")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_fit_orientation(args, config: RunConfig) -> int:
    image = read_scan_image_csv(args.image)
    fit = fit_orientation(image, config.optics)
    report = _base_report(config, args.seed)
    report.update(
        {
            "theta_deg": round(math.degrees(fit.theta), 4),
            "phi_deg": round(math.degrees(fit.phi), 4),
            "mirror_phi_deg": round(math.degrees(fit.mirror_phi), 4),
            "center_nm": [round(c, 2) for c in fit.center_nm],
            "amplitude": fit.amplitude,
            "background": fit.background,
            "residual": fit.residual,
            "converged": fit.converged,
            "center_iterations": fit.center_iterations,
            "phi_identifiable": fit.phi_identifiable,
        }
    )
    if args.crystal is not None:
        index, mismatch, rep = nearest_tetrahedral_axis(
            fit.theta, fit.phi, math.radians(args.crystal_azimuth_deg)
        )
        report["crystal"] = {
            "cut": args.crystal,
            "azimuth_offset_deg": args.crystal_azimuth_deg,
            "nearest_axis_index": index,
            "mismatch_deg": round(math.degrees(mismatch), 4),
            "unfolded_theta_deg": round(math.degrees(rep[0]), 4),
            "unfolded_phi_deg": round(math.degrees(rep[1]), 4),
        }
    _emit(report, args.out, "fit_orientation.json")
    return EXIT_OK


def _odmr_spectrum_from_args(args, config: RunConfig):
    sweep = SweepSettings(
        start_mhz=args.sweep_start_mhz,
        stop_mhz=args.sweep_stop_mhz,
        n_points=args.sweep_points,
    )
    b_dir = NVOrientation.from_degrees(args.b_theta_deg, args.b_phi_deg)
    spectrum = simulate_odmr_spectrum(
        args.b_gauss * b_dir.unit_axis,
        NVOrientation.from_degrees(args.nv_theta_deg, args.nv_phi_deg),
        config.spin,
        linewidth_mhz=args.linewidth_mhz,
        contrast_depth=args.depth,
        sweep=sweep,
    )
    if args.noise_sigma > 0.0:
        spectrum = add_contrast_noise(spectrum, args.noise_sigma, args.seed)
    return spectrum


def cmd_odmr(args, config: RunConfig) -> int:
    if (args.spectrum is None) == (not args.simulate):
        raise ConfigError("odmr needs exactly one of --spectrum PATH or --simulate")
    if args.spectrum is not None:
        spectrum = read_spectrum_csv(args.spectrum)
        source = {"spectrum": str(args.spectrum)}
    else:
        for name in ("b_gauss", "b_theta_deg", "b_phi_deg", "nv_theta_deg", "nv_phi_deg"):
            if getattr(args, name) is None:
                raise ConfigError(f"--simulate requires --{name.replace('_', '-')}")
        spectrum = _odmr_spectrum_from_args(args, config)
        source = {
            "simulated": True,
            "b_gauss": args.b_gauss,
            "b_direction_deg": [args.b_theta_deg, args.b_phi_deg],
            "nv_orientation_deg": [args.nv_theta_deg, args.nv_phi_deg],
            "noise_sigma": args.noise_sigma,
        }
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_spectrum_csv(spectrum, out / "spectrum.csv")
            source["spectrum"] = str(out / "spectrum.csv")

    model = fit_odmr_model(spectrum)
    estimate = field_estimate(model.pair, config.spin)
    report = _base_report(config, args.seed)
    report.update(
        {
            "source": source,
            "omega1_mhz": model.pair.omega1,
            "omega2_mhz": model.pair.omega2,
            "omega1_sigma_mhz": model.pair.sigma1,
            "omega2_sigma_mhz": model.pair.sigma2,
            "linewidth_mhz": model.linewidth_mhz,
            "dip_centers_mhz": list(model.dip_centers_mhz),
            "b_gauss": estimate.b,
            "b_sigma_gauss": estimate.b_sigma,
            "alpha_candidates_deg": [
                round(math.degrees(a), 4) for a in estimate.alpha_candidates
            ],
            "alpha_sigma_deg": (
                round(math.degrees(estimate.alpha_sigma), 4)
                if estimate.alpha_sigma is not None
                else None
            ),
        }
    )
    _emit(report, args.out, "odmr_fit.json")
    return EXIT_OK


def _reconstruction_report(constraints, config: RunConfig, seed: int) -> dict:
    result = solve_direction(constraints, seed=seed)
    report = _base_report(config, seed)
    report.update(
        {
            "theta_b_deg": round(math.degrees(result.theta_b), 2),
            "phi_b_deg": round(math.degrees(result.phi_b), 2),
            "mirror_deg": [round(math.degrees(a), 2) for a in result.mirror],
            "b_mean_gauss": round(result.b_mean, 4),
            "b_std_gauss": round(result.b_std, 4),
            "residual": result.residual,
            "branch_flipped": list(result.branch_flipped),
            "constraints": constraints_to_json(constraints),
        }
    )
    if result.triangle_spread is not None:
        report["triangle_spread_deg"] = round(math.degrees(result.triangle_spread), 4)
        report["triangle_vertices"] = [
            [round(float(c), 6) for c in v] for v in result.triangle_vertices
        ]
    if result.direction_sigma is not None:
        report["direction_sigma_deg"] = round(
            math.degrees(result.direction_sigma), 4
        )
    return report


def cmd_reconstruct(args, config: RunConfig) -> int:
    if (args.constraints is None) == (args.fixture is None):
        raise ConfigError(
            "reconstruct needs exactly one of --constraints PATH or --fixture NAME"
        )
    path = (
        Path(args.constraints)
        if args.constraints is not None
        else bundled_fixture_path(args.fixture)
    )
    constraints = load_constraints_json(path)
    if len(constraints) < 3:
        raise ConfigError(
            f"reconstruction needs at least 3 constraints, got {len(constraints)}"
        )
    report = _reconstruction_report(constraints, config, args.seed)
    _emit(report, args.out, "reconstruction.json")
    return EXIT_OK


def cmd_pipeline(args, config: RunConfig) -> int:
    scan_dir = Path(args.scans)
    spectra_dir = Path(args.spectra)
    if not scan_dir.is_dir() or not spectra_dir.is_dir():
        raise ConfigError("--scans and --spectra must be existing directories")
    scans = {p.stem: p for p in sorted(scan_dir.glob("*.csv"))}
    spectra = {p.stem: p for p in sorted(spectra_dir.glob("*.csv"))}
    if not scans or not spectra:
        raise ConfigError("scan and spectra directories must both contain CSV files")

    errors: list[dict] = []
    per_nv: dict[str, dict] = {}
    constraints: list[ConeConstraint] = []
    for stem in sorted(set(scans) & set(spectra)):
        entry: dict = {}
        try:
            image = read_scan_image_csv(scans[stem])
            fit = fit_orientation(image, config.optics)
            model = fit_odmr_model(read_spectrum_csv(spectra[stem]))
            estimate = field_estimate(model.pair, config.spin)
        except (NVVortexError, OSError) as exc:
            errors.append({"nv": stem, "error": type(exc).__name__, "message": str(exc)})
            continue
        entry.update(
            {
                "theta_deg": round(math.degrees(fit.theta), 4),
                "phi_deg": round(math.degrees(fit.phi), 4),
                "mirror_phi_deg": round(math.degrees(fit.mirror_phi), 4),
                "pattern_residual": fit.residual,
                "omega1_mhz": model.pair.omega1,
                "omega2_mhz": model.pair.omega2,
                "b_gauss": estimate.b,
                "alpha_candidates_deg": [
                    round(math.degrees(a), 4) for a in estimate.alpha_candidates
                ],
            }
        )
        per_nv[stem] = entry
        constraints.append(
            ConeConstraint(
                axis=NVOrientation(fit.theta, fit.phi),
                alpha=estimate.alpha_candidates[0],
                b=estimate.b,
                alpha_sigma=estimate.alpha_sigma or 0.0,
                b_sigma=estimate.b_sigma or 0.0,
                label=stem,
            )
        )
    missing = sorted(set(scans) ^ set(spectra))
    for stem in missing:
        errors.append(
            {"nv": stem, "error": "UnpairedFile", "message": "no matching scan/spectrum"}
        )

    report = _base_report(config, args.seed)
    report["per_nv"] = per_nv
    report["errors"] = errors
    report["note"] = (
        "NV axes use the canonical representative (theta <= 90 deg, phi < 180 "
        "deg); the 180-degree azimuth ambiguity is not resolved by this pipeline."
    )
    if len(constraints) >= 3:
        report["reconstruction"] = _reconstruction_report(
            constraints, config, args.seed
        )
        _emit(report, args.out, "pipeline.json")
        return EXIT_OK
    report["reconstruction"] = None
    _emit(report, args.out, "pipeline.json")
    print(
        f"pipeline: only {len(constraints)} valid NV(s); need 3 for reconstruction",
        file=sys.stderr,
    )
    return EXIT_NUMERICAL


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvvortex",
        description=(
            "Vector magnetometry with NV centers under azimuthally polarized "
            "excitation: synthesize scan patterns, fit orientations, fit and "
            "invert ODMR spectra, and reconstruct the field vector."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (default: config fit.seed)")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate-pattern", help="synthesize a confocal scan image")
    common(p)
    p.add_argument("--theta-deg", type=float, required=True)
    p.add_argument("--phi-deg", type=float, required=True)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--pitch-nm", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--background", type=float, default=None)
    p.add_argument("--center-x-nm", type=float, default=None)
    p.add_argument("--center-y-nm", type=float, default=None)
    p.add_argument("--z-nm", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=None,
                   help="enable Poisson noise with this seed")
    p.add_argument("--prefix", default="pattern")
    p.set_defaults(func=cmd_simulate_pattern, out=".")

    p = sub.add_parser("fit-orientation", help="fit NV orientation from a scan CSV")
    common(p)
    p.add_argument("--image", required=True, help="scan image CSV")
    p.add_argument("--crystal", choices=["111"], default=None,
                   help="label the fit with the nearest tetrahedral axis")
    p.add_argument("--crystal-azimuth-deg", type=float, default=0.0)
    p.set_defaults(func=cmd_fit_orientation)

    p = sub.add_parser("odmr", help="fit a spectrum (or simulate one) and invert")
    common(p)
    p.add_argument("--spectrum", default=None, help="two-column spectrum CSV")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--b-gauss", type=float, default=None)
    p.add_argument("--b-theta-deg", type=float, default=None)
    p.add_argument("--b-phi-deg", type=float, default=None)
    p.add_argument("--nv-theta-deg", type=float, default=None)
    p.add_argument("--nv-phi-deg", type=float, default=None)
    p.add_argument("--linewidth-mhz", type=float, default=0.8)
    p.add_argument("--depth", type=float, default=0.03)
    p.add_argument("--sweep-start-mhz", type=float, default=2780.0)
    p.add_argument("--sweep-stop-mhz", type=float, default=2980.0)
    p.add_argument("--sweep-points", type=int, default=2001)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.set_defaults(func=cmd_odmr)

    p = sub.add_parser("reconstruct", help="field vector from cone constraints")
    common(p)
    p.add_argument("--constraints", default=None, help="constraints JSON")
    p.add_argument("--fixture", default=None,
                   help="bundled fixture name, e.g. paper_fig4")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("pipeline", help="fit scans + spectra, then reconstruct")
    common(p)
    p.add_argument("--scans", required=True, help="directory of scan CSVs")
    p.add_argument("--spectra", required=True, help="directory of spectrum CSVs")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is None:
            args.seed = config.fit.seed
        return args.func(args, config)
    except ConfigError as exc:
        _print_error(exc)
        return EXIT_USAGE
    except ValueError as exc:
        _print_error(exc)
        return EXIT_USAGE
    except FileFormatError as exc:
        _print_error(exc)
        return EXIT_IO
    except NVVortexError as exc:
        _print_error(exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        _print_error(exc)
        return EXIT_IO


def _print_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
    )
    print(f"nvvortex: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
