"""Command-line front end.

Subcommands: simulate-pattern, fit-orientation, odmr, reconstruct,
pipeline. Angles cross this boundary in degrees; everything internal is
radians. Every report embeds the tool version and a hash of the
effective configuration. No step draws random numbers unless asked:
simulated noise is seeded by ``--noise-seed``, so runs are reproducible
byte for byte.

Exit codes: 0 success, 2 usage or validation error, 3 numerical
failure, 4 I/O or parse failure, a closed stdout included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

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
from .orient_fit import OrientationFit, fit_orientation, nearest_tetrahedral_axis
from .pattern import NVOrientation, ScanGrid, simulate_pattern
from .spin import (
    MAX_SWEEP_POINTS,
    MIN_SWEEP_POINTS,
    FieldEstimate,
    OdmrModelFit,
    add_contrast_noise,
    field_estimate,
    fit_odmr_model,
    simulate_odmr_spectrum,
    SweepSettings,
)
from .vector_recon import ConeConstraint, VectorFieldResult, solve_direction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def bundled_fixture_path(name: str) -> Path:
    """The bundled fixture ``name``, a bare file stem such as 'paper_fig4'."""
    path = Path(__file__).with_name("fixtures") / f"{name}.json"
    if Path(name).name != name or not path.is_file():
        raise ConfigError(f"no bundled fixture named '{name}'")
    return path


def _base_report(config: RunConfig) -> dict:
    return {"tool_version": __version__, "config_hash": config_hash(config)}


#: (requirement, test) of a flag value; a failed test exits 2 with a
#: ConfigError that names the flag
_FINITE = ("a finite number", math.isfinite)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)
_POSITIVE = ("a finite number > 0", lambda v: math.isfinite(v) and v > 0)
_POLAR_DEG = ("in [0, 180]", lambda v: 0.0 <= v <= 180.0)
_OPEN_UNIT = ("in (0, 1)", lambda v: 0.0 < v < 1.0)
_PIXELS = ("at least 1", lambda v: v >= 1)
_SWEEP_POINTS = (f"in [{MIN_SWEEP_POINTS}, MAX_SWEEP_POINTS={MAX_SWEEP_POINTS}]",
                 lambda v: MIN_SWEEP_POINTS <= v <= MAX_SWEEP_POINTS)


def _check(args, rule, *flags: str) -> None:
    requirement, ok = rule
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not ok(value):
            raise ConfigError(f"{flag} must be {requirement}, got {value}")


def _emit(report: dict, out_dir: str | None, filename: str) -> None:
    # the file first, so that it is written when stdout is closed
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(report, out / filename)
    print(json.dumps(report, allow_nan=False, indent=2, sort_keys=True), flush=True)


class NVMeasurement(NamedTuple):
    fit: OrientationFit
    model: OdmrModelFit
    estimate: FieldEstimate
    constraint: ConeConstraint


class ChainResult(NamedTuple):
    """What ``measure`` returns: each NV's measurement or exception, keyed
    by label in input order, and the reconstruction or its ``failure``."""

    measurements: dict[str, NVMeasurement]
    errors: dict[str, Exception]
    reconstruction: VectorFieldResult | None
    failure: Exception | None


def measure(nvs, config: RunConfig) -> ChainResult:
    """The measurement chain over ``nvs``, (label, load) pairs whose
    ``load()`` returns the NV's (ScanImage, Spectrum). Each scan gives an
    axis and each spectrum |B| and a cone angle; the cones of three or
    more NVs are intersected into the field vector. The axis is the
    member of {+-n, +-M n} that the fit reports and the cone angle the
    first candidate, ambiguities left to the reconstruction. An NV whose
    load or fit fails, or whose scan the configured optics cannot cover
    (a ValueError), is listed in ``errors``; a repeated label raises
    ValueError."""
    measurements, errors = {}, {}
    for label, load in nvs:
        if label in measurements or label in errors:
            raise ValueError(f"repeated NV label {label!r}")
        try:
            image, spectrum = load()
            fit = fit_orientation(image, config.optics)
            model = fit_odmr_model(spectrum)
            estimate = field_estimate(model.pair, config.spin)
            constraint = ConeConstraint(
                axis=NVOrientation(fit.theta, fit.phi),
                alpha=estimate.alpha_candidates[0],
                b=estimate.b,
                alpha_sigma=estimate.alpha_sigma,
                b_sigma=estimate.b_sigma,
                label=label,
            )
        except (NVVortexError, OSError, ValueError) as exc:
            errors[label] = exc
            continue
        measurements[label] = NVMeasurement(fit, model, estimate, constraint)
    result = failure = None
    if len(measurements) >= 3:
        try:
            result = solve_direction([nv.constraint for nv in measurements.values()])
        except (NVVortexError, ValueError) as exc:
            failure = exc
    return ChainResult(measurements, errors, result, failure)


def _axis_fields(fit: OrientationFit) -> dict:
    return {
        "theta_deg": round(math.degrees(fit.theta), 4),
        "phi_deg": round(math.degrees(fit.phi), 4),
        "mirror_phi_deg": round(math.degrees(fit.mirror_phi), 4),
    }


def _odmr_fields(model: OdmrModelFit, estimate: FieldEstimate) -> dict:
    return {
        "omega1_mhz": model.pair.omega1,
        "omega2_mhz": model.pair.omega2,
        "b_gauss": estimate.b,
        "alpha_candidates_deg": [
            round(math.degrees(a), 4) for a in estimate.alpha_candidates
        ],
    }


# ------------------------------------------------------------------ commands

def cmd_simulate_pattern(args, config: RunConfig) -> int:
    _check(args, _NON_NEGATIVE, "--noise-seed", "--amplitude", "--background")
    _check(args, _FINITE, "--phi-deg", "--center-x-nm", "--center-y-nm", "--z-nm")
    _check(args, _POLAR_DEG, "--theta-deg")
    _check(args, _PIXELS, "--width", "--height")
    _check(args, _POSITIVE, "--pitch-nm")
    grid = ScanGrid(width_px=args.width, height_px=args.height, pitch_nm=args.pitch_nm)
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
        amplitude=args.amplitude,
        background=args.background,
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
    report = _base_report(config)
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
    _emit(report, args.out, f"{args.prefix}.meta.json")
    return EXIT_OK


def cmd_fit_orientation(args, config: RunConfig) -> int:
    _check(args, _FINITE, "--crystal-azimuth-deg")
    image = read_scan_image_csv(args.image)
    fit = fit_orientation(image, config.optics)
    report = _base_report(config)
    report.update(_axis_fields(fit))
    report.update(
        {
            "center_nm": [round(c, 2) for c in fit.center_nm],
            "amplitude": fit.amplitude,
            "background": fit.background,
            "residual": fit.residual,
            "center_iterations": fit.center_iterations,
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
        spectrum = add_contrast_noise(spectrum, args.noise_sigma, args.noise_seed)
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
        _check(args, _NON_NEGATIVE, "--b-gauss", "--noise-sigma", "--noise-seed")
        _check(args, _FINITE, "--b-phi-deg", "--nv-phi-deg", "--sweep-start-mhz",
               "--sweep-stop-mhz")
        _check(args, _POLAR_DEG, "--b-theta-deg", "--nv-theta-deg")
        _check(args, _POSITIVE, "--linewidth-mhz")
        _check(args, _OPEN_UNIT, "--depth")
        _check(args, _SWEEP_POINTS, "--sweep-points")
        if not args.sweep_stop_mhz > args.sweep_start_mhz:
            raise ConfigError(
                f"--sweep-stop-mhz must be greater than --sweep-start-mhz "
                f"({args.sweep_start_mhz}), got {args.sweep_stop_mhz}"
            )
        spectrum = _odmr_spectrum_from_args(args, config)
        source = {
            "simulated": True,
            "b_gauss": args.b_gauss,
            "b_direction_deg": [args.b_theta_deg, args.b_phi_deg],
            "nv_orientation_deg": [args.nv_theta_deg, args.nv_phi_deg],
            "noise_sigma": args.noise_sigma,
            "noise_seed": args.noise_seed,
        }
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_spectrum_csv(spectrum, out / "spectrum.csv")
            source["spectrum"] = str(out / "spectrum.csv")

    model = fit_odmr_model(spectrum)
    estimate = field_estimate(model.pair, config.spin)
    report = _base_report(config)
    report.update(_odmr_fields(model, estimate))
    report.update(
        {
            "source": source,
            "omega1_sigma_mhz": model.pair.sigma1,
            "omega2_sigma_mhz": model.pair.sigma2,
            "linewidth_mhz": model.linewidth_mhz,
            "baseline": model.baseline,
            "dip_centers_mhz": list(model.dip_centers_mhz),
            "b_sigma_gauss": estimate.b_sigma,
            "alpha_sigma_deg": round(math.degrees(estimate.alpha_sigma), 4),
        }
    )
    _emit(report, args.out, "odmr_fit.json")
    return EXIT_OK


def _reconstruction_fields(result: VectorFieldResult, constraints) -> dict:
    report = {
        "theta_b_deg": round(math.degrees(result.theta_b), 2),
        "phi_b_deg": round(math.degrees(result.phi_b), 2),
        "mirror_deg": [round(math.degrees(a), 2) for a in result.mirror],
        "b_mean_gauss": round(result.b_mean, 4),
        "b_std_gauss": round(result.b_std, 4),
        "residual": result.residual,
        "branch_flipped": list(result.branch_flipped),
        "constraints": constraints_to_json(constraints),
    }
    if result.triangle_spread is not None:
        report["triangle_spread_deg"] = round(math.degrees(result.triangle_spread), 4)
        report["triangle_vertices"] = [
            [round(float(c), 6) for c in v] for v in result.triangle_vertices
        ]
    if any(c.alpha_sigma for c in constraints):
        report["direction_sigma_deg"] = round(math.degrees(result.direction_sigma), 4)
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
    report = _base_report(config)
    report.update(_reconstruction_fields(solve_direction(constraints), constraints))
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

    def loader(stem):
        return lambda: (read_scan_image_csv(scans[stem]),
                        read_spectrum_csv(spectra[stem]))

    paired = sorted(set(scans) & set(spectra))
    result = measure([(stem, loader(stem)) for stem in paired], config)
    errors = [{"nv": stem, "error": type(exc).__name__, "message": str(exc)}
              for stem, exc in result.errors.items()]
    errors += [
        {"nv": stem, "error": "UnpairedFile", "message": "no matching scan/spectrum"}
        for stem in sorted(set(scans) ^ set(spectra))
    ]

    report = _base_report(config)
    report["per_nv"] = {
        stem: {**_axis_fields(nv.fit), "pattern_residual": nv.fit.residual,
               **_odmr_fields(nv.model, nv.estimate)}
        for stem, nv in result.measurements.items()
    }
    report["errors"] = errors
    report["note"] = (
        "NV axes use the canonical representative (theta <= 90 deg, phi < 180 "
        "deg); the 180-degree azimuth ambiguity is not resolved by this pipeline."
    )
    report["reconstruction"] = None
    failure = f"only {len(result.measurements)} valid NV(s); need 3 for reconstruction"
    if result.reconstruction is not None:
        report["reconstruction"] = _reconstruction_fields(
            result.reconstruction, [nv.constraint for nv in result.measurements.values()]
        )
    elif (exc := result.failure) is not None:
        errors.append({"nv": None, "stage": "reconstruction",
                       "error": type(exc).__name__, "message": str(exc)})
        failure = f"reconstruction failed: {type(exc).__name__}: {exc}"
    _emit(report, args.out, "pipeline.json")
    if report["reconstruction"] is not None:
        return EXIT_OK
    print(f"pipeline: {failure}", file=sys.stderr)
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
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate-pattern", help="synthesize a confocal scan image")
    common(p)
    p.add_argument("--theta-deg", type=float, required=True)
    p.add_argument("--phi-deg", type=float, required=True)
    p.add_argument("--width", type=int, default=31)
    p.add_argument("--height", type=int, default=31)
    p.add_argument("--pitch-nm", type=float, default=50.0)
    p.add_argument("--amplitude", type=float, default=10000.0)
    p.add_argument("--background", type=float, default=100.0)
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
    p.add_argument("--sweep-start-mhz", type=float, default=SweepSettings.start_mhz)
    p.add_argument("--sweep-stop-mhz", type=float, default=SweepSettings.stop_mhz)
    p.add_argument("--sweep-points", type=int, default=SweepSettings.n_points)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0,
                   help="seed of the contrast noise that --noise-sigma adds")
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
        return args.func(args, load_config(args.config))
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
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
    try:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)},
                       sort_keys=True),
            flush=True,
        )
    except BrokenPipeError:
        _silence_stdout()
    print(f"nvvortex: {type(exc).__name__}: {exc}", file=sys.stderr)


def _silence_stdout() -> None:
    """Points stdout, whose reader has gone, at devnull: nothing more is
    written there, and the interpreter's last flush stays quiet."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
