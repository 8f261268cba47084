"""Benchmark worker: one process that imports the program, sets up and
runs operations until told to stop, then writes its records as JSON.

Modes:
  warm        pipeline-warm-8nv: one long-lived process calls
              ``nvvortex.cli.main(["pipeline", ...])`` after one cold call
  synth       synthesize-256: one long-lived process synthesizes one NV
              per operation
  cli-traced  one traced ``nvvortex pipeline`` run in a fresh process, the
              traced counterpart of ``python -m nvvortex.cli pipeline``

The parent passes its monotonic clock reading at spawn time, so set-up
is measured from a fresh interpreter to the first warm operation. In a
traced run every operation is run twice, untraced and then traced, and
the untraced walls are the reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path


def _import_program() -> float:
    start = time.perf_counter()
    import nvvortex.cli  # noqa: F401  (the import is what is timed)

    return time.perf_counter() - start


@contextlib.contextmanager
def tracing(tracer):
    """Record spans inside the block when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


def call_pipeline(argv: list[str], tracer=None) -> tuple[int, dict | None, float]:
    """Run ``nvvortex.cli.main`` in process; (exit status, report, wall)."""
    from nvvortex import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), tracing(tracer):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        report = None
    return rc, report, wall


def solve_without_bootstrap(tracer) -> float:
    """Re-solve the constraints the traced run passed to
    ``solve_direction`` with ``bootstrap_samples=0``; seconds taken, or 0
    when no solve was seen or the parameter no longer exists."""
    captured = tracer.last_args.get("vector_recon.solve")
    if captured is None:
        return 0.0
    from nvvortex import vector_recon

    args, kwargs = captured
    start = time.perf_counter()
    try:
        vector_recon.solve_direction(*args, **{**kwargs, "bootstrap_samples": 0})
    except TypeError:
        return 0.0
    return time.perf_counter() - start


class WarmPipeline:
    min_ops = 1

    def __init__(self, opts):
        import checks

        self.checks = checks
        work = Path(opts.work)
        self.truth = json.loads((work / "truth.json").read_text())
        self.argv = [
            "pipeline", "--scans", str(work / "scans"), "--spectra", str(work / "spectra")
        ]

    def setup(self, tracer=None) -> None:
        call_pipeline(self.argv, tracer)

    def op(self, k: int, tracer=None) -> dict:
        rc, report, wall = call_pipeline(self.argv, tracer)
        failures, failed_nvs, accuracy = self.checks.check_pipeline(rc, report, self.truth)
        return {
            "wall_s": wall,
            "attempted": len(self.truth["nvs"]),
            "failed": len(failed_nvs),
            "failures": failures,
            "accuracy": accuracy,
        }


class IntensityCapture:
    """Keeps the noiseless map ``simulate_pattern`` computed, so the
    correctness check need not recompute it. One extra Python call per
    operation; when the name is gone the map is recomputed untimed."""

    def __init__(self):
        from nvvortex import pattern

        self.last = None
        if hasattr(pattern, "intensity_map"):
            inner = pattern.intensity_map

            def capture(*args, **kwargs):
                self.last = inner(*args, **kwargs)
                return self.last

            pattern.intensity_map = capture


class Synthesis:
    min_ops = 2  # one centred and one off-centre scan in every run
    SUBSET = 1024
    SUBSET_SEED = 20210204

    def __init__(self, opts):
        import numpy as np

        import checks
        import workloads
        from nvvortex import spin
        from nvvortex.focal_field import OpticalConfig

        self.checks = checks
        self.workloads = workloads
        self.seed = opts.seed
        self.width = opts.width
        self.work = Path(opts.work)
        self.optics = OpticalConfig()
        self.params = spin.SpinParams()
        self.b_vec = workloads.b_vector()
        n_px = self.width * self.width
        self.pixels = np.sort(
            np.random.default_rng(self.SUBSET_SEED).choice(
                n_px, min(self.SUBSET, n_px), replace=False
            )
        )
        self.capture = IntensityCapture()

    def synthesize(self, spec: dict, out: Path):
        from nvvortex import fileio, pattern, spin

        orientation = pattern.NVOrientation.from_degrees(*spec["axis_deg"])
        grid = pattern.ScanGrid(spec["width_px"], spec["width_px"], spec["pitch_nm"])
        center = None if spec["centred"] else tuple(spec["center_nm"])
        image = pattern.simulate_pattern(
            orientation, grid, self.optics,
            amplitude=self.workloads.AMPLITUDE, background=self.workloads.BACKGROUND,
            noise_seed=spec["scan_seed"], center_nm=center,
        )
        fileio.write_scan_image_csv(image, out / "scan.csv")
        fileio.write_pgm(image, out / "scan.pgm")
        spectrum = spin.add_contrast_noise(
            spin.simulate_odmr_spectrum(self.b_vec, orientation, self.params),
            self.workloads.SPECTRUM_NOISE, spec["spectrum_seed"],
        )
        fileio.write_spectrum_csv(spectrum, out / "spectrum.csv")
        return image, spectrum

    def setup(self, tracer=None) -> None:
        out = self.work / "warmup"
        out.mkdir(parents=True, exist_ok=True)
        with tracing(tracer):
            self.synthesize(self.workloads.synth_spec(self.seed, 0, width_px=8), out)
        shutil.rmtree(out)

    def op(self, k: int, tracer=None) -> dict:
        from nvvortex import fileio

        spec = self.workloads.synth_spec(self.seed, k, width_px=self.width)
        out = self.work / f"synth{k}"
        out.mkdir(parents=True, exist_ok=True)
        self.capture.last = None
        start = time.perf_counter()
        with tracing(tracer):
            image, spectrum = self.synthesize(spec, out)
        wall = time.perf_counter() - start

        mean = self.capture.last
        if mean is None or mean.shape != image.values.shape:
            mean = self.noiseless_map(spec)
        reference = self.checks.reference_map(
            spec, self.optics, self.pixels,
            self.workloads.AMPLITUDE, self.workloads.BACKGROUND,
        )
        failures, accuracy = self.checks.check_synthesis(
            spec, image.values, mean, reference, self.pixels,
            self.workloads.BACKGROUND,
            fileio.read_scan_image_csv(out / "scan.csv").values,
            spectrum, fileio.read_spectrum_csv(out / "spectrum.csv"),
            (out / "scan.pgm").read_bytes(),
        )
        shutil.rmtree(out)
        return {
            "wall_s": wall,
            "attempted": 1,
            "failed": 1 if failures else 0,
            "failures": failures,
            "accuracy": accuracy,
            "centred": spec["centred"],
        }

    def noiseless_map(self, spec: dict):
        from nvvortex import pattern

        grid = pattern.ScanGrid(spec["width_px"], spec["width_px"], spec["pitch_nm"])
        return pattern.simulate_pattern(
            pattern.NVOrientation.from_degrees(*spec["axis_deg"]), grid, self.optics,
            amplitude=self.workloads.AMPLITUDE, background=self.workloads.BACKGROUND,
            center_nm=None if spec["centred"] else tuple(spec["center_nm"]),
        ).values


def run_long_lived(opts, workload_cls) -> dict:
    import_s = _import_program()  # first, so numpy's import is counted too
    from tracer import Tracer

    workload = workload_cls(opts)
    tracer = None
    if opts.trace:
        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    workload.setup(tracer)
    ready = time.monotonic()
    if tracer is not None:
        tracer.phase = "op"

    records, noboot_s = [], 0.0
    min_ops = workload.min_ops if opts.min_ops is None else opts.min_ops
    k = 0
    while time.monotonic() < opts.deadline and (
        k < min_ops or time.monotonic() - ready < opts.seconds
    ):
        records.append(workload.op(k))
        if tracer is not None:
            tracer.last_args.clear()
            record = workload.op(k, tracer)
            record["traced"] = True
            records.append(record)
            noboot_s += solve_without_bootstrap(tracer)
        k += 1

    result = {"setup_s": ready - opts.spawn, "import_s": import_s, "records": records}
    if tracer is not None:
        result.update(
            op_totals=tracer.totals("op"),
            all_totals=tracer.totals(),
            absent=tracer.absent,
            noboot_s=noboot_s,
        )
        if opts.spans:
            tracer.dump(opts.spans, {"mode": opts.mode, "seed": opts.seed})
    return result


def run_cli_traced(opts) -> dict:
    import_s = _import_program()  # first, so numpy's import is counted too
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    rc, report, _ = call_pipeline(opts.cli_argv, tracer)
    main_end = time.monotonic()
    noboot_s = solve_without_bootstrap(tracer)
    if opts.spans:
        tracer.dump(opts.spans, {"mode": opts.mode, "seed": opts.seed})
    return {
        "wall_s": main_end - opts.spawn,
        "import_s": import_s,
        "returncode": rc,
        "report": report,
        "op_totals": tracer.totals("op"),
        "all_totals": tracer.totals(),
        "absent": tracer.absent,
        "noboot_s": noboot_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["warm", "synth", "cli-traced"])
    parser.add_argument("--work", help="warm, synth: the run's work directory")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--min-ops", type=int, default=None)
    parser.add_argument("--width", type=int, default=256)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--cli-argv", type=json.loads, default=None,
                        help="cli-traced: JSON list of arguments for nvvortex.cli.main")
    opts = parser.parse_args(argv)
    if opts.mode == "cli-traced":
        result = run_cli_traced(opts)
    else:
        result = run_long_lived(opts, WarmPipeline if opts.mode == "warm" else Synthesis)
    Path(opts.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
