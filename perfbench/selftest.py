#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

Runs all three workloads untraced and traced with 15 x 15 scans and a
32 x 32 synthesis grid, and requires every metric named in
BENCHMARK.json to be emitted with its unit. Then feeds deliberately
corrupted outputs to the checks: one changed pixel in a written scan,
one changed pixel of the noiseless map, a perturbed reported direction
and a missing reconstruction must each trip a check or move the
accuracy figure. Takes about two minutes on 2 vCPUs.

    python3 perfbench/selftest.py        (from the root of a checkout)
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import run

SEED = 7


class Failures(list):
    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)
            print(f"FAIL {message}")


def check_emitted(failures: Failures, root: Path) -> None:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            _, result = run.benchmark(workload, SEED, 0, trace, root, tiny=True)
            failures.require(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{where}: result keys {sorted(result)}",
            )
            failures.require(result["correct"] is True, f"{where}: not correct")
            metrics = result["metrics"]
            failures.require(
                set(metrics) == set(expected[trace]),
                f"{where}: metric names differ: "
                f"{sorted(set(metrics) ^ set(expected[trace]))}",
            )
            for name, unit in expected[trace].items():
                entry = metrics.get(name, {})
                failures.require(entry.get("unit") == unit, f"{where}: {name} unit")
                value = entry.get("value")
                failures.require(
                    isinstance(value, float) and math.isfinite(value),
                    f"{where}: {name} value {value!r}",
                )
            print(f"ok   {where}: {len(metrics)} metrics")


def check_synthesis_corruption(failures: Failures, root: Path) -> None:
    import checks
    import worker
    from nvvortex import fileio, pattern

    work = root / ".perfbench_work" / "selftest-synth"
    work.mkdir(parents=True, exist_ok=True)
    try:
        synth = worker.Synthesis(SimpleNamespace(seed=SEED, width=32, work=str(work)))
        spec = synth.workloads.synth_spec(SEED, 1, width_px=32)
        image, spectrum = synth.synthesize(spec, work)
        mean = synth.capture.last
        reference = checks.reference_map(
            spec, synth.optics, synth.pixels,
            synth.workloads.AMPLITUDE, synth.workloads.BACKGROUND,
        )

        def verdict(scan_values, mean_values):
            return checks.check_synthesis(
                spec, image.values, mean_values, reference, synth.pixels,
                synth.workloads.BACKGROUND, scan_values, spectrum,
                fileio.read_spectrum_csv(work / "spectrum.csv"),
                (work / "scan.pgm").read_bytes(),
            )

        readback = fileio.read_scan_image_csv(work / "scan.csv").values
        clean_failures, clean_acc = verdict(readback, mean)
        failures.require(not clean_failures, f"clean synthesis fails: {clean_failures}")

        corrupted = readback.copy()
        corrupted[16, 16] += 1.0
        fileio.write_scan_image_csv(pattern.ScanImage(image.grid, corrupted), work / "scan.csv")
        bad, _ = verdict(fileio.read_scan_image_csv(work / "scan.csv").values, mean)
        failures.require(any("read-back" in f for f in bad),
                         "a changed pixel in the written scan is not caught")

        bent = mean.copy()
        bent.ravel()[synth.pixels[0]] *= 1.0 + 1e-6
        bad, acc = verdict(readback, bent)
        failures.require(acc["synth_rel_err"] > 100 * clean_acc["synth_rel_err"],
                         "a changed map pixel does not move synth_rel_err")
        failures.require(any("noiseless map" in f for f in bad),
                         "a changed map pixel is not caught")
        print("ok   synthesis corruption is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_pipeline_corruption(failures: Failures, root: Path) -> None:
    import checks
    import workloads
    from worker import call_pipeline

    work = root / ".perfbench_work" / "selftest-pipeline"
    try:
        truth = workloads.write_pipeline_inputs(
            work, ["NV1", "NV2", "NV3"], workloads.DEFAULT_SWEEP, SEED, 0, width_px=15
        )
        rc, report, _ = call_pipeline(
            ["pipeline", "--scans", str(work / "scans"), "--spectra", str(work / "spectra")]
        )
        clean, _, acc = checks.check_pipeline(rc, report, truth)
        failures.require(not clean, f"clean pipeline fails: {clean}")

        rec = report["reconstruction"]
        rec["theta_b_deg"] += 5.0
        _, _, moved = checks.check_pipeline(rc, report, truth)
        failures.require(
            abs(moved["direction_err_deg"] - acc["direction_err_deg"]) > 1.0,
            "a perturbed direction does not move direction_err_deg",
        )
        report["reconstruction"] = None
        bad, failed_nvs, _ = checks.check_pipeline(rc, report, truth)
        failures.require(bool(bad) and len(failed_nvs) == 3,
                         "a missing reconstruction does not fail every NV")
        print("ok   pipeline corruption is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "nvvortex" / "cli.py").is_file():
        print("selftest: run from the root of a checkout", file=sys.stderr)
        return 2
    run.configure(root)
    failures = Failures()
    check_synthesis_corruption(failures, root)
    check_pipeline_corruption(failures, root)
    check_emitted(failures, root)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
