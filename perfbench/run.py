#!/usr/bin/env python3
"""Benchmark for the nvvortex chain, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, each operation waits for the last):

  pipeline-cold-3nv  every operation is a fresh ``python -m nvvortex.cli
                     pipeline`` process over 3 NVs: what a CLI user pays
                     per run, dominated by per-process fixed costs
  pipeline-warm-8nv  one long-lived process calls ``nvvortex.cli.main``
                     on 8 NVs after one cold call: the per-NV layers
  synthesize-256     one long-lived process synthesizes one NV per
                     operation at 256 x 256, half centred, half off-centre:
                     the write side, no fit

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each operation is run untraced and
then traced, and the object carries the per-layer metrics. Inputs are
generated from ``--seed`` under ``.perfbench_work/`` and removed at the
end; span files of traced runs are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("pipeline-cold-3nv", "pipeline-warm-8nv", "synthesize-256")

#: one BLAS thread for the program and the benchmark alike: the solves
#: are tiny (3x3 to 3801x6), and a second thread on a 2-vCPU machine
#: only adds scheduling noise
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

IMPORT_PROBES = 5  # cold-3nv set-up is an import: cheap to repeat
SYNTH_SETUP_PROBES = 2  # extra synthesis set-ups besides the worker's own
START_BUDGET_S = 130.0  # no operation starts later than this after launch
CHILD_TIMEOUT_S = 170.0  # every child is killed by then; runs end within 180 s
TAIL_BEYOND = 10  # tail percentile: at least this many samples above it

PIPELINE_WIDTH_PX = 31
SYNTH_WIDTH_PX = 256

END_TO_END = {
    "op_wall_s": "s",
    "op_wall_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def configure(root: Path) -> dict:
    """Point the benchmark and every child at the checkout's ``src/`` and
    pin the BLAS thread count; returns the environment for children.
    Must run before numpy is imported."""
    src = str(root / "src")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    for entry in (str(HERE), src):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    return dict(os.environ)


def run_child(cmd, env, cwd, stdout_path, timeout):
    """Run ``cmd`` to completion; (exit status, spawn time, end time,
    peak RSS in MB). The child is killed after ``timeout`` seconds."""
    with open(stdout_path, "wb") as out:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, spawn, end, usage.ru_maxrss / 1024.0


def tail(values):
    """(value, label): the highest percentile with at least TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n}"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
                and ".so" in line
            }
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        **{var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "commit": commit,
    }


class Run:
    """One benchmark invocation: its settings, work directory and the
    records it collects."""

    def __init__(self, workload, seed, seconds, trace, root, env, tiny=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = bool(trace)
        self.root = root
        self.env = env
        self.pipeline_width = 15 if tiny else PIPELINE_WIDTH_PX
        self.synth_width = 32 if tiny else SYNTH_WIDTH_PX
        self.start = time.monotonic()
        self.deadline = self.start + START_BUDGET_S
        self.work = root / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        self.out = root / ".perfbench_out"
        self.setup_samples: list[float] = []
        self.records: list[dict] = []
        self.rss_mb: list[float] = []
        self.op_totals: dict = {}
        self.all_totals: dict = {}
        self.traced_processes = 0
        self.import_s = 0.0
        self.noboot_s = 0.0
        self.absent: set[str] = set()

    def child_timeout(self) -> float:
        return max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - self.start))

    def spans_path(self, suffix: str = "") -> str:
        self.out.mkdir(exist_ok=True)
        return str(self.out / f"trace-{self.workload}-s{self.seed}{suffix}.jsonl")

    def absorb_trace(self, result: dict) -> None:
        from tracer import add_totals

        add_totals(self.op_totals, result["op_totals"])
        add_totals(self.all_totals, result["all_totals"])
        self.traced_processes += 1
        self.import_s += result["import_s"]
        self.noboot_s += result["noboot_s"]
        self.absent.update(result["absent"])

    # ------------------------------------------------------------ workloads

    def run_cold(self) -> None:
        import checks
        import workloads

        py = sys.executable
        for _ in range(IMPORT_PROBES):
            _, spawn, end, _ = run_child(
                [py, "-c", "import nvvortex.cli"], self.env, self.root,
                self.work / "probe.out", self.child_timeout(),
            )
            self.setup_samples.append(end - spawn)

        begin = time.monotonic()
        k = 0
        while time.monotonic() < self.deadline and (
            k < 1 or time.monotonic() - begin < self.seconds
        ):
            data = self.work / f"op{k}"
            truth = workloads.write_pipeline_inputs(
                data, ["NV1", "NV2", "NV3"], workloads.DEFAULT_SWEEP, self.seed,
                stream=k, width_px=self.pipeline_width,
            )
            argv = ["pipeline", "--scans", str(data / "scans"),
                    "--spectra", str(data / "spectra")]
            rc, spawn, end, rss = run_child(
                [py, "-m", "nvvortex.cli", *argv], self.env, self.root,
                data / "report.json", self.child_timeout(),
            )
            self.rss_mb.append(rss)
            self.records.append(
                pipeline_record(checks, rc, _load_json(data / "report.json"), truth,
                                end - spawn)
            )
            if self.trace:
                result_path = data / "traced.json"
                rc, spawn, _, _ = run_child(
                    [py, str(HERE / "worker.py"), "cli-traced",
                     "--result", str(result_path), "--spawn", repr(time.monotonic()),
                     "--seed", str(self.seed), "--spans", self.spans_path(f"-op{k}"),
                     "--cli-argv", json.dumps(argv)],
                    self.env, self.root, data / "traced.out", self.child_timeout(),
                )
                result = _load_json(result_path) if rc == 0 else None
                if result is None:
                    self.records.append(failed_record(len(truth["nvs"]), "traced run died",
                                                      traced=True))
                else:
                    record = pipeline_record(checks, result["returncode"],
                                             result["report"], truth, result["wall_s"])
                    record["traced"] = True
                    self.records.append(record)
                    self.absorb_trace(result)
            k += 1

    def run_worker(self, mode: str) -> None:
        import workloads

        if mode == "warm":
            workloads.write_pipeline_inputs(
                self.work, ["NV0", "NV1", "NV2", "NV3"] * 2, workloads.WIDE_SWEEP,
                self.seed, stream=0, width_px=self.pipeline_width,
            )
        probes = SYNTH_SETUP_PROBES if mode == "synth" else 0
        for i in range(probes + 1):
            measured = i == probes
            result_path = self.work / f"worker{i}.json"
            cmd = [
                sys.executable, str(HERE / "worker.py"), mode,
                "--work", str(self.work), "--result", str(result_path),
                "--seed", str(self.seed), "--width", str(self.synth_width),
                "--deadline", repr(self.deadline),
            ]
            if measured:
                cmd += ["--seconds", repr(float(self.seconds)), "--trace", str(int(self.trace))]
                if self.trace:
                    cmd += ["--spans", self.spans_path()]
            else:
                cmd += ["--min-ops", "0"]
            cmd += ["--spawn", repr(time.monotonic())]
            rc, _, _, rss = run_child(cmd, self.env, self.root,
                                      self.work / "worker.out", self.child_timeout())
            if rc != 0:
                raise RuntimeError(f"{mode} worker exited with status {rc}")
            result = _load_json(result_path)
            self.setup_samples.append(result["setup_s"])
            if measured:
                self.rss_mb.append(rss)
                self.records.extend(result["records"])
                if self.trace:
                    self.absorb_trace(result)

    def execute(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if self.workload == "pipeline-cold-3nv":
                self.run_cold()
            else:
                self.run_worker("warm" if self.workload == "pipeline-warm-8nv" else "synth")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    # -------------------------------------------------------------- results

    def accuracy(self) -> dict:
        keys = sorted({key for r in self.records for key in r.get("accuracy", {})})
        return {
            key: statistics.median(
                r["accuracy"][key] for r in self.records if key in r.get("accuracy", {})
            )
            for key in keys
        }

    def result(self) -> tuple[list[str], dict]:
        attempted = sum(r["attempted"] for r in self.records)
        failed = sum(r["failed"] for r in self.records)
        timed = [r["wall_s"] for r in self.records if not r.get("traced")]
        traced = [r["wall_s"] for r in self.records if r.get("traced")]
        accuracy = self.accuracy()
        lines = [
            f"# workload {self.workload} seed {self.seed} seconds {self.seconds} "
            f"trace {int(self.trace)}; closed loop, 1 client",
            f"# operations {len(timed)} timed, {len(traced)} traced; "
            f"NV operations attempted {attempted}, failed {failed}",
            "# accuracy (median over operations): " + ", ".join(
                f"{k}={v:.6g}" for k, v in accuracy.items()
            ),
        ]
        centred = [r["centred"] for r in self.records if "centred" in r]
        if centred:
            lines.append(f"# centred scans: {sum(centred)} of {len(centred)}")
        for r in self.records:
            for failure in r.get("failures", []):
                lines.append(f"# FAILED: {failure}")

        if not self.trace:
            tail_value, tail_label = tail(timed)
            lines.append(
                f"# op_wall_s median of {len(timed)}; op_wall_tail_s {tail_label}; "
                f"setup_s median of {len(self.setup_samples)}"
            )
            metrics = {
                "op_wall_s": statistics.median(timed),
                "op_wall_tail_s": tail_value,
                "setup_s": statistics.median(self.setup_samples),
                "peak_rss_mb": max(self.rss_mb),
            }
            units = END_TO_END
        else:
            from tracer import PER_LAYER, layer_metrics

            n_traced = max(len(traced), 1)
            metrics = layer_metrics(
                self.op_totals, self.all_totals, n_traced,
                max(self.traced_processes, 1), self.import_s, self.noboot_s,
            )
            for key in ("direction_err_deg", "b_err_gauss", "axis_err_deg",
                        "omega_err_mhz", "synth_rel_err"):
                metrics[f"accuracy.{key}"] = accuracy.get(key, 0.0)
            metrics["failed_frac"] = failed / attempted if attempted else 1.0
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(timed) - 1.0
                if traced and timed else 0.0
            )
            metrics["trace.absent_hooks"] = float(len(self.absent))
            for name in sorted(self.absent):
                lines.append(f"# absent hook: {name}")
            units = {name: unit for name, unit, _ in PER_LAYER}
        result = {
            "correct": failed == 0 and attempted > 0,
            "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
        return lines, result


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def failed_record(nvs: int, why: str, traced: bool = False) -> dict:
    return {"wall_s": 0.0, "attempted": nvs, "failed": nvs, "failures": [why],
            "accuracy": {}, "traced": traced}


def pipeline_record(checks, rc, report, truth, wall) -> dict:
    failures, failed_nvs, accuracy = checks.check_pipeline(rc, report, truth)
    return {
        "wall_s": wall,
        "attempted": len(truth["nvs"]),
        "failed": len(failed_nvs),
        "failures": failures,
        "accuracy": accuracy,
    }


def benchmark(workload, seed, seconds, trace, root, tiny=False):
    """Run one workload; (comment lines, result object)."""
    env = configure(root)
    run = Run(workload, seed, seconds, trace, root, env, tiny=tiny)
    run.execute()
    lines, result = run.result()
    return [f"# env {json.dumps(environment(root), sort_keys=True)}", *lines], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nvvortex" / "cli.py").is_file():
        print(f"perfbench: no nvvortex sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    lines, result = benchmark(args.workload, args.seed, args.seconds, args.trace, root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
