"""Span tracer for the traced benchmark run, installed from outside the
program by wrapping public module attributes.

Each hook names the module attribute through which the program calls a
layer (``cli.fit_orientation`` is the name ``cmd_pipeline`` resolves at
call time), so replacing that attribute sees every call without a
change to the program. A hook whose attribute no longer exists is
reported as absent instead of failing the run, so the tracer survives
later changes that delete names such as ``nelder_mead`` or
``pattern_residual``.

Spans are kept in memory with their parent, start and end, and written
out once the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


def _size_of_first(args, kwargs, result):
    return {"args": float(np.size(args[0]))}


def _radii(args, kwargs, result):
    return {"radii": float(np.size(args[0]))}


def _simplex(args, kwargs, result):
    return {
        "iterations": float(getattr(result, "iterations", 0)),
        "unconverged": 0.0 if getattr(result, "converged", True) else 1.0,
    }


def _fit_iterations(args, kwargs, result):
    return {"iterations": float(getattr(result, "iterations", 0))}


def _read_bytes(args, kwargs, result):
    return {"bytes": float(os.path.getsize(args[0]))}


def _written_bytes(args, kwargs, result):
    path = str(args[1] if len(args) > 1 else kwargs["path"])
    total = os.path.getsize(path)
    sidecar = path + ".scale.json"  # write_pgm's scaling record
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return {"bytes": float(total)}


#: (span name, module, attribute path, counter function)
HOOKS = [
    ("bessel.j1", "nvvortex.focal_field", "j1", _size_of_first),
    ("focal_field.profile", "nvvortex.pattern", "azimuthal_field_profile", _radii),
    ("pattern.profile_build", "nvvortex.pattern", "RadialIntensityProfile.build", None),
    ("pattern.intensity_map", "nvvortex.pattern", "intensity_map", None),
    ("pattern.simulate_pattern", "nvvortex.pattern", "simulate_pattern", None),
    ("pattern.template", "nvvortex.orient_fit", "template_map", None),
    ("orient_fit.residual", "nvvortex.orient_fit", "pattern_residual", None),
    ("orient_fit.fit", "nvvortex.cli", "fit_orientation", None),
    ("simplex.orient_fit", "nvvortex.orient_fit", "nelder_mead", _simplex),
    ("simplex.spin", "nvvortex.spin", "nelder_mead", _simplex),
    ("simplex.vector_recon", "nvvortex.vector_recon", "nelder_mead", _simplex),
    ("spin.fit", "nvvortex.cli", "fit_odmr_model", _fit_iterations),
    ("spin.field_estimate", "nvvortex.cli", "field_estimate", None),
    ("vector_recon.solve", "nvvortex.cli", "solve_direction", None),
    ("fileio.read", "nvvortex.cli", "read_scan_image_csv", _read_bytes),
    ("fileio.read", "nvvortex.cli", "read_spectrum_csv", _read_bytes),
    ("fileio.write", "nvvortex.fileio", "write_scan_image_csv", _written_bytes),
    ("fileio.write", "nvvortex.fileio", "write_pgm", _written_bytes),
    ("fileio.write", "nvvortex.fileio", "write_spectrum_csv", _written_bytes),
    ("cli.pipeline", "nvvortex.cli", "cmd_pipeline", None),
    ("config.load", "nvvortex.cli", "load_config", None),
]


class Tracer:
    """Records spans while ``enabled``; ``phase`` tags each span as part
    of set-up or of a measured operation."""

    def __init__(self):
        self.enabled = False
        self.phase = "op"
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.last_args: dict[str, tuple] = {}
        self._stack: list[list] = []  # [span id, accumulated child time]

    def install(self, hooks=HOOKS) -> None:
        for name, module_name, path, counter in hooks:
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
            setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            span = {"id": span_id, "parent": parent, "name": name, "phase": tracer.phase}
            tracer.spans.append(span)
            tracer.last_args[name] = (args, kwargs)
            tracer._stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_time = tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                span.update(start=start, end=end, self_s=duration - child_time)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self, phase: str | None = None) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if phase is not None and span["phase"] != phase:
                continue
            agg = out[span["name"]]
            agg["calls"] += 1
            agg["total_s"] += span["end"] - span["start"]
            agg["self_s"] += span["self_s"]
            for key, value in span.get("counts", {}).items():
                agg[key] += value
        return {name: dict(agg) for name, agg in out.items()}

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header, "absent": self.absent}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def add_totals(into: dict, more: dict) -> dict:
    for name, agg in more.items():
        slot = into.setdefault(name, {})
        for key, value in agg.items():
            slot[key] = slot.get(key, 0.0) + value
    return into


#: per-layer metrics as (name, unit, better); every traced run emits all
#: of them, reading 0 where a layer does not run on the workload
PER_LAYER = [
    ("bessel.j1.args", "count", "lower"),
    ("bessel.j1.self_s", "s", "lower"),
    ("focal_field.profile.radii", "count", "lower"),
    ("focal_field.profile.self_s", "s", "lower"),
    ("pattern.profile_build_s", "s", "lower"),
    ("pattern.intensity_map_s", "s", "lower"),
    ("pattern.poisson_s", "s", "lower"),
    ("pattern.template.calls", "count", "lower"),
    ("pattern.template.self_s", "s", "lower"),
    ("orient_fit.fit_s", "s", "lower"),
    ("orient_fit.residual.calls", "count", "lower"),
    ("orient_fit.residual.self_s", "s", "lower"),
    *[
        (f"simplex.{caller}.{key}", unit, better)
        for caller in ("orient_fit", "spin", "vector_recon")
        for key, unit, better in (
            ("runs", "count", "lower"),
            ("iterations", "count", "lower"),
            ("unconverged", "count", "lower"),
            ("converged_frac", "ratio", "higher"),
        )
    ],
    ("spin.fit_s", "s", "lower"),
    ("spin.fit_iterations", "count", "lower"),
    ("spin.field_estimate_s", "s", "lower"),
    ("vector_recon.solve_s", "s", "lower"),
    ("vector_recon.solve_noboot_s", "s", "lower"),
    ("fileio.read_s", "s", "lower"),
    ("fileio.read_bytes", "bytes", "lower"),
    ("fileio.write_s", "s", "lower"),
    ("fileio.write_bytes", "bytes", "lower"),
    ("cli.pipeline.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("accuracy.direction_err_deg", "deg", "lower"),
    ("accuracy.b_err_gauss", "G", "lower"),
    ("accuracy.axis_err_deg", "deg", "lower"),
    ("accuracy.omega_err_mhz", "MHz", "lower"),
    ("accuracy.synth_rel_err", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.absent_hooks", "count", "lower"),
]


def layer_metrics(
    op_totals: dict,
    all_totals: dict,
    n_ops: int,
    n_processes: int,
    import_s: float,
    noboot_s: float,
) -> dict:
    """Per-layer values from traced totals.

    Operation-phase totals are divided by the number of traced
    operations. The profile build and the import are one-off costs of a
    process, so they are divided by the number of traced processes and
    include the set-up phase.
    """

    def per_op(name, key):
        return op_totals.get(name, {}).get(key, 0.0) / n_ops

    values = {
        "bessel.j1.args": per_op("bessel.j1", "args"),
        "bessel.j1.self_s": per_op("bessel.j1", "self_s"),
        "focal_field.profile.radii": per_op("focal_field.profile", "radii"),
        "focal_field.profile.self_s": per_op("focal_field.profile", "self_s"),
        "pattern.profile_build_s": all_totals.get("pattern.profile_build", {}).get(
            "total_s", 0.0
        ) / n_processes,
        "pattern.intensity_map_s": per_op("pattern.intensity_map", "total_s"),
        "pattern.poisson_s": per_op("pattern.simulate_pattern", "self_s"),
        "pattern.template.calls": per_op("pattern.template", "calls"),
        "pattern.template.self_s": per_op("pattern.template", "self_s"),
        "orient_fit.fit_s": per_op("orient_fit.fit", "total_s"),
        "orient_fit.residual.calls": per_op("orient_fit.residual", "calls"),
        "orient_fit.residual.self_s": per_op("orient_fit.residual", "self_s"),
        "spin.fit_s": per_op("spin.fit", "total_s"),
        "spin.fit_iterations": per_op("spin.fit", "iterations"),
        "spin.field_estimate_s": per_op("spin.field_estimate", "total_s"),
        "vector_recon.solve_s": per_op("vector_recon.solve", "total_s"),
        "vector_recon.solve_noboot_s": noboot_s / n_ops,
        "fileio.read_s": per_op("fileio.read", "total_s"),
        "fileio.read_bytes": per_op("fileio.read", "bytes"),
        "fileio.write_s": per_op("fileio.write", "total_s"),
        "fileio.write_bytes": per_op("fileio.write", "bytes"),
        "cli.pipeline.self_s": per_op("cli.pipeline", "self_s"),
        "cli.import_s": import_s / n_processes,
        "config.load_s": per_op("config.load", "total_s"),
    }
    for caller in ("orient_fit", "spin", "vector_recon"):
        agg = op_totals.get(f"simplex.{caller}", {})
        runs = agg.get("calls", 0.0)
        unconverged = agg.get("unconverged", 0.0)
        values[f"simplex.{caller}.runs"] = runs / n_ops
        values[f"simplex.{caller}.iterations"] = agg.get("iterations", 0.0) / n_ops
        values[f"simplex.{caller}.unconverged"] = unconverged / n_ops
        # no run at all means no run was left unconverged
        values[f"simplex.{caller}.converged_frac"] = (
            (runs - unconverged) / runs if runs else 1.0
        )
    return values
