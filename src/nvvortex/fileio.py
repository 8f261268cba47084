"""On-disk formats: scan-image CSV, PGM previews, spectrum CSV, JSON.

All writers go through an atomic temp-file-plus-rename so a crashed run
never leaves a half-written artifact. Scan images are stored as a
two-line header (field names, then values) followed by row-major
intensity rows:

    width,height,pitch_nm,origin_x_nm,origin_y_nm
    31,31,50.0,0.0,0.0
    <row 0 values>
    ...
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .pattern import NVOrientation, ScanGrid, ScanImage
from .spin import Spectrum
from .vector_recon import ConeConstraint

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "write_json",
    "read_json",
    "write_scan_image_csv",
    "read_scan_image_csv",
    "write_pgm",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "load_constraints_json",
    "constraints_to_json",
]

_IMAGE_HEADER = ["width", "height", "pitch_nm", "origin_x_nm", "origin_y_nm"]
_SPECTRUM_HEADER = ["frequency_mhz", "contrast"]

_CONSTRAINT_KEYS = {
    "axis_theta_deg",
    "axis_phi_deg",
    "alpha_deg",
    "b_gauss",
    "alpha_sigma_deg",
    "b_sigma_gauss",
    "label",
}


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(obj, path) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


# ---------------------------------------------------------------- scan images

def write_scan_image_csv(image: ScanImage, path) -> None:
    g = image.grid
    lines = [
        ",".join(_IMAGE_HEADER),
        f"{g.width_px},{g.height_px},{float(g.pitch_nm)!r},"
        f"{float(g.origin_nm[0])!r},{float(g.origin_nm[1])!r}",
    ]
    for row in image.values:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_scan_image_csv(path) -> ScanImage:
    with open(path, "r", encoding="utf-8") as handle:
        raw = [ln.strip() for ln in handle if ln.strip()]
    if len(raw) < 3:
        raise FileFormatError(f"{path}: truncated scan image (need header + rows)")
    if [c.strip() for c in raw[0].split(",")] != _IMAGE_HEADER:
        raise FileFormatError(
            f"{path}: bad header {raw[0]!r}, expected {','.join(_IMAGE_HEADER)}"
        )
    fields = raw[1].split(",")
    if len(fields) != 5:
        raise FileFormatError(f"{path}: header value row needs 5 fields")
    try:
        width, height = int(fields[0]), int(fields[1])
        pitch = float(fields[2])
        origin = (float(fields[3]), float(fields[4]))
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header values: {exc}") from exc
    body = raw[2:]
    if len(body) != height:
        raise FileFormatError(
            f"{path}: expected {height} data rows, found {len(body)}"
        )
    values = np.empty((height, width))
    for iy, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != width:
            raise FileFormatError(
                f"{path}: row {iy} has {len(cells)} values, expected {width}"
            )
        try:
            values[iy] = [float(c) for c in cells]
        except ValueError as exc:
            raise FileFormatError(f"{path}: row {iy}: {exc}") from exc
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise FileFormatError(f"{path}: intensities must be finite and >= 0")
    try:
        grid = ScanGrid(width_px=width, height_px=height, pitch_nm=pitch,
                        origin_nm=origin)
        return ScanImage(grid=grid, values=values)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_pgm(image: ScanImage, path, bits: int = 16) -> None:
    """Min-max scaled preview as a binary PGM (P5); the applied scaling
    is recorded in a <path>.scale.json sidecar."""
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    lo = float(image.values.min())
    hi = float(image.values.max())
    maxval = (1 << bits) - 1
    span = hi - lo
    if span > 0.0:
        scaled = np.round((image.values - lo) / span * maxval).astype(np.uint32)
    else:
        scaled = np.zeros_like(image.values, dtype=np.uint32)
    header = f"P5\n{image.grid.width_px} {image.grid.height_px}\n{maxval}\n".encode()
    if bits == 8:
        payload = scaled.astype(np.uint8).tobytes()
    else:
        payload = scaled.astype(">u2").tobytes()
    atomic_write_bytes(path, header + payload)
    write_json(
        {
            "min_intensity": lo,
            "max_intensity": hi,
            "bits": bits,
            "maxval": maxval,
            "note": "pixel = round((intensity - min) / (max - min) * maxval)",
        },
        str(path) + ".scale.json",
    )


# ------------------------------------------------------------------- spectra

def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    lines = [",".join(_SPECTRUM_HEADER)]
    for f, c in zip(spectrum.frequencies, spectrum.contrast):
        lines.append(f"{float(f)!r},{float(c)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_spectrum_csv(path) -> Spectrum:
    with open(path, "r", encoding="utf-8") as handle:
        raw = [ln.strip() for ln in handle if ln.strip()]
    if len(raw) < 3:
        raise FileFormatError(f"{path}: truncated spectrum")
    if [c.strip() for c in raw[0].split(",")] != _SPECTRUM_HEADER:
        raise FileFormatError(
            f"{path}: bad header {raw[0]!r}, expected {','.join(_SPECTRUM_HEADER)}"
        )
    freqs, contrast = [], []
    for i, line in enumerate(raw[1:]):
        cells = line.split(",")
        if len(cells) != 2:
            raise FileFormatError(f"{path}: line {i + 2} needs 2 columns")
        try:
            freqs.append(float(cells[0]))
            contrast.append(float(cells[1]))
        except ValueError as exc:
            raise FileFormatError(f"{path}: line {i + 2}: {exc}") from exc
    try:
        return Spectrum(frequencies=np.array(freqs), contrast=np.array(contrast))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# --------------------------------------------------------------- constraints

def load_constraints_json(path) -> list[ConeConstraint]:
    """Cone constraints from a JSON list of objects with axis angles in
    degrees, alpha in degrees, and B in gauss. Unknown keys are
    rejected; keys starting with '_' are treated as comments."""
    data = read_json(path)
    if not isinstance(data, list):
        raise FileFormatError(f"{path}: expected a JSON list of constraints")
    out = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise FileFormatError(f"{path}: entry {i} is not an object")
        unknown = {
            k for k in entry if k not in _CONSTRAINT_KEYS and not k.startswith("_")
        }
        if unknown:
            raise FileFormatError(
                f"{path}: entry {i} has unknown keys: {sorted(unknown)}"
            )
        missing = {"axis_theta_deg", "axis_phi_deg", "alpha_deg", "b_gauss"} - set(entry)
        if missing:
            raise FileFormatError(
                f"{path}: entry {i} is missing keys: {sorted(missing)}"
            )
        try:
            out.append(
                ConeConstraint(
                    axis=NVOrientation.from_degrees(
                        float(entry["axis_theta_deg"]), float(entry["axis_phi_deg"])
                    ),
                    alpha=math.radians(float(entry["alpha_deg"])),
                    b=float(entry["b_gauss"]),
                    alpha_sigma=math.radians(float(entry.get("alpha_sigma_deg", 0.0))),
                    b_sigma=float(entry.get("b_sigma_gauss", 0.0)),
                    label=str(entry.get("label", "")),
                )
            )
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: entry {i}: {exc}") from exc
    return out


def constraints_to_json(constraints: list[ConeConstraint]) -> list[dict]:
    out = []
    for c in constraints:
        entry = {
            "axis_theta_deg": math.degrees(c.axis.theta),
            "axis_phi_deg": math.degrees(c.axis.phi),
            "alpha_deg": math.degrees(c.alpha),
            "b_gauss": c.b,
        }
        if c.alpha_sigma:
            entry["alpha_sigma_deg"] = math.degrees(c.alpha_sigma)
        if c.b_sigma:
            entry["b_sigma_gauss"] = c.b_sigma
        if c.label:
            entry["label"] = c.label
        out.append(entry)
    return out
