"""On-disk formats: scan-image CSV, PGM previews, spectrum CSV, JSON.

The one reader of outside files, config and fixtures included: text is
UTF-8 with an optional leading byte-order mark, as spreadsheets write it.
CSV readers parse the open file's own lines, any line ends accepted, in
one ``np.loadtxt`` call, so the file's text is never held whole.

All writers go through one atomic path, ``atomic_writer``: a temp file
beside the target, renamed over it once the last byte is written, so a
crashed run never leaves a half-written artifact, and the file ends up
with the mode a plain open() would give it under the current umask. The
scan CSV and PGM writers stream into that temp file in the row blocks of
``ScanGrid.row_blocks``, and the spectrum CSV writer in blocks of
_SPECTRUM_BLOCK rows, so a write needs one block beside its data,
whatever its size. Numbers are written as their shortest round-trip
``repr``. Scan images are stored as a two-line header (field names,
then values) followed by row-major intensity rows:

    width,height,pitch_nm,origin_x_nm,origin_y_nm
    31,31,50.0,0.0,0.0
    <row 0 values>
    ...
"""

from __future__ import annotations

import itertools
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .pattern import NVOrientation, ScanGrid, ScanImage
from .spin import MAX_SWEEP_POINTS, Spectrum
from .vector_recon import ConeConstraint

__all__ = [
    "atomic_writer",
    "write_json",
    "read_json",
    "write_scan_image_csv",
    "read_scan_image_csv",
    "write_pgm",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "load_constraints_json",
    "constraints_to_json",
    "is_json_number",
]

_IMAGE_HEADER = ["width", "height", "pitch_nm", "origin_x_nm", "origin_y_nm"]
_SPECTRUM_HEADER = ["frequency_mhz", "contrast"]
#: rows of a spectrum CSV formatted at a time
_SPECTRUM_BLOCK = 4096

_CONSTRAINT_NUMBERS = (
    "axis_theta_deg",
    "axis_phi_deg",
    "alpha_deg",
    "b_gauss",
    "alpha_sigma_deg",
    "b_sigma_gauss",
)
_CONSTRAINT_KEYS = {*_CONSTRAINT_NUMBERS, "label"}


def _create_temp(path: Path) -> tuple[int, str]:
    """A new file beside ``path``, opened exclusively for writing. It is
    created with mode 0o666, which the kernel reduces by the umask, so
    the renamed file gets the mode a plain open() would give it
    (``tempfile.mkstemp`` always gives 0o600)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = f"{path}.{os.urandom(6).hex()}"
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


@contextmanager
def atomic_writer(path):
    """A binary handle on a new temp file beside ``path``. The temp file
    is renamed over ``path`` when the block exits normally and removed
    when anything raises, so ``path`` holds either its previous content
    or every byte written."""
    path = Path(path)
    fd, tmp = _create_temp(path)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(obj, path) -> None:
    with atomic_writer(path) as handle:
        handle.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def is_json_number(value) -> bool:
    """True for a parsed JSON int or float that is not a bool, NaN or
    an infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not (isinstance(value, float) and not math.isfinite(value))
    )


def read_json(path):
    """The JSON value in ``path``. An object that names a key twice is
    refused, where ``json`` would keep the last value."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise FileFormatError(f"{path}: key '{key}' appears twice")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


def _read_table(path, header: list[str], max_rows, read_preamble=None) -> tuple:
    """A CSV table: the row of column names ``header``, then, when
    ``read_preamble`` is given, one row of text that it reads before any
    numeric row is parsed, then numeric rows parsed in one call from the
    open file's lines, one at a time; at most ``max_rows(meta)`` of them
    are parsed, meta being what ``read_preamble`` returned (or None), and
    the rows beyond are not. Returns meta and the rows. Blank lines are
    skipped and cells may carry surrounding whitespace; every malformed
    input raises FileFormatError naming ``path``."""
    preamble = 0 if read_preamble is None else 1
    with open(path, "r", encoding="utf-8-sig") as handle:
        lines = filter(str.strip, handle)
        try:
            head = list(itertools.islice(lines, 2 + preamble))
            if len(head) < 2 + preamble:
                raise FileFormatError(f"{path}: truncated table (need header + rows)")
            if [c.strip() for c in head[0].split(",")] != header:
                raise FileFormatError(
                    f"{path}: bad header {head[0].strip()!r}, expected {','.join(header)}"
                )
            meta = read_preamble(head[1].rstrip("\n")) if preamble else None
            # islice rather than loadtxt's max_rows, which slowed the read of
            # a 3,801-row spectrum by a fifth at max_rows = 2^20 + 1
            body = np.loadtxt(
                itertools.islice(
                    itertools.chain(head[1 + preamble:], lines), max_rows(meta)
                ),
                delimiter=",", comments=None, ndmin=2,
            )
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except ValueError as exc:
            raise FileFormatError(f"{path}: data rows: {exc}") from exc
    return meta, body


# ---------------------------------------------------------------- scan images

def write_scan_image_csv(image: ScanImage, path) -> None:
    """Write ``image`` in the module's scan CSV format, every value as
    its shortest round-trip ``repr``, so a read gives back the same
    doubles. The rows are formatted and written one row block at a time.
    In each block every distinct value is formatted once: ``np.unique``
    runs on the int64 bit patterns, which keeps -0.0 apart from 0.0, and
    the rows are joined from that table. A Poisson scan holds a few
    hundred distinct counts, so this skips nearly every per-pixel
    ``repr``, and the write needs one block beside the image."""
    g = image.grid
    header = (
        f"{','.join(_IMAGE_HEADER)}\n"
        f"{g.width_px},{g.height_px},{float(g.pitch_nm)!r},"
        f"{float(g.origin_nm[0])!r},{float(g.origin_nm[1])!r}\n"
    )
    with atomic_writer(path) as handle:
        handle.write(header.encode())
        for rows in g.row_blocks():
            handle.write(_csv_rows(image.values[rows]))


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of ``block``, each distinct bit pattern formatted
    once. Its temporaries go on return, before the next block is made."""
    bits, where = np.unique(block.ravel().view(np.int64), return_inverse=True)
    table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    lines = map(",".join, table[where].reshape(block.shape).tolist())
    return ("\n".join(lines) + "\n").encode()


def _scan_grid(path, row: str) -> ScanGrid:
    """The grid of a scan CSV's header value row, refused by
    FileFormatError before any of the rows it declares is parsed."""
    fields = row.split(",")
    if len(fields) != 5:
        raise FileFormatError(f"{path}: header value row needs 5 fields")
    try:
        width, height = int(fields[0]), int(fields[1])
        pitch = float(fields[2])
        origin = (float(fields[3]), float(fields[4]))
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header values: {exc}") from exc
    try:
        return ScanGrid(width_px=width, height_px=height, pitch_nm=pitch,
                        origin_nm=origin)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def read_scan_image_csv(path) -> ScanImage:
    """The scan in ``path``, refused by FileFormatError once it holds
    more rows than its header declares, without parsing the rows beyond."""
    grid, values = _read_table(
        path, _IMAGE_HEADER, lambda grid: grid.height_px + 1,
        lambda row: _scan_grid(path, row),
    )
    if values.shape[0] > grid.height_px:
        raise FileFormatError(
            f"{path}: more than the {grid.height_px} data rows the header declares"
        )
    if values.shape != (grid.height_px, grid.width_px):
        raise FileFormatError(
            f"{path}: expected {grid.height_px} data rows of {grid.width_px} values, "
            f"found {values.shape[0]} rows of {values.shape[1]}"
        )
    try:
        return ScanImage(grid=grid, values=values)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_pgm(image: ScanImage, path) -> None:
    """Min-max scaled 16-bit preview as a binary PGM (P5); the applied
    scaling is recorded in a <path>.scale.json sidecar. The pixels are
    scaled and written one row block at a time, so the write needs one
    block beside the image."""
    lo = float(image.values.min())
    hi = float(image.values.max())
    maxval = 65535
    span = hi - lo
    header = f"P5\n{image.grid.width_px} {image.grid.height_px}\n{maxval}\n".encode()
    with atomic_writer(path) as handle:
        handle.write(header)
        for rows in image.grid.row_blocks():
            handle.write(_pgm_rows(image.values[rows], lo, span, maxval))
    write_json(
        {
            "min_intensity": lo,
            "max_intensity": hi,
            "bits": 16,
            "maxval": maxval,
            "note": "pixel = round((intensity - min) / (max - min) * maxval)",
        },
        str(path) + ".scale.json",
    )


def _pgm_rows(block: np.ndarray, lo: float, span: float, maxval: int) -> bytes:
    """round((v - lo) / span * maxval) over ``block``, step by step in
    one float buffer, as big-endian 16-bit pixels. A constant image is
    all lo, so its v - lo is already 0."""
    scaled = np.subtract(block, lo)
    if span > 0.0:
        scaled /= span
        scaled *= maxval
        np.round(scaled, out=scaled)
    return scaled.astype(">u2").tobytes()


# ------------------------------------------------------------------- spectra

def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Write ``spectrum`` as a frequency_mhz,contrast header and one row
    per point, every value as its shortest round-trip ``repr``, formatted
    and written _SPECTRUM_BLOCK rows at a time."""
    f, c = spectrum.frequencies, spectrum.contrast
    with atomic_writer(path) as handle:
        handle.write(f"{','.join(_SPECTRUM_HEADER)}\n".encode())
        for lo in range(0, f.size, _SPECTRUM_BLOCK):
            rows = zip(f[lo:lo + _SPECTRUM_BLOCK].tolist(),
                       c[lo:lo + _SPECTRUM_BLOCK].tolist())
            handle.write("".join(f"{a!r},{b!r}\n" for a, b in rows).encode())


def read_spectrum_csv(path) -> Spectrum:
    """The spectrum in ``path``, refused by FileFormatError once it holds
    more than MAX_SWEEP_POINTS rows, without parsing the rows beyond."""
    _, body = _read_table(path, _SPECTRUM_HEADER, lambda _: MAX_SWEEP_POINTS + 1)
    if body.shape[0] > MAX_SWEEP_POINTS:
        raise FileFormatError(
            f"{path}: more than MAX_SWEEP_POINTS={MAX_SWEEP_POINTS} data rows"
        )
    if body.shape[1] != 2:
        raise FileFormatError(
            f"{path}: data rows need 2 columns, found {body.shape[1]}"
        )
    frequencies, contrast = np.ascontiguousarray(body.T)
    try:
        return Spectrum(frequencies=frequencies, contrast=contrast)
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
        for key in _CONSTRAINT_NUMBERS:
            if key in entry and not is_json_number(entry[key]):
                raise FileFormatError(
                    f"{path}: entry {i}: '{key}' must be a finite number, "
                    f"got {entry[key]!r}"
                )
        if "label" in entry and not isinstance(entry["label"], str):
            raise FileFormatError(
                f"{path}: entry {i}: 'label' must be a string, got {entry['label']!r}"
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
                    label=entry.get("label", ""),
                )
            )
        except (ValueError, OverflowError) as exc:
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
