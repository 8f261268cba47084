import io
import json
import math
import os
import re
import stat

import numpy as np
import pytest

from conftest import pgm_reference, scan_image_csv_reference, spectrum_csv_reference
from nvvortex import fileio
from nvvortex.errors import FileFormatError
from nvvortex.fileio import (
    load_constraints_json,
    read_scan_image_csv,
    read_spectrum_csv,
    write_json,
    write_pgm,
    write_scan_image_csv,
    write_spectrum_csv,
)
from nvvortex.pattern import (
    MAX_PIXELS, NVOrientation, ScanGrid, ScanImage, simulate_pattern,
)
from nvvortex.spin import (
    SpinParams,
    Spectrum,
    add_contrast_noise,
    simulate_odmr_spectrum,
)


@pytest.fixture
def sample_image(optics):
    grid = ScanGrid(9, 7, 42.5, origin_nm=(10.0, -20.0))
    return simulate_pattern(
        NVOrientation(1.1, 0.7), grid, optics, amplitude=123.0, background=4.5
    )


@pytest.fixture(scope="module")
def writer_images(optics):
    """A Poisson 256x256 off-centre scan (138 distinct counts), a
    noiseless 64x64 off-centre map whose 4,096 values are all distinct,
    a grid of extremes that holds both zeros, and images that cross the
    writers' row-block edges: a noiseless 9000x1 row, wider than one
    block; a Poisson 256x37 scan, blocks of 32 and 5 rows; a noiseless
    1x300 column; and a 4096x3 grid whose first block holds 0.0 and
    whose second holds only -0.0."""
    orientation = NVOrientation.from_degrees(109.84, 20.60)
    poisson = simulate_pattern(
        orientation, ScanGrid(256, 256, 50.0), optics, amplitude=1e4,
        background=100.0, noise_seed=7, center_nm=(137.3, -61.9),
    )
    noiseless = simulate_pattern(
        orientation, ScanGrid(64, 64, 50.0), optics, amplitude=1e4,
        background=100.0, center_nm=(37.3, -21.9),
    )
    extremes = ScanImage(
        grid=ScanGrid(3, 2, 50.0, origin_nm=(-0.0, 1e-7)),
        values=np.array([[0.0, -0.0, 5e-324], [0.1, 1e16, 1e300]]),
    )
    kw = dict(amplitude=1e4, background=100.0)
    zeros = np.zeros((3, 4096))
    zeros[0, :3] = [1.0, 2.0, 3.0]
    zeros[2] = -0.0
    return {
        "poisson": poisson,
        "noiseless": noiseless,
        "extremes": extremes,
        "wide_row": simulate_pattern(
            orientation, ScanGrid(9000, 1, 10.0), optics, center_nm=(30_003.3, 1.7), **kw
        ),
        "rows_32_5": simulate_pattern(
            orientation, ScanGrid(256, 37, 50.0), optics, noise_seed=5, **kw
        ),
        "column": simulate_pattern(
            orientation, ScanGrid(1, 300, 50.0), optics, center_nm=(13.3, 7_001.7), **kw
        ),
        "split_zeros": ScanImage(grid=ScanGrid(4096, 3, 10.0), values=zeros),
    }


WRITER_IMAGES = [
    "poisson", "noiseless", "extremes", "wide_row", "rows_32_5", "column", "split_zeros",
]


class TestScanImageCSV:
    @pytest.mark.parametrize("name", WRITER_IMAGES)
    def test_matches_per_pixel_reference(self, writer_images, name, tmp_path):
        image = writer_images[name]
        path = tmp_path / "img.csv"
        write_scan_image_csv(image, path)
        assert path.read_bytes() == scan_image_csv_reference(image).encode()

    @pytest.mark.parametrize("name", WRITER_IMAGES)
    def test_round_trip_is_bit_exact(self, writer_images, name, tmp_path):
        # np.array_equal treats -0.0 == 0.0; the bit patterns do not
        image = writer_images[name]
        path = tmp_path / "img.csv"
        write_scan_image_csv(image, path)
        back = read_scan_image_csv(path).values
        assert np.array_equal(back.view(np.int64), image.values.view(np.int64))

    def test_round_trip_is_exact(self, sample_image, tmp_path):
        path = tmp_path / "img.csv"
        write_scan_image_csv(sample_image, path)
        back = read_scan_image_csv(path)
        assert back.grid == sample_image.grid
        assert np.array_equal(back.values, sample_image.values)

    @pytest.mark.parametrize("end", ["\n\n", ""],
                             ids=["blank-tail", "no-final-newline"])
    def test_blank_lines_and_padding(self, tmp_path, end):
        # blank and whitespace-only lines, a CRLF line end, padded cells
        # and a last line with or without its end read as the plain table
        path = tmp_path / "img.csv"
        path.write_text(
            "\n  width , height,pitch_nm,origin_x_nm,origin_y_nm\n\n"
            " 3,2,50.0,0.0,0.0 \n   \n"
            "1.5, 2.0 ,3.25\r\n\t\n 4.0,5.0,6.0e1" + end
        )
        image = read_scan_image_csv(path)
        assert image.grid == ScanGrid(3, 2, 50.0)
        assert np.array_equal(image.values, [[1.5, 2.0, 3.25], [4.0, 5.0, 60.0]])

    def test_truncated_file_rejected(self, sample_image, tmp_path):
        path = tmp_path / "img.csv"
        write_scan_image_csv(sample_image, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FileFormatError):
            read_scan_image_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("nonsense,header\n1,2\n3,4\n")
        with pytest.raises(FileFormatError):
            read_scan_image_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("2,2,50.0,0.0", "header value row needs 5 fields"),
        ("2,2,50.0,0.0,0.0,1", "header value row needs 5 fields"),
        ("2,two,50.0,0.0,0.0", "bad header values"),
        ("2.5,2,50.0,0.0,0.0", "bad header values"),
    ])
    def test_bad_header_values_rejected(self, tmp_path, row, message):
        path = tmp_path / "img.csv"
        path.write_text(f"width,height,pitch_nm,origin_x_nm,origin_y_nm\n{row}\n"
                        "1.0,2.0\n3.0,4.0\n")
        with pytest.raises(FileFormatError, match=message):
            read_scan_image_csv(path)

    def test_oversized_grid_refused_before_any_row_is_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "img.csv"
        path.write_text("width,height,pitch_nm,origin_x_nm,origin_y_nm\n"
                        "2100,2100,50.0,0.0,0.0\n1.0,2.0\n")

        def refuse(*args, **kwargs):
            raise AssertionError("a data row was parsed")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(FileFormatError) as err:
            read_scan_image_csv(path)
        assert str(err.value) == (
            f"{path}: 2100x2100 exceeds MAX_PIXELS={MAX_PIXELS}"
        )

    def test_row_over_the_height_refused_before_the_rest_is_parsed(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("width,height,pitch_nm,origin_x_nm,origin_y_nm\n"
                        "2,2,50.0,0.0,0.0\n1.0,2.0\n3.0,4.0\n5.0,6.0\n"
                        "not a row\n")  # never parsed
        with pytest.raises(FileFormatError) as err:
            read_scan_image_csv(path)
        assert str(err.value) == f"{path}: more than the 2 data rows the header declares"

    def test_ragged_row_rejected(self, sample_image, tmp_path):
        path = tmp_path / "img.csv"
        write_scan_image_csv(sample_image, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + ",9.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_scan_image_csv(path)

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text(
            "width,height,pitch_nm,origin_x_nm,origin_y_nm\n"
            "2,2,50.0,0.0,0.0\n1.0,2.0\n-3.0,4.0\n"
        )
        with pytest.raises(FileFormatError) as err:
            read_scan_image_csv(path)
        assert str(err.value) == f"{path}: image values must be non-negative"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_values_rejected(self, tmp_path, value):
        path = tmp_path / "img.csv"
        path.write_text(
            "width,height,pitch_nm,origin_x_nm,origin_y_nm\n"
            f"2,2,50.0,0.0,0.0\n1.0,2.0\n{value},4.0\n"
        )
        with pytest.raises(FileFormatError) as err:
            read_scan_image_csv(path)
        assert str(err.value) == f"{path}: image values must be finite"


class TestPGM:
    def test_header_and_sidecar(self, sample_image, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(sample_image, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n9 7\n65535\n")
        body = data.split(b"65535\n", 1)[1]
        assert len(body) == 9 * 7 * 2
        values = sample_image.values
        expected = np.round(
            (values - values.min()) / (values.max() - values.min()) * 65535
        )
        assert np.array_equal(np.frombuffer(body, ">u2").reshape(7, 9), expected)
        sidecar = json.loads((tmp_path / "img.pgm.scale.json").read_text())
        assert sidecar["min_intensity"] == pytest.approx(sample_image.values.min())
        assert sidecar["max_intensity"] == pytest.approx(sample_image.values.max())
        assert sidecar["bits"] == 16

    @pytest.mark.parametrize("name", WRITER_IMAGES)
    def test_matches_whole_image_reference(self, writer_images, name, tmp_path):
        image = writer_images[name]
        path = tmp_path / "img.pgm"
        write_pgm(image, path)
        assert path.read_bytes() == pgm_reference(image)

    def test_constant_image_writes_zeros(self, tmp_path):
        grid = ScanGrid(3, 3, 10.0)
        img = ScanImage(grid=grid, values=np.full((3, 3), 2.0))
        path = tmp_path / "flat.pgm"
        write_pgm(img, path)
        body = path.read_bytes().split(b"65535\n", 1)[1]
        assert body == b"\x00" * 18


class TestSpectrumCSV:
    def test_round_trip(self, tmp_path):
        spec = Spectrum(
            frequencies=np.linspace(2800.0, 2900.0, 11),
            contrast=np.linspace(1.0, 0.9, 11),
        )
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        assert np.array_equal(back.frequencies, spec.frequencies)
        assert np.array_equal(back.contrast, spec.contrast)

    def test_matches_numpy_scalar_reference(self, tmp_path):
        o = NVOrientation.from_degrees(109.84, 20.60)
        field = 59.5 * NVOrientation.from_degrees(8.59, 182.56).unit_axis
        spec = add_contrast_noise(
            simulate_odmr_spectrum(field, o, SpinParams()), 0.002, seed=3
        )
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        assert path.read_bytes() == spectrum_csv_reference(spec).encode()
        back = read_spectrum_csv(path)
        assert np.array_equal(back.contrast.view(np.int64),
                              spec.contrast.view(np.int64))

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("frequency_mhz,contrast\n2800.0,1.0\n2799.0,1.0\n2801.0,1.0\n")
        with pytest.raises(FileFormatError):
            read_spectrum_csv(path)

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("frequency_mhz,contrast\n2800.0,1.0,9\n2801.0,1.0,9\n")
        with pytest.raises(FileFormatError):
            read_spectrum_csv(path)

    # the bound patched to 8 rows: the real one, MAX_SWEEP_POINTS = 2^20,
    # takes seconds to write and read
    @staticmethod
    def _spectrum_rows(path, rows: int, tail: str = "") -> None:
        path.write_text("frequency_mhz,contrast\n"
                        + "".join(f"{2800.0 + i!r},1.0\n" for i in range(rows)) + tail)

    def test_spectrum_at_the_row_bound_is_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "MAX_SWEEP_POINTS", 8)
        path = tmp_path / "spec.csv"
        self._spectrum_rows(path, 8)
        assert read_spectrum_csv(path).frequencies.size == 8

    def test_row_over_the_bound_refused_before_the_rest_is_parsed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fileio, "MAX_SWEEP_POINTS", 8)
        path = tmp_path / "spec.csv"
        self._spectrum_rows(path, 9, tail="not a row\n")  # never parsed
        with pytest.raises(FileFormatError) as err:
            read_spectrum_csv(path)
        assert str(err.value) == f"{path}: more than MAX_SWEEP_POINTS=8 data rows"


class TestConstraints:
    def test_round_trip_via_json(self, tmp_path):
        path = tmp_path / "cones.json"
        write_json(
            [
                {
                    "label": "a",
                    "axis_theta_deg": 109.84,
                    "axis_phi_deg": 20.60,
                    "alpha_deg": 117.62,
                    "alpha_sigma_deg": 0.02,
                    "b_gauss": 59.53,
                    "b_sigma_gauss": 0.26,
                    "_comment": "ignored",
                }
            ],
            path,
        )
        cons = load_constraints_json(path)
        assert len(cons) == 1
        assert cons[0].label == "a"
        assert cons[0].alpha == pytest.approx(math.radians(117.62))
        assert cons[0].b == 59.53
        assert cons[0].alpha_sigma == pytest.approx(math.radians(0.02))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cones.json"
        write_json(
            [{"axis_theta_deg": 1, "axis_phi_deg": 2, "alpha_deg": 3,
              "b_gauss": 4, "bogus": 5}],
            path,
        )
        with pytest.raises(FileFormatError) as err:
            load_constraints_json(path)
        assert "bogus" in str(err.value)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "cones.json"
        write_json([{"axis_theta_deg": 1.0}], path)
        with pytest.raises(FileFormatError):
            load_constraints_json(path)

    @pytest.mark.parametrize("key", ["b_gauss", "alpha_sigma_deg", "b_sigma_gauss"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "cones.json"
        entry = {"axis_theta_deg": 1.0, "axis_phi_deg": 2.0, "alpha_deg": 3.0,
                 "b_gauss": 4.0}
        path.write_text(json.dumps([{**entry, key: value}]))
        with pytest.raises(FileFormatError, match="finite"):
            load_constraints_json(path)

    @pytest.mark.parametrize(
        "key",
        ["axis_theta_deg", "axis_phi_deg", "alpha_deg", "b_gauss",
         "alpha_sigma_deg", "b_sigma_gauss"],
    )
    @pytest.mark.parametrize("value", [True, False, "20.6", None, [1.0]])
    def test_non_number_rejected_by_name(self, tmp_path, key, value):
        # the config loader's rule: an int or a finite float, never a bool
        path = tmp_path / "cones.json"
        entry = {"axis_theta_deg": 1.0, "axis_phi_deg": 2.0, "alpha_deg": 3.0,
                 "b_gauss": 4.0}
        path.write_text(json.dumps([entry, {**entry, key: value}]))
        with pytest.raises(FileFormatError, match=f"entry 1: '{key}' must be"):
            load_constraints_json(path)

    def test_int_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "cones.json"
        path.write_text(json.dumps([{"axis_theta_deg": 1, "axis_phi_deg": 2,
                                     "alpha_deg": 3, "b_gauss": 10**400}]))
        with pytest.raises(FileFormatError, match="entry 0"):
            load_constraints_json(path)

    @pytest.mark.parametrize("text, message", [
        ('[{"axis_theta_deg": 1', "not valid JSON"),
        ('[{"axis_theta_deg": 1, "axis_phi_deg": 2, "alpha_deg": 3, "b_gauss": 4}, 5]',
         "entry 1 is not an object"),
        ('[["axis_theta_deg", 1]]', "entry 0 is not an object"),
    ], ids=["invalid-json", "number-entry", "list-entry"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "cones.json"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=message):
            load_constraints_json(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "cones.json"
        write_json({"constraints": []}, path)
        with pytest.raises(FileFormatError):
            load_constraints_json(path)

    def test_repeated_key_rejected(self, tmp_path):
        # json.load alone would keep the last alpha_deg, 60
        path = tmp_path / "cones.json"
        path.write_text('[{"axis_theta_deg": 1, "axis_phi_deg": 2, "alpha_deg": 50, '
                        '"alpha_deg": 60, "b_gauss": 4}]')
        with pytest.raises(FileFormatError) as err:
            load_constraints_json(path)
        assert str(err.value) == f"{path}: key 'alpha_deg' appears twice"


class TestAtomicity:
    def test_write_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"v": 1}, path)
        write_json({"v": 2}, path)
        assert json.loads(path.read_text()) == {"v": 2}
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []

    def test_failed_rename_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        write_json({"v": 1}, path)
        before = path.read_bytes()
        written = []

        def fail(src, dst):  # the temp file is complete: it only lacks the rename
            with open(src, "rb") as handle:
                written.append(handle.read())
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            write_json({"v": 2}, path)
        assert written == [b'{\n  "v": 2\n}\n']
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("writer", [write_scan_image_csv, write_pgm],
                             ids=lambda w: w.__name__)
    def test_failed_block_write_leaves_target_and_no_temp_file(
        self, writer, writer_images, tmp_path, monkeypatch
    ):
        path = tmp_path / "out"
        writer(writer_images["noiseless"], path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        writes = []

        class FailingHandle(io.BufferedWriter):
            def write(self, data):  # the header, the first block, then a failure
                writes.append(len(data))
                if len(writes) == 3:
                    raise OSError("disk full")
                return super().write(data)

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FailingHandle(io.FileIO(fd, "w")))
        with pytest.raises(OSError, match="disk full"):
            writer(writer_images["rows_32_5"], path)  # two blocks
        assert len(writes) == 3
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_mode_follows_umask_like_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_json({"v": 1}, tmp_path / "atomic.json")
            with open(tmp_path / "plain.json", "w", encoding="utf-8"):
                pass
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("atomic.json", "plain.json")]
        assert modes[0] == modes[1] == 0o666 & ~umask


def _latin1_byte_at(path, at: int) -> None:
    """Overwrite byte ``at`` of ``path`` with 0xE9, the Latin-1 e-acute,
    which no UTF-8 text holds before an ASCII byte."""
    data = bytearray(path.read_bytes())
    assert len(data) > at + 1
    data[at] = 0xE9
    path.write_bytes(bytes(data))


class TestNotUtf8:
    """A file that is not UTF-8 is a FileFormatError that names it and
    says so, wherever the bad byte lies: the table readers decode 16,384
    characters at a time, and a byte past the first block was once
    reported as a bad data row, at a position counted from its block."""

    @pytest.mark.parametrize("at", [30, 20_000], ids=["first-block", "later-block"])
    def test_scan_csv(self, writer_images, tmp_path, at):
        path = tmp_path / "img.csv"
        write_scan_image_csv(writer_images["noiseless"], path)
        _latin1_byte_at(path, at)
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{path}: not UTF-8 text")):
            read_scan_image_csv(path)

    @pytest.mark.parametrize("at", [3, 20_000], ids=["header", "later-block"])
    def test_spectrum_csv(self, tmp_path, at):
        spec = simulate_odmr_spectrum(
            59.5 * NVOrientation.from_degrees(8.59, 182.56).unit_axis,
            NVOrientation.from_degrees(109.84, 20.60), SpinParams(),
        )
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        _latin1_byte_at(path, at)
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{path}: not UTF-8 text")):
            read_spectrum_csv(path)

    def test_constraints_json(self, tmp_path):
        path = tmp_path / "cones.json"
        path.write_bytes(b'[{"label": "caf\xe9"}]')
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{path}: not UTF-8 text")):
            load_constraints_json(path)


BOM = b"\xef\xbb\xbf"


def _with_bytes_at(src, dst, at: int, data: bytes = BOM) -> None:
    """Write ``src``'s bytes to ``dst`` with ``data`` inserted before byte
    ``at``."""
    raw = src.read_bytes()
    dst.write_bytes(raw[:at] + data + raw[at:])


def _spectrum_file(tmp_path):
    spec = simulate_odmr_spectrum(
        59.5 * NVOrientation.from_degrees(8.59, 182.56).unit_axis,
        NVOrientation.from_degrees(109.84, 20.60), SpinParams(),
    )
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    return path


class TestByteOrderMark:
    """A UTF-8 file that starts with the byte-order mark EF BB BF, as
    spreadsheet exports often write it, reads bit for bit as the same
    file without it; a mark anywhere else is a FileFormatError."""

    def test_scan_csv(self, writer_images, tmp_path):
        path, marked = tmp_path / "img.csv", tmp_path / "marked.csv"
        write_scan_image_csv(writer_images["poisson"], path)
        _with_bytes_at(path, marked, 0)
        plain, back = read_scan_image_csv(path), read_scan_image_csv(marked)
        assert back.grid == plain.grid
        assert np.array_equal(back.values.view(np.int64), plain.values.view(np.int64))

    def test_spectrum_csv(self, tmp_path):
        path, marked = _spectrum_file(tmp_path), tmp_path / "marked.csv"
        _with_bytes_at(path, marked, 0)
        plain, back = read_spectrum_csv(path), read_spectrum_csv(marked)
        for a, b in [(plain.frequencies, back.frequencies),
                     (plain.contrast, back.contrast)]:
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_constraints_json(self, tmp_path):
        path, marked = tmp_path / "cones.json", tmp_path / "marked.json"
        path.write_text(json.dumps([{
            "axis_theta_deg": 109.84, "axis_phi_deg": 20.6, "alpha_deg": 117.98,
            "b_gauss": 59.5, "alpha_sigma_deg": 0.1, "label": "NV1",
        }]))
        _with_bytes_at(path, marked, 0)
        assert load_constraints_json(marked) == load_constraints_json(path)

    @pytest.mark.parametrize(
        "at", [0, 1, 60, 100, 20_000],
        ids=["second-mark", "header", "value-row", "data-row", "later-block"],
    )
    def test_scan_csv_mark_after_the_first_byte(self, writer_images, tmp_path, at):
        path, marked = tmp_path / "img.csv", tmp_path / "marked.csv"
        write_scan_image_csv(writer_images["noiseless"], path)
        _with_bytes_at(path, marked, at, BOM if at else BOM + BOM)
        with pytest.raises(FileFormatError, match=re.escape(str(marked))):
            read_scan_image_csv(marked)

    @pytest.mark.parametrize("at", [0, 1, 30], ids=["second-mark", "header", "data-row"])
    def test_spectrum_csv_mark_after_the_first_byte(self, tmp_path, at):
        path, marked = _spectrum_file(tmp_path), tmp_path / "marked.csv"
        _with_bytes_at(path, marked, at, BOM if at else BOM + BOM)
        with pytest.raises(FileFormatError, match=re.escape(str(marked))):
            read_spectrum_csv(marked)

    @pytest.mark.parametrize("at", [0, 1], ids=["second-mark", "inside"])
    def test_json_mark_after_the_first_byte(self, tmp_path, at):
        path, marked = tmp_path / "cones.json", tmp_path / "marked.json"
        path.write_text("[]")
        _with_bytes_at(path, marked, at, BOM if at else BOM + BOM)
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{marked}: not valid JSON")):
            load_constraints_json(marked)
