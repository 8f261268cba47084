import json
import math

import numpy as np
import pytest

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
from nvvortex.pattern import NVOrientation, ScanGrid, ScanImage, simulate_pattern
from nvvortex.spin import Spectrum


@pytest.fixture
def sample_image(optics):
    grid = ScanGrid(9, 7, 42.5, origin_nm=(10.0, -20.0))
    return simulate_pattern(
        NVOrientation(1.1, 0.7), grid, optics, amplitude=123.0, background=4.5
    )


class TestScanImageCSV:
    def test_round_trip_is_exact(self, sample_image, tmp_path):
        path = tmp_path / "img.csv"
        write_scan_image_csv(sample_image, path)
        back = read_scan_image_csv(path)
        assert back.grid == sample_image.grid
        assert np.array_equal(back.values, sample_image.values)

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
        with pytest.raises(FileFormatError):
            read_scan_image_csv(path)


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

    def test_eight_bit_variant(self, sample_image, tmp_path):
        path = tmp_path / "img8.pgm"
        write_pgm(sample_image, path, bits=8)
        assert path.read_bytes().startswith(b"P5\n9 7\n255\n")

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

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "cones.json"
        write_json({"constraints": []}, path)
        with pytest.raises(FileFormatError):
            load_constraints_json(path)


class TestAtomicity:
    def test_write_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"v": 1}, path)
        write_json({"v": 2}, path)
        assert json.loads(path.read_text()) == {"v": 2}
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []
