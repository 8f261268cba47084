import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import axis_angle_deg
import nvvortex
from nvvortex.cli import main
from nvvortex.config import load_config
from nvvortex.fileio import write_json, write_scan_image_csv, write_spectrum_csv
from nvvortex.pattern import NVOrientation, ScanGrid, simulate_pattern
from nvvortex.focal_field import OpticalConfig
from nvvortex.spin import SpinParams, simulate_odmr_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


class TestSimulateAndFit:
    def test_simulate_writes_files_and_fit_round_trips(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, report = run_cli(
            capsys,
            "simulate-pattern",
            "--theta-deg", "109.84", "--phi-deg", "20.60",
            "--out", str(out), "--prefix", "nv1",
        )
        assert code == 0
        assert (out / "nv1.csv").exists()
        assert (out / "nv1.pgm").exists()
        assert (out / "nv1.pgm.scale.json").exists()
        assert (out / "nv1.meta.json").exists()
        assert report["config_hash"]
        assert report["tool_version"]

        code, fit = run_cli(
            capsys, "fit-orientation", "--image", str(out / "nv1.csv"),
        )
        assert code == 0
        err = axis_angle_deg(
            math.radians(fit["theta_deg"]),
            math.radians(fit["phi_deg"]),
            math.radians(109.84),
            math.radians(20.60),
        )
        assert err < 0.5
        assert fit["phi_identifiable"] is True
        # 4-decimal reporting contract at the CLI boundary
        assert fit["theta_deg"] == round(fit["theta_deg"], 4)

    def test_fit_report_is_deterministic(self, tmp_path, capsys):
        out = tmp_path / "sim"
        run_cli(
            capsys, "simulate-pattern", "--theta-deg", "70.0", "--phi-deg", "100.0",
            "--out", str(out),
        )
        _, first = run_cli(
            capsys, "fit-orientation", "--image", str(out / "pattern.csv"),
            "--seed", "5",
        )
        _, second = run_cli(
            capsys, "fit-orientation", "--image", str(out / "pattern.csv"),
            "--seed", "5",
        )
        assert first == second

    def test_crystal_labeling_mode(self, tmp_path, capsys):
        out = tmp_path / "sim"
        run_cli(
            capsys, "simulate-pattern", "--theta-deg", "109.25",
            "--phi-deg", "260.51", "--out", str(out),
        )
        code, fit = run_cli(
            capsys, "fit-orientation", "--image", str(out / "pattern.csv"),
            "--crystal", "111", "--crystal-azimuth-deg", "20.60",
        )
        assert code == 0
        assert fit["crystal"]["cut"] == "111"
        assert fit["crystal"]["nearest_axis_index"] in (1, 2, 3)
        assert fit["crystal"]["mismatch_deg"] < 1.0

    def test_missing_image_gives_io_exit(self, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "fit-orientation", "--image", str(tmp_path / "nope.csv"),
        )
        assert code == 4

    def test_truncated_csv_gives_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("width,height,pitch_nm,origin_x_nm,origin_y_nm\n3,3,50.0,0,0\n1,2,3\n")
        code, payload = run_cli(capsys, "fit-orientation", "--image", str(bad))
        assert code == 4
        assert payload["error"] == "FileFormatError"

    def test_bad_config_key_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optics": {"wavelenght_nm": 500}}))
        code, payload = run_cli(
            capsys, "fit-orientation", "--image", "x.csv", "--config", str(cfg),
        )
        assert code == 2
        assert "wavelenght_nm" in payload["message"]

    def test_removed_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key, value in (("n_starts", 12), ("simplex", {"max_iterations": 2000})):
            cfg.write_text(json.dumps({"fit": {key: value}}))
            code, payload = run_cli(
                capsys, "fit-orientation", "--image", "x.csv", "--config", str(cfg),
            )
            assert code == 2
            assert payload["error"] == "ConfigError"
            assert f"'fit.{key}' was removed" in payload["message"]

    def test_bundled_example_config_loads(self):
        path = os.path.join(os.path.dirname(nvvortex.__file__), "fixtures",
                            "example_config.json")
        assert load_config(path) == load_config(None)


class TestOdmr:
    def test_simulate_fit_invert_round_trip(self, tmp_path, capsys):
        code, report = run_cli(
            capsys, "odmr", "--simulate",
            "--b-gauss", "59.5", "--b-theta-deg", "8.59", "--b-phi-deg", "182.56",
            "--nv-theta-deg", "109.84", "--nv-phi-deg", "20.60",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert abs(report["b_gauss"] - 59.5) < 0.1
        alpha_true = 117.98  # angle between that field and that axis
        best = min(abs(a - alpha_true) for a in report["alpha_candidates_deg"])
        assert best < 0.1
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "odmr_fit.json").exists()

    def test_fit_existing_spectrum_file(self, tmp_path, capsys):
        spec = simulate_odmr_spectrum(
            59.5 * NVOrientation.from_degrees(8.59, 182.56).unit_axis,
            NVOrientation.from_degrees(109.84, 20.60),
            SpinParams(),
        )
        path = tmp_path / "s.csv"
        write_spectrum_csv(spec, path)
        code, report = run_cli(capsys, "odmr", "--spectrum", str(path))
        assert code == 0
        assert abs(report["b_gauss"] - 59.5) < 0.1

    def test_zero_field_reports_numerical_error(self, capsys):
        code, payload = run_cli(
            capsys, "odmr", "--simulate",
            "--b-gauss", "0.0", "--b-theta-deg", "0", "--b-phi-deg", "0",
            "--nv-theta-deg", "10", "--nv-phi-deg", "0",
            "--sweep-start-mhz", "2850", "--sweep-stop-mhz", "2890",
        )
        assert code == 3
        assert payload["error"] in ("TripletsOverlap", "DegenerateField", "FitFailed")

    def test_requires_exactly_one_source(self, capsys):
        code, payload = run_cli(capsys, "odmr")
        assert code == 2


class TestReconstruct:
    def test_bundled_fixture_reproduces_reference_direction(self, capsys):
        code, report = run_cli(capsys, "reconstruct", "--fixture", "paper_fig4")
        assert code == 0
        assert abs(report["theta_b_deg"] - 8.59) < 1.0
        assert abs(report["phi_b_deg"] - 182.56) < 2.0
        assert report["triangle_spread_deg"] < 1.3
        assert report["b_mean_gauss"] == pytest.approx(59.52, abs=0.02)
        assert report["direction_sigma_deg"] > 0.0
        # 2-decimal angle reporting contract
        assert report["theta_b_deg"] == round(report["theta_b_deg"], 2)

    def test_too_few_constraints_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        write_json(
            [
                {"axis_theta_deg": 0, "axis_phi_deg": 0, "alpha_deg": 10,
                 "b_gauss": 50},
                {"axis_theta_deg": 90, "axis_phi_deg": 0, "alpha_deg": 80,
                 "b_gauss": 50},
            ],
            path,
        )
        code, payload = run_cli(capsys, "reconstruct", "--constraints", str(path))
        assert code == 2

    def test_degenerate_axes_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        write_json(
            [
                {"axis_theta_deg": 0, "axis_phi_deg": 0, "alpha_deg": 10, "b_gauss": 50},
                {"axis_theta_deg": 0, "axis_phi_deg": 1e-7, "alpha_deg": 10, "b_gauss": 50},
                {"axis_theta_deg": 1e-7, "axis_phi_deg": 0, "alpha_deg": 10, "b_gauss": 50},
            ],
            path,
        )
        code, payload = run_cli(capsys, "reconstruct", "--constraints", str(path))
        assert code == 3
        assert payload["error"] == "DegenerateAxes"

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, payload = run_cli(capsys, "reconstruct", "--fixture", "nonexistent")
        assert code == 2


class TestPipeline:
    def _synthesize(self, tmp_path, labels_angles, field_vec):
        scans = tmp_path / "scans"
        spectra = tmp_path / "spectra"
        scans.mkdir()
        spectra.mkdir()
        optics = OpticalConfig()
        params = SpinParams()
        grid = ScanGrid(31, 31, 50.0)
        for label, (theta_deg, phi_deg) in labels_angles:
            o = NVOrientation.from_degrees(theta_deg, phi_deg)
            img = simulate_pattern(o, grid, optics, amplitude=5000.0, background=100.0)
            write_scan_image_csv(img, scans / f"{label}.csv")
            spec = simulate_odmr_spectrum(field_vec, o, params, linewidth_mhz=0.8,
                                          contrast_depth=0.03)
            write_spectrum_csv(spec, spectra / f"{label}.csv")
        return scans, spectra

    def test_end_to_end_recovers_field(self, tmp_path, capsys):
        # canonical-patch orientations so the azimuth ambiguity does not
        # bite; field direction chosen inside all reachable cones
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert report["errors"] == []
        assert len(report["per_nv"]) == 3
        recon = report["reconstruction"]
        assert recon is not None
        got = NVOrientation.from_degrees(
            recon["theta_b_deg"], recon["phi_b_deg"]
        ).unit_axis
        want = field / np.linalg.norm(field)
        assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 0.02
        assert abs(recon["b_mean_gauss"] - 59.5) < 0.1
        assert (tmp_path / "out" / "pipeline.json").exists()

    def test_empty_dirs_usage_error(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code, payload = run_cli(
            capsys, "pipeline", "--scans", str(tmp_path / "a"),
            "--spectra", str(tmp_path / "b"),
        )
        assert code == 2

    def test_mixed_valid_invalid_lists_errors(self, tmp_path, capsys):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        (scans / "nv4.csv").write_text("garbage\n")
        (spectra / "nv4.csv").write_text("garbage\n")
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0  # partial results: 3 valid NVs still reconstruct
        assert any(e["nv"] == "nv4" for e in report["errors"])
        assert report["reconstruction"] is not None


def test_console_entry_point_runs():
    # the child process imports the same package as this test run, installed
    # or not
    source_root = os.path.dirname(os.path.dirname(nvvortex.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nvvortex.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.parametrize(
    "script, args",
    [
        ("field_reconstruction_demo.py",
         ["--poisson-peak", "0", "--contrast-noise", "0"]),
        ("synthesize_reference_patterns.py", ["--out", "patterns"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    scripts = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")
    source_root = os.path.dirname(os.path.dirname(nvvortex.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(scripts, script), *args],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
