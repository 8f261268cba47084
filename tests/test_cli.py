import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import axis_angle_deg
import nvvortex
from nvvortex import cli, fileio, pattern, spin
from nvvortex.cli import bundled_fixture_path, main
from nvvortex.config import RunConfig, load_config
from nvvortex.errors import TripletsOverlap
from nvvortex.fileio import (
    read_spectrum_csv,
    write_json,
    write_scan_image_csv,
    write_spectrum_csv,
)
from nvvortex.pattern import NVOrientation, ScanGrid, ScanImage, simulate_pattern
from nvvortex.focal_field import OpticalConfig
from nvvortex.orient_fit import fit_orientation
from nvvortex.spin import (
    SpinParams,
    Spectrum,
    field_estimate,
    fit_odmr_model,
    simulate_odmr_spectrum,
)
from nvvortex.vector_recon import ConeConstraint, solve_direction


#: a 2x2 scan 1e7 nm apart: covering its diagonal would take a 2.7 GB
#: profile
OVERSIZED_SCAN = (
    "width,height,pitch_nm,origin_x_nm,origin_y_nm\n2,2,1e7,0,0\n1,2\n3,4\n"
)

#: a 2x2 ramp: fewer pixels than the orientation fit's six unknowns
RAMP_2X2_SCAN = (
    "width,height,pitch_nm,origin_x_nm,origin_y_nm\n2,2,50.0,0,0\n0,1\n2,3\n"
)


#: optics whose lateral bandwidth k sin alpha makes a 31x31 scan at 50 nm
#: need more than MAX_PROFILE_PANELS panels (1,555,010 and 208,783 to
#: cover its diagonal)
WIDE_BAND_OPTICS = [
    pytest.param({"wavelength_nm": 0.001}, id="wavelength"),
    pytest.param({"immersion_index": 1e6, "numerical_aperture": 1e5}, id="immersion"),
]


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
        assert "phi_identifiable" not in fit
        # 4-decimal reporting contract at the CLI boundary
        assert fit["theta_deg"] == round(fit["theta_deg"], 4)

    def test_negative_noise_seed_names_the_flag(self, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "simulate-pattern", "--theta-deg", "90", "--phi-deg", "0",
            "--noise-seed", "-1", "--out", str(tmp_path / "sim"),
        )
        assert code == 2
        assert payload["error"] == "ConfigError"
        assert "--noise-seed" in payload["message"]
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--center-x-nm", "inf"), ("--center-x-nm", "nan"),
        ("--center-y-nm", "-inf"), ("--z-nm", "nan"),
    ])
    def test_non_finite_position_names_the_flag(self, tmp_path, capsys, flag, value):
        code, payload = run_cli(
            capsys, "simulate-pattern", "--theta-deg", "90", "--phi-deg", "0",
            f"{flag}={value}", "--out", str(tmp_path / "sim"),
        )
        assert code == 2
        assert payload["error"] == "ConfigError"
        assert flag in payload["message"]
        assert not (tmp_path / "sim").exists()

    def test_infinite_pitch_is_usage_error(self, tmp_path, capsys):
        code, payload = run_cli(
            capsys, "simulate-pattern", "--theta-deg", "90", "--phi-deg", "0",
            "--pitch-nm", "inf", "--out", str(tmp_path / "sim"),
        )
        assert code == 2
        assert payload["message"] == "--pitch-nm must be a finite number > 0, got inf"
        assert not (tmp_path / "sim").exists()

    def test_infinite_pitch_in_csv_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("width,height,pitch_nm,origin_x_nm,origin_y_nm\n"
                       "2,2,inf,0,0\n1,2\n3,4\n")
        code, payload = run_cli(capsys, "fit-orientation", "--image", str(bad))
        assert code == 4
        assert payload["error"] == "FileFormatError"

    def test_fit_report_is_deterministic(self, tmp_path, capsys):
        out = tmp_path / "sim"
        run_cli(
            capsys, "simulate-pattern", "--theta-deg", "70.0", "--phi-deg", "100.0",
            "--out", str(out),
        )
        _, first = run_cli(
            capsys, "fit-orientation", "--image", str(out / "pattern.csv"),
        )
        _, second = run_cli(
            capsys, "fit-orientation", "--image", str(out / "pattern.csv"),
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

    @pytest.mark.parametrize("width, height", [(2, 2), (3, 2)])
    def test_scan_too_small_to_fit_is_numerical_error(
        self, tmp_path, capsys, width, height
    ):
        path = tmp_path / "small.csv"
        ramp = np.arange(width * height, dtype=float).reshape(height, width)
        write_scan_image_csv(
            ScanImage(grid=ScanGrid(width, height, 50.0), values=ramp), path
        )
        code, payload = run_cli(capsys, "fit-orientation", "--image", str(path))
        assert code == 3
        assert payload["error"] == "DegenerateTemplate"
        assert f"{width * height} pixels" in payload["message"]

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

    def test_oversized_scan_gives_parse_exit(self, tmp_path, capsys,
                                             bounded_quadrature):
        bad = tmp_path / "wide.csv"
        bad.write_text(OVERSIZED_SCAN)
        code, payload = run_cli(capsys, "fit-orientation", "--image", str(bad))
        assert code == 4
        assert payload["error"] == "FileFormatError"
        assert "MAX_PROFILE_RADIUS_NM" in payload["message"]

    @pytest.mark.parametrize("extra", [
        ["--pitch-nm", "1e9", "--width", "2", "--height", "1"],
        ["--center-x-nm", "1e9"],
    ], ids=["pitch", "centre"])
    def test_synthesis_beyond_the_profile_bound_is_refused(
        self, tmp_path, capsys, bounded_quadrature, extra
    ):
        out = tmp_path / "sim"
        code, payload = run_cli(
            capsys, "simulate-pattern", "--theta-deg", "90", "--phi-deg", "0",
            "--out", str(out), *extra,
        )
        assert code == 2
        assert "MAX_PROFILE_RADIUS_NM" in payload["message"]
        assert not out.exists()

    def test_defocus_past_the_node_bound_is_refused(self, tmp_path, capsys,
                                                     bounded_quadrature):
        # 200 um of defocus asks for k |z| = 3,586, past the 2,240 that
        # MAX_QUADRATURE_NODES covers
        out = tmp_path / "sim"
        code, payload = run_cli(
            capsys, "simulate-pattern", "--theta-deg", "90", "--phi-deg", "0",
            "--z-nm", "2e5", "--out", str(out),
        )
        assert code == 2
        assert "MAX_QUADRATURE_NODES=1024" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("optics", WIDE_BAND_OPTICS)
    @pytest.mark.parametrize("command", ["fit-orientation", "simulate-pattern"])
    def test_wide_band_optics_are_refused_before_any_build(
        self, tmp_path, capsys, monkeypatch, optics, command
    ):
        scan = tmp_path / "scan.csv"
        write_scan_image_csv(
            simulate_pattern(NVOrientation(1.1, 0.7), ScanGrid(31, 31, 50.0),
                             OpticalConfig()),
            scan,
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optics": optics}))

        def refuse(*args, **kwargs):
            raise AssertionError("a profile build reached the quadrature")

        monkeypatch.setattr(pattern, "azimuthal_field_profile", refuse)
        argv = {
            "fit-orientation": ["--image", str(scan)],
            "simulate-pattern": ["--theta-deg", "90", "--phi-deg", "0",
                                 "--out", str(tmp_path / "sim")],
        }[command]
        code, payload = run_cli(capsys, command, "--config", str(cfg), *argv)
        assert code == 2
        assert re.match(
            r"profile of \d+ panels exceeds MAX_PROFILE_PANELS=138: the optics' "
            r"lateral bandwidth k sin alpha is ", payload["message"]
        )
        assert not (tmp_path / "sim").exists()

    def test_bad_config_key_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optics": {"wavelenght_nm": 500}}))
        code, payload = run_cli(
            capsys, "fit-orientation", "--image", "x.csv", "--config", str(cfg),
        )
        assert code == 2
        assert "wavelenght_nm" in payload["message"]

    # optics.quadrature_nodes is a removed key: it is refused as unknown
    # whatever its value, 64 included
    @pytest.mark.parametrize("section, key, value", [
        ("optics", "quadrature_nodes", 2.5),
        ("optics", "quadrature_nodes", "64"),
        ("optics", "quadrature_nodes", True),
        ("optics", "quadrature_nodes", 4),
        ("optics", "numerical_aperture", None),
        ("spin", "a_par", "-2.14"),
        ("optics", "wavelength_nm", float("inf")),
        ("spin", "gamma_n", float("nan")),
        ("optics", "quadrature_nodes", 64.0),
        ("optics", "immersion_index", float("nan")),
        ("spin", "d", False),
        ("spin", "gamma_e", "2.8"),
        ("optics", "wavelength_nm", -1),
        ("optics", "numerical_aperture", 2.0),
        ("optics", "immersion_index", 1.0),
        ("spin", "d", -5),
        ("optics", "quadrature_nodes", 1_000_000),
    ])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, section, key,
                                            value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code, payload = run_cli(
            capsys, "fit-orientation", "--image", "x.csv", "--config", str(cfg),
        )
        assert code == 2
        assert payload["error"] == "ConfigError"
        assert re.search(rf"\b{key}\b", payload["message"])
        if key == "quadrature_nodes":
            assert payload["message"] == "unknown config key 'optics.quadrature_nodes'"

    def test_removed_config_key_is_named(self, tmp_path, capsys):
        # keys and sections that older versions accepted are refused like
        # any other key the loader does not read: a section by its name
        cfg = tmp_path / "cfg.json"
        for section, key, value, name in (
            ("fit", "n_starts", 12, "fit"),
            ("fit", "simplex", {"max_iterations": 2000}, "fit"),
            ("fit", "seed", 0, "fit"),
            ("pattern", "width_px", 31, "pattern"),
            ("optics", "convergence_rtol", 1e-9, "optics.convergence_rtol"),
            ("optics", "pupil_amplitude", 1.0, "optics.pupil_amplitude"),
            ("optics", "quadrature_nodes", 64, "optics.quadrature_nodes"),
            ("spin", "a_par", -2.14, "spin.a_par"),
            ("spin", "a_perp", -2.70, "spin.a_perp"),
            ("spin", "q", -4.96, "spin.q"),
            ("spin", "gamma_n", 3.077e-4, "spin.gamma_n"),
        ):
            cfg.write_text(json.dumps({section: {key: value}}))
            code, payload = run_cli(
                capsys, "fit-orientation", "--image", "x.csv", "--config", str(cfg),
            )
            assert code == 2
            assert payload["error"] == "ConfigError"
            assert payload["message"] == f"unknown config key '{name}'"

    def test_removed_section_without_keys_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pattern": {"_note": "raster defaults"}}))
        code, payload = run_cli(
            capsys, "fit-orientation", "--image", "x.csv", "--config", str(cfg),
        )
        assert code == 2
        assert payload["message"] == "unknown config key 'pattern'"

    def test_bundled_example_config_loads(self):
        path = os.path.join(os.path.dirname(nvvortex.__file__), "fixtures",
                            "example_config.json")
        assert load_config(path) == load_config(None)

    def test_example_config_names_every_accepted_key(self):
        path = os.path.join(os.path.dirname(nvvortex.__file__), "fixtures",
                            "example_config.json")
        with open(path) as handle:
            example = json.load(handle)
        listed = {
            section: {k for k in keys if not k.startswith("_")}
            for section, keys in example.items() if not section.startswith("_")
        }
        accepted = {
            section: set(keys)
            for section, keys in dataclasses.asdict(load_config(None)).items()
        }
        assert listed == accepted

    def test_config_holds_five_settable_values(self):
        assert {
            section: sorted(keys)
            for section, keys in dataclasses.asdict(load_config(None)).items()
        } == {
            "optics": ["immersion_index", "numerical_aperture", "wavelength_nm"],
            "spin": ["d", "gamma_e"],
        }


SIMULATED_ODMR = ("--b-gauss", "59.5", "--b-theta-deg", "8.59", "--b-phi-deg", "182.56",
                  "--nv-theta-deg", "109.84", "--nv-phi-deg", "20.60")


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
        assert report["baseline"] == pytest.approx(1.0, abs=1e-5)

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

    def test_one_dip_spectrum_is_numerical_error(self, tmp_path, capsys):
        f = np.linspace(2780.0, 2980.0, 2001)
        path = tmp_path / "s.csv"
        write_spectrum_csv(spin.Spectrum(f, 1.0 - 0.03 * spin._lorentz(f, 2870.0, 0.8)),
                           path)
        code, payload = run_cli(capsys, "odmr", "--spectrum", str(path))
        assert code == 3
        assert payload["error"] == "TripletsOverlap"
        assert "only one dip cluster" in payload["message"]

    def test_spectrum_over_the_row_bound_is_parse_error(self, tmp_path, capsys,
                                                        monkeypatch):
        # the bound patched to 8 rows: the real one takes seconds to write and read
        monkeypatch.setattr(fileio, "MAX_SWEEP_POINTS", 8)
        f = np.linspace(2780.0, 2980.0, 9)
        path = tmp_path / "s.csv"
        write_spectrum_csv(spin.Spectrum(f, np.ones_like(f)), path)
        code, payload = run_cli(capsys, "odmr", "--spectrum", str(path))
        assert code == 4
        assert payload["error"] == "FileFormatError"
        assert payload["message"] == f"{path}: more than MAX_SWEEP_POINTS=8 data rows"

    def test_requires_exactly_one_source(self, capsys):
        code, payload = run_cli(capsys, "odmr")
        assert code == 2

    def test_oversized_sweep_names_the_limit(self, capsys):
        code, payload = run_cli(
            capsys, "odmr", "--simulate", "--b-gauss", "59.5", "--b-theta-deg", "8.59",
            "--b-phi-deg", "182.56", "--nv-theta-deg", "109.84",
            "--nv-phi-deg", "20.60", "--sweep-points", str(10**12),
        )
        assert code == 2
        assert "MAX_SWEEP_POINTS" in payload["message"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--b-gauss", "-50"), ("--b-gauss", "nan"), ("--noise-sigma", "-1"),
         ("--noise-sigma", "nan"), ("--noise-seed", "-1"),
         # None leaves the flag out
         *((name, None) for name in ("--b-gauss", "--b-theta-deg", "--b-phi-deg",
                                     "--nv-theta-deg", "--nv-phi-deg"))],
    )
    def test_bad_simulation_value_names_the_flag(self, tmp_path, capsys, flag, value):
        args = {"--b-gauss": "59.5", "--b-theta-deg": "8.59", "--b-phi-deg": "182.56",
                "--nv-theta-deg": "109.84", "--nv-phi-deg": "20.60", flag: value}
        code, payload = run_cli(
            capsys, "odmr", "--simulate",
            *(x for kv in args.items() if kv[1] is not None for x in kv),
            "--out", str(tmp_path / "odmr"),
        )
        assert code == 2
        assert payload["error"] == "ConfigError"
        assert flag in payload["message"]
        assert not (tmp_path / "odmr").exists()

    def test_noise_seed_is_reported_and_sets_the_noise(self, tmp_path, capsys):
        def simulate(seed):
            out = tmp_path / f"s{seed}"
            _, report = run_cli(
                capsys, "odmr", "--simulate", *SIMULATED_ODMR, "--noise-sigma",
                "0.002", "--noise-seed", str(seed), "--out", str(out),
            )
            return report, (out / "spectrum.csv").read_text()

        (report, a), (_, b), (_, c) = simulate(7), simulate(7), simulate(8)
        assert report["source"]["noise_seed"] == 7
        assert a == b and a != c


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

    def test_non_finite_constraint_is_parse_error(self, tmp_path, capsys):
        with open(bundled_fixture_path("paper_fig4")) as handle:
            entries = json.load(handle)
        entries[0]["b_gauss"] = float("nan")
        entries[1]["alpha_sigma_deg"] = float("inf")
        path = tmp_path / "cones.json"
        path.write_text(json.dumps(entries))  # written as NaN and Infinity
        code, payload = run_cli(capsys, "reconstruct", "--constraints", str(path))
        assert code == 4
        assert payload["error"] == "FileFormatError"

    @pytest.mark.parametrize(
        "key, value", [("axis_theta_deg", True), ("axis_phi_deg", "20.6")]
    )
    def test_non_number_constraint_is_parse_error(
        self, tmp_path, capsys, key, value
    ):
        with open(bundled_fixture_path("paper_fig4")) as handle:
            entries = json.load(handle)
        entries[2][key] = value
        path = tmp_path / "cones.json"
        path.write_text(json.dumps(entries))
        code, payload = run_cli(capsys, "reconstruct", "--constraints", str(path))
        assert code == 4
        assert payload["error"] == "FileFormatError"
        assert f"entry 2: '{key}'" in payload["message"]

    @pytest.mark.parametrize("label", [None, 5, True, ["NV1"]])
    def test_non_string_label_is_parse_error(self, tmp_path, capsys, label):
        with open(bundled_fixture_path("paper_fig4")) as handle:
            entries = json.load(handle)
        entries[1]["label"] = label
        path = tmp_path / "cones.json"
        path.write_text(json.dumps(entries))
        code, payload = run_cli(capsys, "reconstruct", "--constraints", str(path))
        assert code == 4
        assert payload["error"] == "FileFormatError"
        assert "entry 1: 'label'" in payload["message"]

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, payload = run_cli(capsys, "reconstruct", "--fixture", "nonexistent")
        assert code == 2

    @pytest.mark.parametrize("name", [
        "outside-relative", "outside-absolute", "./paper_fig4", "sub/paper_fig4", "",
    ])
    def test_fixture_name_must_be_a_bare_stem(self, tmp_path, capsys, name):
        # a JSON file outside the package, which a path-like name once reached
        (tmp_path / "outside.json").write_text("[]")
        fixtures = os.path.dirname(bundled_fixture_path("paper_fig4"))
        name = {
            "outside-relative": os.path.relpath(tmp_path / "outside", fixtures),
            "outside-absolute": str(tmp_path / "outside"),
        }.get(name, name)
        code, payload = run_cli(capsys, "reconstruct", "--fixture", name)
        assert code == 2
        assert payload == {"error": "ConfigError",
                           "message": f"no bundled fixture named '{name}'"}


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
        # noiseless inputs along axes that are already the members the
        # fit reports, so no twin mix can bite; field direction chosen
        # inside all reachable cones. Only the fits' own error and the
        # report's rounding to 0.01 deg are left
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
        chord = min(np.linalg.norm(got - want), np.linalg.norm(got + want))
        assert chord < math.radians(0.05)
        assert abs(recon["b_mean_gauss"] - 59.5) < 0.1
        assert (tmp_path / "out" / "pipeline.json").exists()

    def test_per_nv_fields_match_single_nv_commands(self, tmp_path, capsys):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        _, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        for label, _ in labels:
            _, fit = run_cli(
                capsys, "fit-orientation", "--image", str(scans / f"{label}.csv"),
            )
            _, odmr = run_cli(
                capsys, "odmr", "--spectrum", str(spectra / f"{label}.csv"),
            )
            entry = report["per_nv"][label]
            assert entry["pattern_residual"] == fit["residual"]
            for key in ("theta_deg", "phi_deg", "mirror_phi_deg"):
                assert entry[key] == fit[key], key
            for key in ("omega1_mhz", "omega2_mhz", "b_gauss",
                        "alpha_candidates_deg"):
                assert entry[key] == odmr[key], key

    def test_every_settable_config_value_moves_the_report(self, tmp_path, capsys):
        # a config value that no measurement reads would only change the
        # provenance hash; each one, scaled by 1%, must move a result
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        argv = ("pipeline", "--scans", str(scans), "--spectra", str(spectra))
        _, base = run_cli(capsys, *argv)
        del base["config_hash"]
        cfg = tmp_path / "cfg.json"
        for section, values in dataclasses.asdict(load_config(None)).items():
            for key, value in values.items():
                cfg.write_text(json.dumps({section: {key: 1.01 * value}}))
                _, report = run_cli(capsys, *argv, "--config", str(cfg))
                del report["config_hash"]
                assert report != base, f"{section}.{key}"

    def test_pipeline_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median's NaN check imports numpy.ma on first use, which costs
        # every fresh `nvvortex pipeline` process 10-13 ms
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        argv = ["pipeline", "--scans", str(scans), "--spectra", str(spectra)]
        proc = _run_python(
            "-c",
            "import sys\n"
            "from nvvortex.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 False"

    def test_closed_stdout_exits_io_without_traceback(self, tmp_path):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        proc = _run_with_closed_stdout(
            "pipeline", "--scans", str(scans), "--spectra", str(spectra),
            "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ""  # no traceback, and no second write
        report = json.loads((tmp_path / "out" / "pipeline.json").read_text())
        assert report["reconstruction"] is not None

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
        (scans / "nv5.csv").write_text("garbage\n")  # no spectrum of that name
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0  # partial results: 3 valid NVs still reconstruct
        assert any(e["nv"] == "nv4" for e in report["errors"])
        assert {"nv": "nv5", "error": "UnpairedFile",
                "message": "no matching scan/spectrum"} in report["errors"]
        assert report["reconstruction"] is not None

    def test_non_finite_scan_origin_lists_that_nv(self, tmp_path, capsys):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        text = (scans / "nv4.csv").read_text().split("\n")
        text[1] = "31,31,50.0,nan,0.0"
        (scans / "nv4.csv").write_text("\n".join(text))
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "FileFormatError"
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_non_utf8_spectrum_lists_that_nv(self, tmp_path, capsys):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        path = spectra / "nv4.csv"
        path.write_bytes(path.read_bytes().replace(b"contrast", b"contr\xe9st"))
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "FileFormatError"
        assert entry["message"].startswith(f"{path}: not UTF-8 text")
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_oversized_scan_lists_that_nv(self, tmp_path, capsys, bounded_quadrature):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        (scans / "nv4.csv").write_text(OVERSIZED_SCAN)
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "FileFormatError"
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_scan_over_its_declared_height_lists_that_nv(self, tmp_path, capsys):
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        path = scans / "nv4.csv"
        with open(path, "a") as handle:
            handle.write(",".join(["100.0"] * 31) + "\nnot a row\n")
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        assert report["errors"] == [{
            "nv": "nv4", "error": "FileFormatError",
            "message": f"{path}: more than the 31 data rows the header declares",
        }]
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_scan_too_small_to_fit_lists_that_nv(self, tmp_path, capsys):
        # three good NVs and one 2x2 ramp scan, which has fewer pixels
        # than the orientation fit has unknowns
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        (scans / "nv4.csv").write_text(RAMP_2X2_SCAN)
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "DegenerateTemplate"
        assert "4 pixels" in entry["message"]
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_scan_the_optics_cannot_cover_lists_that_nv(self, tmp_path, capsys):
        # three good NVs and a 2 x 1700 strip, whose 85 um diagonal needs
        # 160 profile panels at 405 nm and NA 1.45, more than
        # MAX_PROFILE_PANELS: the strip alone is refused
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        counts = np.random.default_rng(1).poisson(100.0, (1700, 2)).astype(float)
        write_scan_image_csv(
            ScanImage(ScanGrid(2, 1700, 50.0), counts), scans / "nv4.csv"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"optics": {"wavelength_nm": 405.0, "numerical_aperture": 1.45}}
        ))
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
            "--config", str(cfg),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "ValueError"
        assert entry["message"].startswith(
            "profile of 160 panels exceeds MAX_PROFILE_PANELS=138"
        )
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_spectrum_over_the_row_bound_lists_that_nv(self, tmp_path, capsys,
                                                        monkeypatch):
        # the bound patched to the 2,001 points of the default sweep, and
        # one row more in nv4's spectrum: that spectrum alone is refused
        monkeypatch.setattr(fileio, "MAX_SWEEP_POINTS", 2001)
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        with open(spectra / "nv4.csv", "a") as handle:
            handle.write("2980.1,1.0\n")
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "FileFormatError"
        assert entry["message"].endswith("more than MAX_SWEEP_POINTS=2001 data rows")
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None

    def test_failed_reconstruction_keeps_per_nv_results(self, tmp_path, capsys):
        # three copies of one NV: every fit succeeds, the axes coincide
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [(f"nv{i}", (70.16, 20.60)) for i in (1, 2, 3)]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
            "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is None
        [entry] = report["errors"]
        assert entry["nv"] is None and entry["stage"] == "reconstruction"
        assert entry["error"] == "DegenerateAxes"
        written = json.loads((tmp_path / "out" / "pipeline.json").read_text())
        assert written == report

    def test_singular_odmr_covariance_lists_that_nv(self, tmp_path, capsys,
                                                    monkeypatch):
        # four NVs, so three distinct axes remain once nv1's fit fails
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        real_fit, real_model = cli.fit_odmr_model, spin._triplet_model
        fits = []

        def counted(spectrum):
            fits.append(None)
            return real_fit(spectrum)

        def singular_for_first_nv(f, x):
            basis, slopes = real_model(f, x)
            if len(fits) > 1:  # NVs are fitted in sorted order
                return basis, slopes

            def flat_in_c1(c):
                jac = slopes(c).copy()
                jac[:, 0] = 0.0
                return jac

            return basis, flat_in_c1

        monkeypatch.setattr(cli, "fit_odmr_model", counted)
        monkeypatch.setattr(spin, "_triplet_model", singular_for_first_nv)
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv1" and entry["error"] == "FitFailed"
        assert "rank-deficient" in entry["message"]
        assert sorted(report["per_nv"]) == ["nv2", "nv3", "nv4"]
        assert report["reconstruction"] is not None

    @pytest.mark.parametrize("width, height", [(50, 1), (1, 50)])
    def test_scan_of_one_row_or_column_lists_that_nv(self, tmp_path, capsys,
                                                      width, height):
        # such a scan does not determine the pattern; its NV is listed and
        # the other three still give a reconstruction
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        thin = simulate_pattern(
            NVOrientation.from_degrees(70.0, 20.0), ScanGrid(width, height, 50.0),
            OpticalConfig(), amplitude=1e4, background=100.0, noise_seed=1,
        )
        write_scan_image_csv(thin, scans / "nv1.csv")
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv1" and entry["error"] == "DegenerateTemplate"
        assert f"scan of {width} x {height} pixels" in entry["message"]
        assert sorted(report["per_nv"]) == ["nv2", "nv3", "nv4"]
        assert report["reconstruction"] is not None

    def test_overflowing_b_sigma_lists_that_nv(self, tmp_path, capsys, monkeypatch):
        # nv1's line sigmas of 1e306 MHz overflow its b_sigma: that NV is
        # listed, and two valid NVs leave no reconstruction
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        real = cli.fit_odmr_model
        calls = []

        def huge_sigmas_for_first_nv(spectrum):
            fit = real(spectrum)
            calls.append(None)
            if len(calls) == 1:  # NVs are fitted in sorted order
                pair = dataclasses.replace(fit.pair, sigma1=1e306, sigma2=1e306)
                fit = dataclasses.replace(fit, pair=pair)
            return fit

        monkeypatch.setattr(cli, "fit_odmr_model", huge_sigmas_for_first_nv)
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 3
        [entry] = report["errors"]
        assert entry["nv"] == "nv1" and entry["error"] == "InconsistentFrequencies"
        assert "b_sigma" in entry["message"]
        assert sorted(report["per_nv"]) == ["nv2", "nv3"]
        assert report["reconstruction"] is None

    def test_spectrum_with_negative_lower_line_lists_that_nv(self, tmp_path, capsys):
        # nv4's sweep shifted by -2900 MHz: its lower line fits at -96.9 MHz
        field = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
        labels = [
            ("nv1", (70.16, 20.60)),
            ("nv2", (70.75, 80.51)),
            ("nv3", (70.69, 140.74)),
            ("nv4", (70.16, 20.60)),
        ]
        scans, spectra = self._synthesize(tmp_path, labels, field)
        spec = read_spectrum_csv(spectra / "nv4.csv")
        write_spectrum_csv(Spectrum(spec.frequencies - 2900.0, spec.contrast),
                           spectra / "nv4.csv")
        code, report = run_cli(
            capsys, "pipeline", "--scans", str(scans), "--spectra", str(spectra),
        )
        assert code == 0
        [entry] = report["errors"]
        assert entry["nv"] == "nv4" and entry["error"] == "FitFailed"
        assert "-96.9" in entry["message"]
        assert sorted(report["per_nv"]) == ["nv1", "nv2", "nv3"]
        assert report["reconstruction"] is not None
        assert len(report["reconstruction"]["constraints"]) == 3


#: axes that are already the members the orientation fit reports, and a
#: field inside all their reachable cones, as in TestPipeline
MEASURE_FIELD = 59.5 * NVOrientation.from_degrees(8.59, 2.56).unit_axis
MEASURE_AXES_DEG = {"nv1": (70.16, 20.60), "nv2": (70.75, 80.51), "nv3": (70.69, 140.74)}


@pytest.fixture(scope="module")
def loaders():
    """Per label of MEASURE_AXES_DEG, a load() of its noiseless scan and
    spectrum, built in memory."""
    out = {}
    for label, (theta_deg, phi_deg) in MEASURE_AXES_DEG.items():
        axis = NVOrientation.from_degrees(theta_deg, phi_deg)
        image = simulate_pattern(axis, ScanGrid(31, 31, 50.0), OpticalConfig(),
                                 amplitude=5000.0, background=100.0)
        spectrum = simulate_odmr_spectrum(MEASURE_FIELD, axis, SpinParams())
        out[label] = lambda data=(image, spectrum): data
    return out


class TestMeasure:
    """``cli.measure``, the chain of ``nvvortex pipeline``, on scans and
    spectra held in memory: no file is read and no report parsed."""

    def test_constraints_are_the_layers_called_directly(self, loaders):
        config = RunConfig()
        result = cli.measure(loaders.items(), config)
        assert list(result.measurements) == list(MEASURE_AXES_DEG)
        assert result.errors == {} and result.failure is None
        for label, load in loaders.items():
            image, spectrum = load()
            fit = fit_orientation(image, config.optics)
            estimate = field_estimate(fit_odmr_model(spectrum).pair, config.spin)
            assert result.measurements[label].constraint == ConeConstraint(
                axis=NVOrientation(fit.theta, fit.phi),
                alpha=estimate.alpha_candidates[0],
                b=estimate.b,
                alpha_sigma=estimate.alpha_sigma,
                b_sigma=estimate.b_sigma,
                label=label,
            )
        direct = solve_direction([nv.constraint for nv in result.measurements.values()])
        recon = result.reconstruction
        assert (recon.theta_b, recon.phi_b, recon.b_mean) == (
            direct.theta_b, direct.phi_b, direct.b_mean)
        want = MEASURE_FIELD / np.linalg.norm(MEASURE_FIELD)
        chord = min(np.linalg.norm(recon.direction - want),
                    np.linalg.norm(recon.direction + want))
        assert chord < math.radians(0.05)

    def test_failed_fit_is_that_nvs_error(self, loaders):
        f = np.linspace(2780.0, 2980.0, 2001)
        one_dip = Spectrum(f, 1.0 - 0.03 * spin._lorentz(f, 2870.0, 0.8))
        image, _ = loaders["nv1"]()
        result = cli.measure(
            [*loaders.items(), ("one-dip", lambda: (image, one_dip))], RunConfig()
        )
        assert list(result.errors) == ["one-dip"]
        assert isinstance(result.errors["one-dip"], TripletsOverlap)
        assert list(result.measurements) == list(MEASURE_AXES_DEG)
        assert result.reconstruction is not None and result.failure is None

    def test_load_error_is_that_nvs_error(self, loaders):
        def unreadable():
            raise FileNotFoundError("no such scan")

        nvs = list(loaders.items())
        nvs.insert(1, ("gone", unreadable))
        result = cli.measure(nvs, RunConfig())
        assert list(result.errors) == ["gone"]
        assert isinstance(result.errors["gone"], FileNotFoundError)
        assert list(result.measurements) == list(MEASURE_AXES_DEG)
        assert result.reconstruction is not None

    def test_two_nvs_leave_the_reconstruction_unrun(self, loaders):
        result = cli.measure(list(loaders.items())[:2], RunConfig())
        assert list(result.measurements) == ["nv1", "nv2"]
        assert result.reconstruction is None and result.failure is None

    def test_thirteen_nvs_are_a_reconstruction_failure(self, loaders):
        loads = list(loaders.values())
        result = cli.measure([(f"nv{i}", loads[i % 3]) for i in range(13)], RunConfig())
        assert len(result.measurements) == 13 and result.errors == {}
        assert result.reconstruction is None
        assert isinstance(result.failure, ValueError)
        assert "got 13" in str(result.failure)

    def test_labels_keep_their_input_order(self, loaders):
        def broken():
            raise OSError("unreadable")

        nvs = [("c", loaders["nv1"]), ("x", broken), ("a", loaders["nv2"]),
               ("w", broken), ("b", loaders["nv3"])]
        result = cli.measure(nvs, RunConfig())
        assert list(result.measurements) == ["c", "a", "b"]
        assert list(result.errors) == ["x", "w"]
        assert [nv.constraint.label for nv in result.measurements.values()] == [
            "c", "a", "b"]

    @pytest.mark.parametrize("first", ["measured", "failed"])
    def test_repeated_label_is_refused(self, loaders, first):
        def broken():
            raise OSError("unreadable")

        load = loaders["nv1"] if first == "measured" else broken
        with pytest.raises(ValueError, match="repeated NV label 'a'"):
            cli.measure([("a", load), ("b", loaders["nv2"]), ("a", loaders["nv3"])],
                        RunConfig())


_BAD_FLAG_CASES = [
    pytest.param(argv, flag, id=f"{argv[0]}{flag}") for argv, flag in [
        (["odmr", "--simulate", *SIMULATED_ODMR, "--linewidth-mhz", "inf"],
         "--linewidth-mhz"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--sweep-stop-mhz", "inf"],
         "--sweep-stop-mhz"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--depth", "nan"], "--depth"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--nv-theta-deg", "nan"],
         "--nv-theta-deg"),
        (["simulate-pattern", "--theta-deg", "90", "--phi-deg", "0", "--amplitude",
          "nan"], "--amplitude"),
        (["simulate-pattern", "--theta-deg", "90", "--phi-deg", "0", "--background",
          "inf"], "--background"),
        (["simulate-pattern", "--theta-deg", "nan", "--phi-deg", "0"], "--theta-deg"),
        (["simulate-pattern", "--theta-deg", "90", "--phi-deg", "0", "--pitch-nm",
          "nan"], "--pitch-nm"),
        (["fit-orientation", "--image", "x.csv", "--crystal", "111",
          "--crystal-azimuth-deg", "nan"], "--crystal-azimuth-deg"),
    ]
] + [
    # finite values outside a flag's range, which the library would
    # reject in its own words (theta in radians, "grid dimensions")
    pytest.param(argv, flag, id=f"{argv[0]}{flag}-out-of-range") for argv, flag in [
        (["simulate-pattern", "--theta-deg", "200", "--phi-deg", "0"], "--theta-deg"),
        (["simulate-pattern", "--theta-deg", "90", "--phi-deg", "0", "--width", "0"],
         "--width"),
        (["simulate-pattern", "--theta-deg", "90", "--phi-deg", "0", "--height", "-3"],
         "--height"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--depth", "1.5"], "--depth"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--linewidth-mhz", "0"],
         "--linewidth-mhz"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--b-theta-deg", "190"],
         "--b-theta-deg"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--nv-theta-deg", "-1"],
         "--nv-theta-deg"),
        (["simulate-pattern", "--theta-deg", "90", "--phi-deg", "0", "--pitch-nm",
          "0"], "--pitch-nm"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--sweep-points", "5"],
         "--sweep-points"),
        (["odmr", "--simulate", *SIMULATED_ODMR, "--sweep-start-mhz", "2900",
          "--sweep-stop-mhz", "2800"], "--sweep-stop-mhz"),
    ]
]


@pytest.mark.parametrize("argv, flag", _BAD_FLAG_CASES)
def test_bad_flag_value_is_named(tmp_path, capsys, argv, flag):
    code, payload = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{flag} must be")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["reconstruct"], "reconstruct needs exactly one of"),
    (["reconstruct", "--fixture", "paper_fig4", "--constraints", "cones.json"],
     "reconstruct needs exactly one of"),
    (["pipeline", "--scans", "missing", "--spectra", "."],
     "--scans and --spectra must be existing directories"),
    (["pipeline", "--scans", ".", "--spectra", "cones.json"],
     "--scans and --spectra must be existing directories"),
], ids=["reconstruct-neither", "reconstruct-both", "pipeline-scans", "pipeline-spectra"])
def test_bad_sources_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cones.json").write_text("[]")
    code, payload = run_cli(capsys, *argv)
    assert code == 2
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(message)


@pytest.mark.parametrize("text, message", [
    ('{"optics": 5}', "config section 'optics' must be an object"),
    ('{"optics": {', "not valid JSON"),
    ('[{"optics": {}}]', "top level must be an object"),
    ('{"optcs": {"wavelength_nm": 500}}', "unknown config key 'optcs'"),
    ('{"optics": {"wavelength_nm": 405.0}, "optics": {}}', "key 'optics' appears twice"),
    ('{"optics": {"wavelength_nm": 405.0, "wavelength_nm": 532.0}}',
     "key 'wavelength_nm' appears twice"),
], ids=["section-not-object", "invalid-json", "top-level-not-object", "unknown-section",
        "repeated-section", "repeated-key"])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, payload = run_cli(capsys, "reconstruct", "--fixture", "paper_fig4",
                            "--config", str(cfg))
    assert code == 2
    assert payload["error"] == "ConfigError"
    assert message in payload["message"]


@pytest.mark.parametrize("argv, name", [
    (["fit-orientation", "--image"], "scan.csv"),
    (["odmr", "--spectrum"], "spectrum.csv"),
    (["reconstruct", "--constraints"], "cones.json"),
], ids=["fit-orientation", "odmr", "reconstruct"])
def test_non_utf8_data_file_is_parse_error(tmp_path, capsys, argv, name):
    path = tmp_path / name
    path.write_bytes(b"caf\xe9\n")
    code, payload = run_cli(capsys, *argv, str(path))
    assert code == 4
    assert payload["error"] == "FileFormatError"
    assert payload["message"].startswith(f"{path}: not UTF-8 text")


def test_repeated_constraint_key_is_parse_error(tmp_path, capsys):
    path = tmp_path / "cones.json"
    path.write_text('[{"axis_theta_deg": 1, "axis_phi_deg": 2, "alpha_deg": 50, '
                    '"alpha_deg": 60, "b_gauss": 4}]')
    code, payload = run_cli(capsys, "reconstruct", "--constraints", str(path))
    assert code == 4
    assert payload["error"] == "FileFormatError"
    assert payload["message"] == f"{path}: key 'alpha_deg' appears twice"


def test_non_utf8_config_is_usage_error_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"_note": "caf\xe9"}')
    code, payload = run_cli(capsys, "reconstruct", "--fixture", "paper_fig4",
                            "--config", str(cfg))
    assert code == 2
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{cfg}: not UTF-8 text")


def test_marked_spectrum_reads_as_unmarked(tmp_path, capsys, monkeypatch):
    # spreadsheet exports often start a UTF-8 file with the mark EF BB BF;
    # each run reads s.csv in its own directory, so the reports' source
    # fields match too
    spec = simulate_odmr_spectrum(
        59.5 * NVOrientation.from_degrees(8.59, 182.56).unit_axis,
        NVOrientation.from_degrees(109.84, 20.60), SpinParams(),
    )
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    write_spectrum_csv(spec, plain / "s.csv")
    (marked / "s.csv").write_bytes(b"\xef\xbb\xbf" + (plain / "s.csv").read_bytes())
    reports = []
    for directory in (plain, marked):
        monkeypatch.chdir(directory)
        reports.append(run_cli(capsys, "odmr", "--spectrum", "s.csv"))
    assert reports[1] == reports[0] and reports[0][0] == 0


def test_marked_config_reads_as_unmarked(tmp_path, capsys):
    marked = tmp_path / "cfg.json"
    example = bundled_fixture_path("example_config")
    marked.write_bytes(b"\xef\xbb\xbf" + example.read_bytes())
    reports = [
        run_cli(capsys, "reconstruct", "--fixture", "paper_fig4", "--config", str(p))
        for p in (example, marked)
    ]
    assert reports[1] == reports[0] and reports[0][0] == 0


def _run_python(*argv, cwd=None, stdout=subprocess.PIPE):
    """Run a child interpreter on this checkout with every warning an
    error, as the suite itself runs; its stderr, and by default its
    stdout, are captured."""
    # the child process imports the same package as this test run, installed
    # or not
    source_root = os.path.dirname(os.path.dirname(nvvortex.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def _run_with_closed_stdout(*argv):
    """Run the CLI in a child whose stdout pipe has lost its reader
    before the child writes."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_python("-m", "nvvortex.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_the_error_exit():
    proc = _run_with_closed_stdout("reconstruct", "--fixture", "nonexistent")
    assert proc.returncode == 2
    assert proc.stderr == "nvvortex: ConfigError: no bundled fixture named 'nonexistent'\n"


def test_closed_stdout_after_a_report_exits_io():
    proc = _run_with_closed_stdout("reconstruct", "--fixture", "paper_fig4")
    assert proc.returncode == 4
    assert proc.stderr == ""  # no traceback, and no second write


def test_console_entry_point_runs():
    proc = _run_python("-m", "nvvortex.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_readme_library_example_runs(tmp_path):
    # the README's library example runs as printed, outside the checkout,
    # and prints what the README says it prints
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    printed = re.search(r"It prints `([^`]*)`", section).group(1)
    proc = _run_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + "\n"


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
    proc = _run_python(os.path.join(scripts, script), *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if script == "field_reconstruction_demo.py":
        # noiseless inputs along the crystal's axes. Each NV's |B| and
        # cone angle come back to the spectrum fit's own error, but the
        # pipeline takes each axis as the member of its class
        # {+-n, +-M n} that the fit reports, which puts NV2 in one twin
        # frame and NV1 and NV3 in the other: the field lands 16.8 deg
        # off. Resolving the twin moves that figure; the accuracy on one
        # frame is held by TestPipeline.test_end_to_end_recovers_field
        lines = proc.stdout.strip().splitlines()
        per_nv = [line for line in lines if line.startswith("NV")]
        assert len(per_nv) == 3, proc.stdout
        for line in per_nv:
            b = float(re.search(r"B = +([\d.]+) G", line).group(1))
            alpha, true = map(float, re.search(
                r"alpha = +([\d.]+) deg \(true +([\d.]+)\)", line).groups())
            assert abs(b - 59.5) < 0.02, line
            assert abs(alpha - true) < 0.01, line
        assert lines[-1].startswith("direction error vs truth"), lines[-1]
        error_deg = float(lines[-1].split("=")[1].split()[0])
        assert error_deg == pytest.approx(16.80, abs=0.05)
    else:
        written = sorted(p.name for p in (tmp_path / "patterns").iterdir()
                         if p.suffix in (".csv", ".pgm"))
        stems = ["nv0", "nv1", "nv2", "nv3"]
        assert written == sorted([f"{s}.csv" for s in stems]
                                 + [f"{s}.pgm" for s in stems])
