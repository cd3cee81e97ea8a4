"""Command line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ionbridge import DEFAULT_DOCUMENT
from ionbridge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_table(path):
    metadata, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, header, rows


class TestScales:
    def test_prints_eta_and_lengths(self, config_file, capsys):
        code, out, err = run(capsys, "scales", "--config", str(config_file()))
        assert code == 0
        assert "eta = 0.19" in out
        assert "R_ia*" in out and "R_aa*" in out
        assert err == ""

    def test_ground_pair_marks_missing_scales(self, config_file, capsys):
        path = config_file(states=["g", "g"], c4_ground_Jm4=0.0)
        code, out, _ = run(capsys, "scales", "--config", str(path))
        assert code == 0
        assert "R_ia* = n/a" in out
        assert "R_aa* = n/a" in out

    def test_optional_table(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code, _, _ = run(capsys, "scales", "--config", str(config_file()),
                         "--out", str(out_dir))
        assert code == 0
        metadata, header, rows = read_table(out_dir / "scales.csv")
        assert metadata["command"] == "scales"
        assert metadata["config_digest"].startswith("sha256:")
        assert header == ["quantity", "value", "unit"]
        values = {row[0]: float(row[1]) for row in rows}
        assert values["eta"] == pytest.approx(0.1877, abs=2e-4)

    def test_warns_below_stability_threshold(self, config_file, capsys):
        code, _, err = run(capsys, "scales", "--config",
                           str(config_file(z0_um=4.0)))
        assert code == 0
        assert "warning" in err and "stability threshold" in err


class TestStabilityWarning:
    WARNING = ("warning: 2z0 = 8e-06 m is below the stability threshold 9.189e-06 m "
               "(axial-com branch)\n")

    def test_below_threshold_is_a_warning(self, config_file, tmp_path, capsys):
        # 8 um < critical 9.19 um: scales, bo-curve and gauge warn once, phonons does not
        path = str(config_file(z0_um=4.0))
        for argv in (["scales"], ["bo-curve", "--points", "11"], ["gauge"]):
            code, _, err = run(capsys, *argv, "--config", path,
                               "--out", str(tmp_path / argv[0]))
            assert code == 0
            assert err == self.WARNING
        code, _, err = run(capsys, "phonons", "--config", path, "--out", str(tmp_path / "p"))
        assert code == 0 and err == ""

    def test_gg_stability_check_is_silent(self, config_file, tmp_path, capsys):
        # no threshold in the bracket: the warning machinery must stay quiet
        path = str(config_file(states=["g", "g"]))
        for argv in (["scales"], ["gauge", "--out", str(tmp_path / "gauge")]):
            code, _, err = run(capsys, *argv, "--config", path)
            assert code == 0
            assert err == ""


class TestBoCurve:
    def test_writes_curve_table(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "bo-curve", "--config", str(config_file()),
                         "--out", str(out_dir), "--points", "11")
        assert code == 0
        metadata, header, rows = read_table(out_dir / "bo_curve.csv")
        assert header == ["separation_um", "V_rr_kHz", "V_rg_kHz", "V_gg_Hz",
                          "abs_ratio_rr_rg"]
        assert len(rows) == 11
        assert metadata["placement"] == "symmetric"
        assert float(rows[0][0]) == pytest.approx(10.0)
        assert float(rows[-1][0]) == pytest.approx(30.0)
        assert all(abs(float(r[3])) < 1.0 for r in rows)  # V_gg below h * 1 Hz

    def test_range_validation(self, config_file, tmp_path, capsys):
        base = ["bo-curve", "--config", str(config_file()),
                "--out", str(tmp_path / "x")]
        assert run(capsys, *base, "--z-min-um", "-1")[0] == 2
        assert run(capsys, *base, "--z-min-um", "20", "--z-max-um", "10")[0] == 2
        assert run(capsys, *base, "--points", "1")[0] == 2

    def test_needs_out_directory(self, config_file, capsys):
        code, _, err = run(capsys, "bo-curve", "--config", str(config_file()))
        assert code == 2
        assert "--out" in err

    def test_byte_identical_reruns(self, config_file, tmp_path, capsys):
        path = config_file()
        args = ["bo-curve", "--config", str(path), "--points", "31"]
        assert run(capsys, *args, "--out", str(tmp_path / "a"))[0] == 0
        assert run(capsys, *args, "--out", str(tmp_path / "b"))[0] == 0
        first = (tmp_path / "a" / "bo_curve.csv").read_bytes()
        second = (tmp_path / "b" / "bo_curve.csv").read_bytes()
        assert first == second

    @pytest.mark.parametrize("z_min, z_max, code, fragment", [
        ("1e-60", "2e-60", 4, "underflows"),      # |r|^6 of an atom rounds to 0
        ("1e-30", "2e-30", 4, "overflows"),       # V_rg in kHz leaves the float range
        ("1e-40", "2e-40", 4, "overflows"),       # V_rg in J leaves the float range
        ("1e5", "2e5", 3, "V_rg is 0"),           # V - E0 below the rounding of E0
    ])
    def test_separations_beyond_the_float_range_fail_typed(self, config_file, tmp_path,
                                                           capsys, z_min, z_max, code,
                                                           fragment):
        out_dir = tmp_path / "out"
        result, _, err = run(capsys, "bo-curve", "--config", str(config_file()),
                             "--out", str(out_dir), "--z-min-um", z_min,
                             "--z-max-um", z_max, "--points", "2")
        assert result == code
        assert fragment in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_overwrite_guard(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        args = ["bo-curve", "--config", str(config_file()),
                "--out", str(out_dir), "--points", "5"]
        assert run(capsys, *args)[0] == 0
        code, _, err = run(capsys, *args)
        assert code == 2
        assert "--overwrite" in err
        assert run(capsys, *args, "--overwrite")[0] == 0


MAGNITUDES = st.floats(min_value=-330.0, max_value=308.0).map(lambda e: 10.0 ** e)


@st.composite
def bo_curve_ranges(draw):
    """z ranges in um: any float, or magnitudes from below the smallest
    subnormal to near the largest float, spanning up to a factor 4."""
    z_min = draw(st.one_of(MAGNITUDES, st.floats()))
    z_max = draw(st.one_of(MAGNITUDES, st.floats(),
                           st.floats(min_value=1.0, max_value=4.0).map(lambda f: f * z_min)))
    return z_min, z_max


class TestBoCurveInputs:
    @settings(max_examples=80, deadline=None)
    @given(bo_curve_ranges(), st.integers(min_value=-1, max_value=40),
           st.sampled_from(["symmetric", "atom2-fixed"]))
    def test_every_range_ends_finite_or_typed(self, z_range, points, placement):
        z_min, z_max = z_range
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text("{}")
            out_dir = Path(tmp) / "out"
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(["bo-curve", "--config", str(config), "--out", str(out_dir),
                             f"--z-min-um={z_min!r}", f"--z-max-um={z_max!r}",
                             "--points", str(points), "--placement", placement])
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in stderr.getvalue()
            table = out_dir / "bo_curve.csv"
            assert table.exists() == (code == 0)
            if code == 0:
                _, _, rows = read_table(table)
                assert len(rows) == points
                assert all(math.isfinite(float(cell)) for row in rows for cell in row)


class TestPhonons:
    def test_writes_branch_table(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "phonons", "--config", str(config_file()),
                         "--out", str(out_dir), "--points", "8")
        assert code == 0
        _, header, rows = read_table(out_dir / "phonons.csv")
        assert header[0] == "separation_um" and header[-1] == "stable"
        assert len(rows) == 8
        assert all(row[-1] == "true" for row in rows)
        transverse = [float(row[3]) for row in rows]
        assert transverse[0] > transverse[-1] > 1.0e4  # decays toward 1e4 kHz^2

    def test_unstable_rows_are_flagged(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "phonons", "--config", str(config_file()),
                         "--out", str(out_dir), "--sep-min-um", "9",
                         "--sep-max-um", "10", "--points", "5")
        assert code == 0
        _, _, rows = read_table(out_dir / "phonons.csv")
        flags = [row[-1] for row in rows]
        assert flags[0] == "false" and flags[-1] == "true"


class TestCritical:
    def test_configured_pair_by_default(self, config_file, capsys):
        code, out, _ = run(capsys, "critical", "--config", str(config_file()))
        assert code == 0
        assert "30S-30S" in out
        assert "critical 2z0 = 9.18" in out
        assert "axial-com" in out

    def test_explicit_pair_tokens(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "critical", "--config", str(config_file()),
                           "--pairs", "rg", "25S-25S", "--out", str(out_dir))
        assert code == 0
        assert "axial-stretch" in out
        _, _, rows = read_table(out_dir / "critical.csv")
        assert [row[0] for row in rows] == ["30S-g", "25S-25S"]
        assert float(rows[0][1]) == pytest.approx(9.1900, abs=2e-3)
        assert float(rows[1][1]) == pytest.approx(7.4280, abs=2e-3)

    def test_stable_everywhere_reports_na(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "critical", "--config", str(config_file()),
                           "--pairs", "gg", "--out", str(out_dir))
        assert code == 0
        assert "no instability inside the bracket" in out
        _, _, rows = read_table(out_dir / "critical.csv")
        assert rows == [["g-g", "n/a", "none"]]

    def test_pair_token_validation(self, config_file, capsys):
        assert run(capsys, "critical", "--config", str(config_file()),
                   "--pairs", "30X")[0] == 2
        ground = config_file(name="gg.json", states=["g", "g"])
        assert run(capsys, "critical", "--config", str(ground),
                   "--pairs", "rr")[0] == 2


class TestDensity:
    def test_writes_density_grid(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "density", "--config", str(config_file()),
                           "--out", str(out_dir), "--separations-um", "16",
                           "--n-max", "8", "--points", "41")
        assert code == 0
        metadata, header, rows = read_table(out_dir / "density_16um.csv")
        assert header == ["z1_um", "z2_um", "density_per_um2"]
        assert len(rows) == 41 * 41
        assert float(metadata["convergence_residual"]) < 1e-6
        assert "n_max = " in out

    def test_collisional_separation_exits_instability(self, config_file,
                                                      tmp_path, capsys):
        code, _, err = run(capsys, "density", "--config", str(config_file()),
                           "--out", str(tmp_path / "nope"),
                           "--separations-um", "10")
        assert code == 4
        assert "error:" in err

    def test_argument_validation(self, config_file, tmp_path, capsys):
        base = ["density", "--config", str(config_file()),
                "--out", str(tmp_path / "x")]
        assert run(capsys, *base, "--n-max", "-1")[0] == 2
        assert run(capsys, *base, "--points", "8")[0] == 2
        assert run(capsys, *base, "--separations-um", "-3")[0] == 2

    def test_basis_above_the_cap_is_a_config_error(self, config_file, tmp_path, capsys):
        code, _, err = run(capsys, "density", "--config", str(config_file()),
                           "--out", str(tmp_path / "x"), "--n-max", "58")
        assert code == 2
        assert "[0, 56]" in err and "capped at 60" in err
        assert "Traceback" not in err


class TestGauge:
    def test_writes_connection_and_phases(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "gauge", "--config", str(config_file()),
                           "--out", str(out_dir), "--max-n", "1")
        assert code == 0
        metadata, header, rows = read_table(out_dir / "connection.csv")
        assert header[:2] == ["atom", "bra_nx"]
        assert len(rows) == 2 * 8 * 8 * 3
        assert float(metadata["hermiticity_residual_Js_per_m"]) == 0.0
        assert all(float(row[-2]) == 0.0 for row in rows)  # purely imaginary
        _, _, phases = read_table(out_dir / "phases.csv")
        assert len(phases) == 8
        assert all(abs(float(row[-1])) <= 1e-8 for row in phases)
        assert "Berry phase" in out

    def test_argument_validation(self, config_file, tmp_path, capsys):
        base = ["gauge", "--config", str(config_file()),
                "--out", str(tmp_path / "x")]
        assert run(capsys, *base, "--max-n", "-1")[0] == 2
        assert run(capsys, *base, "--side-um", "0")[0] == 2


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "scales", "--config",
                           str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json}")
        code, _, err = run(capsys, "scales", "--config", str(path))
        assert code == 2
        assert "line 1" in err

    def test_unknown_key(self, config_file, capsys):
        path = config_file(name="bad.json", separation_um=16.0)
        code, _, err = run(capsys, "scales", "--config", str(path))
        assert code == 2
        assert "separation_um" in err

    def test_nan_c4_is_a_config_error(self, config_file, capsys):
        code, out, err = run(capsys, "scales", "--config",
                             str(config_file(c4_ground_Jm4=float("nan"))))
        assert code == 2
        assert "c4_ground_Jm4" in err and "finite" in err
        assert "R_ia*" not in out

    def test_infinite_c6_is_a_config_error(self, config_file, capsys):
        code, out, err = run(capsys, "critical", "--config",
                             str(config_file(c6_pair_MHz_um6=float("inf"))))
        assert code == 2
        assert "c6_pair_MHz_um6" in err and "finite" in err
        assert "no instability" not in out

    @pytest.mark.parametrize("command", ["scales", "critical", "phonons"])
    @pytest.mark.parametrize("document, fragment", [
        ({"c4_ground_Jm4": 1e300}, "float range"),
        ({"ion_mode": [0, 0, int("9" * 330)]}, "ion_mode"),
    ])
    def test_huge_finite_values_are_config_errors(self, config_file, tmp_path, capsys,
                                                  command, document, fragment):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, command, "--config", str(config_file(**document)),
                           "--out", str(out_dir))
        assert code == 2
        assert fragment in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["scales", "phonons", "critical", "bo-curve",
                                         "gauge", "density"])
    @pytest.mark.parametrize("document", [
        {"atom": {"omega_rho_kHz": 1e-300}},
        {"atom": {"mass_u": 1e-10, "omega_z_kHz": 5e-324}},
    ])
    def test_scales_out_of_the_float_range_are_config_errors(self, config_file, tmp_path,
                                                             capsys, command, document):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, command, "--config", str(config_file(**document)),
                           "--out", str(out_dir))
        assert code == 2
        assert "characteristic scales" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_trap_centers_out_of_the_float_range_are_a_config_error(self, config_file,
                                                                    tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "gauge", "--config", str(config_file(z0_um=1e200)),
                           "--out", str(out_dir))
        assert code == 2
        assert "float range" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_overflow_inside_the_bracket_is_a_config_error(self, config_file, capsys):
        code, out, err = run(capsys, "critical", "--config",
                             str(config_file(c4_ground_Jm4=1e90)))
        assert code == 2
        assert "float range" in err
        assert "no instability" not in out

    def test_separation_leaving_the_float_range_is_a_config_error(self, config_file,
                                                                  tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "phonons", "--config", str(config_file()),
                           "--out", str(out_dir), "--sep-min-um", "1e-300")
        assert code == 2
        assert "float range" in err
        assert not out_dir.exists()

    def test_density_separation_leaving_the_float_range_is_a_config_error(
            self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "density", "--config", str(config_file()),
                           "--out", str(out_dir), "--separations-um", "1e300")
        assert code == 2
        assert "float range" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_density_grid_below_the_float_resolution_is_a_config_error(
            self, config_file, tmp_path, capsys):
        # at 2z0 = 1e30 um the float spacing of z exceeds the Gaussian width
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "density", "--config", str(config_file()),
                           "--out", str(out_dir), "--separations-um", "1e30")
        assert code == 2
        assert "separation 1e+30 um" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_unknown_subcommand(self, config_file, capsys):
        assert run(capsys, "eigenmodes", "--config", str(config_file()))[0] == 2

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "bo-curve" in out


def numbers(default):
    """Any finite float (0, negatives, subnormals, magnitudes near the
    float limits), or the default scaled by up to a factor 1000."""
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(min_value=-3.0, max_value=3.0).map(lambda e: default * 10.0**e))


@st.composite
def documents(draw):
    """Config documents with any subset of the fields set."""
    fields = {key: numbers(DEFAULT_DOCUMENT[key])
              for key in ("z0_um", "c4_ground_Jm4", "c6_pair_MHz_um6")}
    fields["states"] = st.lists(st.sampled_from(["g", "5S", "6S", "30S", "100S"]),
                                min_size=2, max_size=2)
    fields["ion_mode"] = st.lists(st.integers(min_value=-3, max_value=3),
                                  min_size=3, max_size=3)
    fields["scaling"] = st.sampled_from(["bare_n", "quantum_defect"])
    for section in ("ion", "atom"):
        fields[section] = st.fixed_dictionaries({}, optional={
            key: numbers(DEFAULT_DOCUMENT[section][key])
            for key in ("mass_u", "omega_rho_kHz", "omega_z_kHz")})
    return draw(st.fixed_dictionaries({}, optional=fields))


COMMANDS = [
    ["scales"],
    ["phonons", "--points", "5"],
    ["critical", "--pairs", "rr", "rg", "gg"],
    ["bo-curve", "--points", "5"],
    ["gauge"],
    ["density", "--n-max", "2", "--points", "16"],
]


def finite_or_text(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True


class TestGeneratedConfigs:
    # pytest raises every RuntimeWarning (pyproject.toml), so a numpy
    # overflow that escapes a typed check fails here as well
    @settings(max_examples=40, deadline=None)
    @given(documents())
    def test_every_config_ends_finite_or_typed(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(document))
            for k, argv in enumerate(COMMANDS):
                out_dir = Path(tmp) / str(k)
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main([*argv, "--config", str(config), "--out", str(out_dir)])
                assert code in (0, 2, 3, 4), argv
                assert "Traceback" not in stderr.getvalue()
                for table in out_dir.glob("*.csv") if code == 0 else ():
                    metadata, _, rows = read_table(table)
                    cells = [*metadata.values(), *(cell for row in rows for cell in row)]
                    assert all(map(finite_or_text, cells)), (argv, table.name)
