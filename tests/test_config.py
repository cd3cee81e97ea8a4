"""Configuration documents: defaults, validation messages, digests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ionbridge
from ionbridge import (
    ConfigError,
    ElectronicState,
    GROUND,
    config_from_document,
    constants as cst,
    load_config,
    parse_state,
    reference_config,
)


class TestStateParsing:
    @pytest.mark.parametrize("token, kind, n", [
        ("g", "ground", None),
        ("ground", "ground", None),
        ("G", "ground", None),
        ("Ground", "ground", None),
        ("5S", "ground", None),
        ("30S", "rydberg", 30),
        ("25s", "rydberg", 25),
        (" 30S ", "rydberg", 30),
    ])
    def test_valid_labels(self, token, kind, n):
        state = parse_state(token)
        if kind == "ground":
            assert state == GROUND
        else:
            assert state.is_rydberg and state.principal_n == n

    @pytest.mark.parametrize("token", ["", "S", "3OS", "30P", "30", "S30"])
    def test_malformed_labels(self, token):
        with pytest.raises(ConfigError):
            parse_state(token)

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError, match="string"):
            parse_state(30)

    @pytest.mark.parametrize("n", [cst.RB_GROUND_N + 1, 30, 100])
    def test_rydberg_labels_round_trip(self, n):
        state = ElectronicState("rydberg", n)
        assert parse_state(state.label()) == state
        assert parse_state(GROUND.label()) == GROUND

    def test_ground_level_is_no_rydberg_level(self):
        assert parse_state(f"{cst.RB_GROUND_N}S") == GROUND
        with pytest.raises(ConfigError, match="principal_n"):
            ElectronicState("rydberg", cst.RB_GROUND_N)


class TestDocumentResolution:
    def test_empty_document_gives_reference_values(self):
        config, resolved, _ = config_from_document({})
        assert config.atom.name == "87Rb"
        assert config.ion.name == "40Ca+"
        assert config.atom.mass == pytest.approx(
            cst.RB87_MASS_U * cst.ATOMIC_MASS_KG, rel=1e-15)
        assert config.atom_trap.radial == pytest.approx(cst.TWO_PI * 100e3, rel=1e-13)
        assert config.atom_trap.axial == pytest.approx(cst.TWO_PI * 9e3, rel=1e-13)
        assert config.ion_trap.radial == pytest.approx(cst.TWO_PI * 1e6, rel=1e-13)
        assert config.half_separation_z0 == pytest.approx(8e-6, rel=1e-15)
        assert all(s.is_rydberg and s.principal_n == 30 for s in config.state_pair)
        assert resolved["scaling"] == "bare_n"

    def test_explicit_defaults_do_not_change_the_digest(self):
        _, _, bare = config_from_document({})
        _, _, spelled = config_from_document({"z0_um": 8.0, "scaling": "bare_n"})
        assert spelled == bare

    def test_digest_tracks_content(self):
        _, _, base = config_from_document({})
        _, _, moved = config_from_document({"z0_um": 9.0})
        assert moved != base
        assert len(base) == 64 and all(c in "0123456789abcdef" for c in base)

    def test_c6_anchor_is_the_default_document_value(self):
        config, _, _ = config_from_document({})
        assert config.coefficients.c6_rydberg_anchor == cst.C6_30S_PAIR_JM6

    def test_c6_unit_conversion(self):
        config, _, _ = config_from_document({})
        assert config.coefficients.c6_rydberg_anchor == pytest.approx(
            cst.C6_30S_PAIR_JM6, rel=1e-15)
        custom, _, _ = config_from_document({"c6_pair_MHz_um6": -53.22})
        assert custom.coefficients.c6_rydberg_anchor == pytest.approx(
            2.0 * cst.C6_30S_PAIR_JM6, rel=1e-12)

    def test_partial_section_merge(self):
        config, resolved, _ = config_from_document(
            {"atom": {"omega_z_kHz": 12.0}})
        assert config.atom_trap.axial == pytest.approx(cst.TWO_PI * 12e3, rel=1e-13)
        assert config.atom_trap.radial == pytest.approx(cst.TWO_PI * 100e3, rel=1e-13)
        assert resolved["atom"]["species"] == "87Rb"

    def test_mixed_state_pair(self):
        config, _, _ = config_from_document({"states": ["40S", "g"]})
        a, b = config.state_pair
        assert a.is_rydberg and a.principal_n == 40
        assert b == GROUND

    @pytest.mark.parametrize("document, fragment", [
        ({"zz0_um": 8.0}, "zz0_um"),
        ({"ion": {"omega_x_kHz": 1.0}}, "omega_x_kHz"),
        ({"ion": 3.0}, "must be an object"),
        ({"z0_um": "eight"}, "z0_um"),
        ({"z0_um": True}, "z0_um"),
        ({"atom": {"mass_u": None}}, "atom.mass_u"),
        ({"states": ["30S"]}, "states"),
        ({"states": "30S"}, "states"),
        ({"ion_mode": [0, 0]}, "ion_mode"),
        ({"ion_mode": [0, 0, 0.5]}, "ion_mode"),
        ({"ion_mode": [0, 0, True]}, "ion_mode"),
        ({"scaling": "cubic"}, "scaling"),
    ])
    def test_schema_errors_name_the_field(self, document, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_document(document)

    @pytest.mark.parametrize("document, field", [
        ({"c4_ground_Jm4": float("nan")}, "c4_ground_Jm4"),
        ({"c6_pair_MHz_um6": float("inf")}, "c6_pair_MHz_um6"),
        ({"z0_um": -float("inf")}, "z0_um"),
        ({"ion": {"omega_z_kHz": float("nan")}}, "ion.omega_z_kHz"),
        ({"atom": {"mass_u": 10**400}}, "atom.mass_u"),
    ])
    def test_non_finite_numbers_rejected(self, document, field):
        with pytest.raises(ConfigError, match=f"{field}' must be finite"):
            config_from_document(document)

    def test_ion_mode_quantum_numbers_are_bounded(self):
        config, _, _ = config_from_document({"ion_mode": [2**53, -(2**53), 2**53]})
        assert config.ion_mode.n1 == 2**53
        for mode in ([0, 0, 2**53 + 1], [0, -(2**53) - 1, 0], [int("9" * 330), 0, 0]):
            with pytest.raises(ConfigError, match="ion_mode"):
                config_from_document({"ion_mode": mode})

    @pytest.mark.parametrize("document", [
        {"c4_ground_Jm4": 1e300},
        {"ion": {"omega_rho_kHz": 1e-200}},
        {"atom": {"mass_u": 1e-290}},
    ])
    def test_coefficients_out_of_the_float_range_rejected(self, document):
        with pytest.raises(ConfigError, match="float range"):
            config_from_document(document)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            config_from_document([1, 2, 3])


class TestReferenceConfig:
    @pytest.mark.parametrize("scaling", ["bare_n", "quantum_defect"])
    @pytest.mark.parametrize("n", [20, 30, 60])
    @pytest.mark.parametrize("pair, states", [
        ("rr", ["{n}S", "{n}S"]), ("rg", ["{n}S", "g"]), ("gg", ["g", "g"])])
    def test_is_the_default_document_system(self, pair, states, n, scaling):
        z0 = 7.3e-6
        document = {"states": [s.format(n=n) for s in states], "scaling": scaling}
        config, _, _ = config_from_document(document)
        assert reference_config(pair, n, z0, scaling) == config.with_half_separation(z0)

    def test_unknown_pair_and_level_rejected(self):
        with pytest.raises(ConfigError, match="state pair"):
            reference_config("xx")
        with pytest.raises(ConfigError, match="principal_n"):
            reference_config("rr", n=cst.RB_GROUND_N)


class TestFileLoading:
    def test_round_trip(self, config_file):
        path = config_file(z0_um=7.0, states=["30S", "g"])
        config, resolved, digest = load_config(path)
        assert config.half_separation_z0 == pytest.approx(7e-6, rel=1e-15)
        _, _, direct = config_from_document({"z0_um": 7.0, "states": ["30S", "g"]})
        assert digest == direct

    def test_import_and_load_do_not_load_scipy(self, config_file):
        src = str(Path(ionbridge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, ionbridge; ionbridge.load_config(sys.argv[1]); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        result = subprocess.run([sys.executable, "-c", code, str(config_file())], env=env,
                                capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout.strip() == "[]"

    def test_fresh_subcommands_do_not_load_scipy(self, config_file, tmp_path):
        # every subcommand but density runs on numpy alone
        src = str(Path(ionbridge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys\n"
                "from ionbridge.cli import main\n"
                "for command in ('scales', 'bo-curve', 'phonons', 'critical', 'gauge'):\n"
                "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        result = subprocess.run([sys.executable, "-c", code, str(config_file()),
                                 str(tmp_path / "out")], env=env,
                                capture_output=True, text=True, check=True, timeout=120)
        assert result.stdout.splitlines()[-1] == "[]"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"z0_um": 8.0,\n  "states": [30S]}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_nan_rejected_by_parser_settings_or_physics(self, config_file):
        # json.loads accepts NaN; the physical validation must then refuse it.
        path = config_file(z0_um=float("nan"))
        with pytest.raises(ConfigError):
            load_config(path)
