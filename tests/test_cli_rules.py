"""The command line's shared rules: one separation range rule for the
sweeps and one table from error types to exit codes."""

import pytest

from ionbridge import cli, errors
from ionbridge.cli import main

EXPECTED_EXIT = {
    errors.ConfigError: 2,
    errors.AccuracyError: 3,
    errors.NotBracketedError: 3,
    errors.InstabilityError: 4,
    errors.SingularGeometryError: 4,
}


def unreachable(*args, **kwargs):
    raise AssertionError("computed a table for a refused request")


@pytest.mark.parametrize("command, lo_flag, hi_flag", [
    ("bo-curve", "--z-min-um", "--z-max-um"),
    ("phonons", "--sep-min-um", "--sep-max-um"),
])
@pytest.mark.parametrize("lo, hi", [
    ("-1", "10"), ("0", "10"), ("20", "10"), ("10", "10"),
    ("nan", "10"), ("10", "nan"), ("10", "inf"), ("inf", "inf"), ("-inf", "10"),
])
def test_sweep_ranges_share_one_rule(command, lo_flag, hi_flag, lo, hi, config_file,
                                     tmp_path, capsys, monkeypatch):
    for name in ("axial_bo_curve", "mode_sweep"):
        monkeypatch.setattr(cli, name, unreachable)
    out_dir = tmp_path / "out"
    code = main([command, "--config", str(config_file()), "--out", str(out_dir),
                 f"{lo_flag}={lo}", f"{hi_flag}={hi}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: separation range must be positive, finite and increasing, "
                   f"got [{float(lo)}, {float(hi)}] um\n")
    assert not out_dir.exists()


def test_every_package_error_has_an_exit_code():
    assert set(cli._EXIT_CODES) == set(errors.IonBridgeError.__subclasses__())
    assert cli._EXIT_CODES == EXPECTED_EXIT


@pytest.mark.parametrize("kind", list(EXPECTED_EXIT), ids=lambda kind: kind.__name__)
def test_a_raised_error_exits_with_its_code(kind, config_file, tmp_path, capsys,
                                            monkeypatch):
    def failing(*args, **kwargs):
        raise kind("the sweep failed")

    monkeypatch.setattr(cli, "mode_sweep", failing)
    code = main(["phonons", "--config", str(config_file()), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXPECTED_EXIT[kind]
    assert (captured.out, captured.err) == ("", "error: the sweep failed\n")
