"""Golden digests: the reference CLI tables must stay byte-identical.

Each sha256 was taken from the table the CLI writes for the default
configuration (an empty JSON document).  Density tables are left out:
their last printed digit follows the eigensolver's rounding, so they are
compared against the benchmark's numerical oracle (``perfbench/oracle.py``
and its ``reference.json``, loaded read-only) instead of by bytes.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ionbridge.cli import main

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"

GOLDEN = [
    (["scales"], "scales.csv",
     "cc98770f38d2e0461698570415d44073cf3bae11451a03092b57a428f9c629d4"),
    (["bo-curve"], "bo_curve.csv",
     "57e48e8309b4fd27cd3e4a007a9a2b07204e593e6dd04aec54c1d972b4a3e115"),
    (["bo-curve", "--placement", "atom2-fixed"], "bo_curve.csv",
     "fde201e5812b6b770f9d00af1c6d9b41c227a7636a82636a52fa496f6b744b90"),
    (["phonons"], "phonons.csv",
     "077c0392b09d76f6ec052eadd9df9264f7ab8324ed6b919c77c05199153a2a47"),
    (["critical", "--pairs", "rr", "rg", "gg", "25S-25S"], "critical.csv",
     "21dc0853afab543c9b605a501ec0006309e83559c1667c6bb0b501a607e07333"),
    (["gauge", "--max-n", "1"], "connection.csv",
     "beb62d23cb2067511c5b04ebef7c6b74a76da9251b2d0a867c2fa9e1bd0c5c0f"),
    (["gauge", "--max-n", "1"], "phases.csv",
     "63edd256b04e00ca1a348880473afc8ef83bcf2e1b7d5400495406a7ca9d291e"),
    (["gauge", "--max-n", "2"], "connection.csv",
     "ec980d6f5cd7667b3e488f9ed58eb821627b0ac9bc2e412ebaab7208334d0ac1"),
    (["gauge", "--max-n", "2"], "phases.csv",
     "4576ea9f0ba55c89c999cc62b4de7c314f940bda1aebbe43da53c101edb1cd22"),
    (["gauge", "--max-n", "3"], "connection.csv",
     "31b222b535d55a650caf5120924c6893506aa43363f896d6ccc794ef7dfd3fd6"),
    (["gauge", "--max-n", "3"], "phases.csv",
     "065ffb0b6fec82eb3dd3bb970c8898b5cf92468bbefa12a463482991af345af8"),
]


@pytest.mark.parametrize("argv, table, digest", GOLDEN,
                         ids=[f"{' '.join(a)}:{t}" for a, t, _ in GOLDEN])
def test_reference_table_digest(argv, table, digest, config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([*argv, "--config", str(config_file()), "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256((out_dir / table).read_bytes()).hexdigest() == digest


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("separation_um, n_max", [(12, 30), (16, 30), (24, 30), (12, 40)])
def test_benchmark_density_table_matches_the_oracle(separation_um, n_max, config_file,
                                                    tmp_path, capsys):
    # the benchmark's ground_state jobs: its config, its arguments, its
    # tolerance (relative 1e-9)
    oracle = load_oracle()
    reference = json.loads(ORACLE.with_name("reference.json").read_text())
    expected = reference[f"density/{separation_um}um/n{n_max}"]["summary"]
    out_dir = tmp_path / "out"
    config = config_file(z0_um=8.0, states=["30S", "30S"])
    code = main(["density", "--config", str(config), "--out", str(out_dir),
                 "--separations-um", str(separation_um), "--n-max", str(n_max)])
    capsys.readouterr()
    observed = {"exit": code,
                "tables": {path.name: oracle.read_table(path) for path in out_dir.iterdir()}}
    assert oracle.compare(expected, observed) == []
