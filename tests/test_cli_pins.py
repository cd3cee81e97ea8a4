"""Pinned command line behaviour: the exit code and stdout of each case.

Each case runs ``main`` on the default configuration (an empty JSON
document), with ``{out}`` standing for a fresh output directory, and pins
the exit code and the sha256 of stdout with that directory written as
``<out>``.  The cases are every argv of ``test_golden.py``, a small
``density`` run, the argument errors of the commands that write tables
and the ``--help`` text of the parser and of every subcommand (at 80
columns), so an added, dropped or renamed option fails here.  Stderr is
not pinned.
"""

import hashlib

import pytest

from ionbridge.cli import MAX_DENSITY_POINTS, MAX_GAUGE_N, MAX_SWEEP_POINTS, main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

CASES = [
    # the golden tables
    ("scales --out {out}", 0,
     "52bdcfdde6f1f8fbab28f16ced097a1e5a813e58713a5dda9222af3104cb7c64"),
    ("bo-curve --out {out}", 0,
     "31e53f57bfad5a72d3a514189859d1f1e4552c0a82ceb3b50ffea003c1e5d4cd"),
    ("bo-curve --placement atom2-fixed --out {out}", 0,
     "31e53f57bfad5a72d3a514189859d1f1e4552c0a82ceb3b50ffea003c1e5d4cd"),
    ("phonons --out {out}", 0,
     "b09a6c5ef042a7eb0c6d69a55d28cc02d62b45d93993880a6ac77d93e12dc368"),
    ("critical --pairs rr rg gg 25S-25S --out {out}", 0,
     "cdfa1ab4e2831cf0e651a25ee68405c456bf23cd39abde741db5e1dc5ca3cc5d"),
    ("gauge --max-n 1 --out {out}", 0,
     "c8b985f00ef121854afb70d2e8b33aca9c3a9e723790b17ca2ee0fef9dcbf2d8"),
    ("gauge --max-n 2 --out {out}", 0,
     "72ed58a79821c34ee4ad3d88c7ebde38046f37b18b880863c54def2165609d40"),
    ("gauge --max-n 3 --out {out}", 0,
     "cc6b3198f335307baede21ddf920752aff932b15f5e6b9c7e55f794bffd19ed4"),
    # prints its Temple bound, 3.33e-11, to 3 digits under that name: the
    # square of the n_max 8 state's coupling to the n_max 12 basis, not a
    # difference of two rounded energies; the same at 1 and 2 OpenBLAS threads
    ("density --separations-um 16 --n-max 8 --points 41 --out {out}", 0,
     "9d5024c5cde67a1e4849a63a22460cf9426d00fc65e9fe980a797008f4302e73"),
    # printing commands without a table
    ("scales", 0,
     "bf66e68bf29dab5104adafba2331877ba2d7f212546a5f1983da022b1a0e51d3"),
    ("critical", 0,
     "d1cf8a6bf7e4eaaaaa64aa9b7774bd8c2d9c938ef2411ff0b6142c860a6e9f2e"),
    # argument errors
    ("bo-curve", 2, EMPTY),
    ("bo-curve --out {out} --bogus 1", 2, EMPTY),
    ("bo-curve --out {out} --placement sideways", 2, EMPTY),
    ("bo-curve --out {out} --points 2.5", 2, EMPTY),
    ("bo-curve --out {out} --z-min-um -1", 2, EMPTY),
    ("bo-curve --out {out} --z-min-um 0", 2, EMPTY),
    ("bo-curve --out {out} --z-min-um 20 --z-max-um 10", 2, EMPTY),
    ("bo-curve --out {out} --z-min-um 10 --z-max-um 10", 2, EMPTY),
    ("bo-curve --out {out} --z-min-um nan", 2, EMPTY),
    ("bo-curve --out {out} --z-max-um inf", 2, EMPTY),
    ("bo-curve --out {out} --points 1", 2, EMPTY),
    (f"bo-curve --out {{out}} --points {MAX_SWEEP_POINTS + 1}", 2, EMPTY),
    ("phonons", 2, EMPTY),
    ("phonons --out {out} --bogus 1", 2, EMPTY),
    ("phonons --out {out} --sep-min-um -1", 2, EMPTY),
    ("phonons --out {out} --sep-min-um 0", 2, EMPTY),
    ("phonons --out {out} --sep-min-um 20 --sep-max-um 10", 2, EMPTY),
    ("phonons --out {out} --sep-min-um nan", 2, EMPTY),
    ("phonons --out {out} --points 1", 2, EMPTY),
    (f"phonons --out {{out}} --points {MAX_SWEEP_POINTS + 1}", 2, EMPTY),
    ("density", 2, EMPTY),
    ("density --out {out} --separations-um", 2, EMPTY),
    ("density --out {out} --n-max -1", 2, EMPTY),
    ("density --out {out} --points 15", 2, EMPTY),
    (f"density --out {{out}} --points {MAX_DENSITY_POINTS + 1}", 2, EMPTY),
    ("density --out {out} --separations-um 0", 2, EMPTY),
    ("density --out {out} --separations-um 16 16", 2, EMPTY),
    ("gauge", 2, EMPTY),
    ("gauge --out {out} --max-n -1", 2, EMPTY),
    (f"gauge --out {{out}} --max-n {MAX_GAUGE_N + 1}", 2, EMPTY),
    ("gauge --out {out} --side-um 0", 2, EMPTY),
    ("gauge --out {out} --side-um 16", 4, EMPTY),  # the loop crosses the ion
    ("nonsense", 2, EMPTY),
    # help texts
    ("--help", 0,
     "5a1bd58e383aceb57df8ddc470b215011cafdf65a1ca8cef516289d9bdb9e689"),
    ("scales --help", 0,
     "5a2cbbde32993ede2c7edd8d780a8c2e1d4fbea44b2558174ef150e49775d3a5"),
    ("bo-curve --help", 0,
     "9eb8aebaebca506b4e27cea32574e491229218877cfdc945f0975eb4da204ff5"),
    ("phonons --help", 0,
     "1e8853d1c7f1e43daf11ccc4aa1ca0aed45be56a9dea6b6ea129f7cd7008994a"),
    ("critical --help", 0,
     "b270a38faae415591d63910f93fee664403fa6471105ddcc4d0d278e7c3d2b18"),
    ("density --help", 0,
     "35fa9545ac963b119e1bed8440f59f751b50361b255c5d38b76c0f9525410e79"),
    ("gauge --help", 0,
     "c768a05abb088739284fffca8a8c1706b18ece3ad4bd1d7f5706bd9ef7c66696"),
]


def run_case(case, config, out_dir):
    """Run one case through ``main``, ``--config`` after the subcommand."""
    argv = case.replace("{out}", str(out_dir)).split()
    if not argv[0].startswith("-"):
        argv[1:1] = ["--config", str(config)]
    return main(argv)


@pytest.mark.parametrize("case, code, digest", CASES, ids=[c for c, _, _ in CASES])
def test_exit_code_and_stdout(case, code, digest, config_file, tmp_path, capsys,
                              monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out_dir = tmp_path / "out"
    result = run_case(case, config_file(), out_dir)
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    assert result == code
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest, stdout
