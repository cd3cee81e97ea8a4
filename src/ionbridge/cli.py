"""Command line front end.

Subcommands mirror the library surface: scales, bo-curve, phonons,
critical, density, and gauge.  Every command takes --config PATH and
--out DIR [--overwrite], which all but scales and critical require.
Each table goes to --out through ``write_table`` as columns that
broadcast to its rows, with the same ``_metadata``.  Exit codes, from
``_EXIT_CODES``: 0 on success, 2 for configuration problems, 3 for
accuracy or convergence failures, 4 when the request lands in the
unstable or collisional domain.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import constants as cst
from .config import load_config, parse_state
from .csvio import write_table
from .errors import (
    AccuracyError,
    ConfigError,
    InstabilityError,
    NotBracketedError,
    SingularGeometryError,
)
from .gauge import berry_phase, cartesian_modes, connection_matrix, \
    gauge_hermiticity_check, square_loop
from .model import GROUND, characteristic_scales, require_valid
from .motion import basis_ground_state, gaussian_ground_state, pair_density
from .phonons import critical_separation, mode_sweep
from .potentials import AtomPairGeometry, axial_bo_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_INSTABILITY = 4

FORMAT_VERSION = 1

_KHZ2 = (cst.TWO_PI * 1e3) ** 2  # rad^2/s^2 per kHz^2

# Input caps that keep a run well inside memory.  A 1001-point density
# grid writes a 1,002,001-row table (47 MB) per separation, in blocks, and
# peaks at 68 MB RSS; max-n 6 gives 343 modes and 705,894 connection rows
# (14 MB) from two 5.6 MB tensors, with a 62 MB peak.  Memory grows with the
# square of the points and the sixth power of max-n + 1.  A 100,001-point
# bo-curve or phonons sweep (7 MB table) peaks at 60 or 64 MB, linear in the points.
MAX_DENSITY_POINTS = 1001
MAX_GAUGE_N = 6
MAX_SWEEP_POINTS = 100_001

_EXIT_CODES = {ConfigError: EXIT_CONFIG, AccuracyError: EXIT_ACCURACY,
               NotBracketedError: EXIT_ACCURACY, InstabilityError: EXIT_INSTABILITY,
               SingularGeometryError: EXIT_INSTABILITY}


def _to_khz(energy_j):
    return energy_j / cst.PLANCK / 1e3


def _load(args, check_stability: bool = False):
    """Load and validate the config; with ``check_stability`` warn on
    stderr when the configured separation is below the stability
    threshold."""
    config, _, digest = load_config(args.config)
    require_valid(config)
    if check_stability:
        sep = 2.0 * config.half_separation_z0
        try:
            crit = critical_separation(config)
        except NotBracketedError:
            pass  # stable everywhere in the bracket, nothing to warn about
        else:
            if sep < crit.critical_2z0:
                print(f"warning: 2z0 = {sep:.4g} m is below the stability threshold "
                      f"{crit.critical_2z0:.4g} m ({crit.limiting_branch} branch)",
                      file=sys.stderr)
    return config, digest


def _metadata(args, digest: str, **extra) -> dict:
    return {"format_version": FORMAT_VERSION, "command": args.command,
            "config_digest": "sha256:" + digest, **extra}


def _write(args, digest: str, name: str, header, columns, note: str = "", **extra) -> None:
    """Write table ``name`` of ``columns`` into --out with the command's
    metadata and ``extra``, and print its path followed by ``note``."""
    path = write_table(Path(args.out) / name, _metadata(args, digest, **extra),
                       header, columns, overwrite=args.overwrite)
    print(f"wrote {path}{note}")


def _require_in(flag: str, value, lo, hi) -> None:
    if not lo <= value <= hi:
        raise ConfigError(f"{flag} must lie in [{lo}, {hi}], got {value}")


def _separation_grid(lo_um: float, hi_um: float, points: int) -> np.ndarray:
    """The sweep grid of ``points`` separations from lo_um to hi_um, in m."""
    if not 0.0 < lo_um < hi_um < np.inf:
        raise ConfigError("separation range must be positive, finite and increasing, "
                          f"got [{lo_um}, {hi_um}] um")
    _require_in("--points", points, 2, MAX_SWEEP_POINTS)
    return np.linspace(lo_um, hi_um, points) * 1e-6


def cmd_scales(args) -> int:
    config, digest = _load(args, check_stability=True)
    s = characteristic_scales(config)
    pair = "-".join(state.label() for state in config.state_pair)

    def um_or_na(value: float) -> str:
        return f"{value * 1e6:.6g} um" if value > 0.0 else "n/a"

    print(f"system: {config.atom.name} atoms + {config.ion.name} ion, "
          f"states {pair}, 2z0 = {2e6 * config.half_separation_z0:.6g} um")
    print(f"adiabaticity eta = {s.eta:.2f} ({s.eta:.9g})")
    print(f"atom oscillator lengths: a_z = {s.a_z * 1e6:.6g} um, "
          f"a_rho = {s.a_rho * 1e6:.6g} um")
    print(f"mean-frequency lengths: L_i = {s.L_i * 1e6:.6g} um, "
          f"L_a = {s.L_a * 1e6:.6g} um")
    print(f"trap periods: T_i = {s.T_i * 1e3:.6g} ms, T_a = {s.T_a * 1e3:.6g} ms")
    print(f"ion-atom polarization length R_ia* = {um_or_na(s.R_ia_star)}")
    print(f"atom-atom van der Waals length R_aa* = {um_or_na(s.R_aa_star)}")

    if args.out is not None:
        # quantity: unit of its table value, from the field of the same name in SI
        units = {"eta": "1", "a_z": "um", "a_rho": "um", "L_i": "um", "L_a": "um",
                 "T_i": "ms", "T_a": "ms", "R_ia_star": "um", "R_aa_star": "um"}
        per_si = {"1": 1.0, "um": 1e6, "ms": 1e3}
        values = np.array([getattr(s, name) * per_si[unit] for name, unit in units.items()])
        _write(args, digest, "scales.csv", ["quantity", "value", "unit"],
               [list(units), values, list(units.values())], states=pair)
    return EXIT_OK


def cmd_bo_curve(args) -> int:
    config, digest = _load(args, check_stability=True)
    grid = _separation_grid(args.z_min_um, args.z_max_um, args.points)
    # values past the float range raise typed errors below, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        curves = axial_bo_curve(grid, config.ion_mode, config, placement=args.placement)
        if not curves["V_rg"].all():
            z = curves["z"][curves["V_rg"] == 0.0][0]
            raise AccuracyError(
                f"V_rg is 0 at separation {z * 1e6:.4g} um, so abs_ratio_rr_rg is undefined "
                "(at large separations |V - E0| falls below the rounding of E0)")
        ratio = np.abs(curves["V_rr"]) / np.abs(curves["V_rg"])
        columns = [curves["z"] * 1e6, _to_khz(curves["V_rr"]), _to_khz(curves["V_rg"]),
                   curves["V_gg"] / cst.PLANCK, ratio]
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        raise SingularGeometryError(
            f"the table row at separation {columns[0][~finite][0]:.4g} um overflows the "
            "float range, next to the interaction singularity")
    _write(args, digest, "bo_curve.csv",
           ["separation_um", "V_rr_kHz", "V_rg_kHz", "V_gg_Hz", "abs_ratio_rr_rg"], columns,
           placement=args.placement, z_min_um=args.z_min_um, z_max_um=args.z_max_um,
           points=args.points, ion_mode=config.ion_mode.label())
    return EXIT_OK


def cmd_phonons(args) -> int:
    config, digest = _load(args)
    sweep = mode_sweep(config, _separation_grid(args.sep_min_um, args.sep_max_um, args.points))
    columns = (sweep["separation"] * 1e6,
               *(sweep[key] / _KHZ2 for key in ("axial_stretch_sq", "axial_com_sq",
                                                 "transverse_stretch_sq", "transverse_com_sq")),
               sweep["axial_angle"], sweep["transverse_angle"], sweep["stable"])
    _write(args, digest, "phonons.csv",
           ["separation_um", "axial_stretch_kHz2", "axial_com_kHz2",
            "transverse_stretch_kHz2", "transverse_com_kHz2",
            "axial_angle_rad", "transverse_angle_rad", "stable"], columns,
           sep_min_um=args.sep_min_um, sep_max_um=args.sep_max_um, points=args.points)
    return EXIT_OK


def _pair_from_token(token: str, config):
    """State pair for a stability token: 'rr', 'rg', 'gg', or '30S-25S'."""
    if token == "gg":
        return (GROUND, GROUND)
    if token in ("rr", "rg"):
        return config.named_pairs()[token]
    if "-" in token:
        left, right = token.split("-", 1)
        return (parse_state(left), parse_state(right))
    raise ConfigError(f"malformed pair token {token!r}, expected like '30S-30S' or 'rr'")


def cmd_critical(args) -> int:
    config, digest = _load(args)
    tokens = args.pairs or ["-".join(s.label() for s in config.state_pair)]

    rows = []
    for token in tokens:
        pair = _pair_from_token(token, config)
        label = "-".join(s.label() for s in pair)
        variant = config.with_states(*pair)
        try:
            result = critical_separation(variant)
        except NotBracketedError as err:
            print(f"pair {label}: no instability inside the bracket ({err})")
            rows.append((label, "n/a", "none"))
            continue
        print(f"pair {label}: critical 2z0 = {result.critical_2z0 * 1e6:.6f} um, "
              f"limiting branch {result.limiting_branch}")
        rows.append((label, result.critical_2z0 * 1e6, result.limiting_branch))

    if args.out is not None:
        _write(args, digest, "critical.csv", ["pair", "critical_2z0_um", "limiting_branch"],
               list(zip(*rows)), pairs=" ".join(tokens))
    return EXIT_OK


def cmd_density(args) -> int:
    config, digest = _load(args)
    if args.n_max < 0:
        raise ConfigError(f"--n-max must be non-negative, got {args.n_max}")
    _require_in("--points", args.points, 16, MAX_DENSITY_POINTS)
    if any(sep <= 0.0 for sep in args.separations_um):
        raise ConfigError("separations must be positive")
    names = [f"{sep:g}" for sep in args.separations_um]   # density_<name>um.csv each
    if len(set(names)) < len(names):
        raise ConfigError(f"separations {' '.join(names)} um repeat one; each writes one table")

    for sep_um in args.separations_um:
        z0 = 0.5 * sep_um * 1e-6
        gauss = gaussian_ground_state(config, z0)
        state = basis_ground_state(config, z0, n_max=args.n_max)

        reach = max(gauss.widths) * 8.0
        reach = max(reach, state.osc_length * (np.sqrt(2.0 * state.n_max + 1.0) + 5.0))
        z1 = np.linspace(gauss.center[0] - reach, gauss.center[0] + reach, args.points)
        z2 = np.linspace(gauss.center[1] - reach, gauss.center[1] + reach, args.points)
        if not (np.all(np.diff(z1) > 0.0) and np.all(np.diff(z2) > 0.0)):
            raise ConfigError(f"separation {sep_um:g} um: the density grid's spacing is "
                              "below the float resolution of its positions")
        density = pair_density(state, z1, z2)

        path = write_table(
            Path(args.out) / f"density_{sep_um:g}um.csv",
            _metadata(args, digest, separation_um=sep_um,
                      n_max_used=state.n_max,
                      convergence_residual=state.residual,
                      ground_energy_kHz=_to_khz(state.energy),
                      grid_points=args.points, grid_half_width_um=reach * 1e6),
            ["z1_um", "z2_um", "density_per_um2"],
            [z1[:, None] * 1e6, z2 * 1e6, density * 1e-12], overwrite=args.overwrite)
        print(f"2z0 = {sep_um:g} um: n_max = {state.n_max}, "
              f"Temple bound {state.residual:.3g}, wrote {path}")
    return EXIT_OK


def cmd_gauge(args) -> int:
    config, digest = _load(args, check_stability=True)
    _require_in("--max-n", args.max_n, 0, MAX_GAUGE_N)
    if args.side_um <= 0.0:
        raise ConfigError(f"--side-um must be positive, got {args.side_um}")
    loop = square_loop(config, side=args.side_um * 1e-6)

    modes = cartesian_modes(args.max_n)
    geometry = AtomPairGeometry.at_trap_centers(config)
    hermiticity = gauge_hermiticity_check(modes, geometry, config)

    # rows run over atom, bra, ket and axis, row-major, as the connection tensors
    values = np.concatenate([connection_matrix(modes, a, geometry, config) for a in (1, 2)])
    numbers = np.array([(mode.n1, mode.n2, mode.n3) for mode in modes])
    _write(args, digest, "connection.csv",
           ["atom", "bra_nx", "bra_ny", "bra_nz", "ket_nx", "ket_ny", "ket_nz",
            "axis", "re_Js_per_m", "im_Js_per_m"],
           [np.repeat([1, 2], len(modes))[:, None, None],
            *np.tile(numbers.T, 2)[..., None, None], *numbers.T[:, :, None],
            np.array(list("xyz")), values.real, values.imag],
           note=f" (hermiticity residual {hermiticity:.3g} J s/m)",
           max_n=args.max_n, geometry="trap-centers",
           hermiticity_residual_Js_per_m=hermiticity)

    phases = []
    for mode in modes:
        phases.append(berry_phase(loop, mode, config))
        print(f"mode ({mode.n1},{mode.n2},{mode.n3}): "
              f"Berry phase {phases[-1]:.3g} rad on a {args.side_um:g} um square loop")
    _write(args, digest, "phases.csv", ["mode_nx", "mode_ny", "mode_nz", "berry_phase_rad"],
           [*numbers.T, np.array(phases)],
           loop="square", side_um=args.side_um)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionbridge",
        description="Ion-mediated potentials, phonon modes, and gauge "
                    "structure of a trapped atom-ion-atom system.",
    )
    # scales and critical print their results; the other commands require --out
    common, writes = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for parent, required in ((common, False), (writes, True)):
        parent.add_argument("--config", required=True, help="JSON configuration file")
        parent.add_argument("--out", required=required, help="output directory for CSV tables")
        parent.add_argument("--overwrite", action="store_true",
                            help="replace existing output files")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scales", parents=[common],
                       help="characteristic lengths, periods, and the adiabaticity ratio")
    p.set_defaults(handler=cmd_scales)

    p = sub.add_parser("bo-curve", parents=[writes],
                       help="adiabatic potential curves along the trap axis")
    p.add_argument("--z-min-um", type=float, default=10.0)
    p.add_argument("--z-max-um", type=float, default=30.0)
    p.add_argument("--points", type=int, default=201, help=f"2 to {MAX_SWEEP_POINTS}")
    p.add_argument("--placement", choices=("symmetric", "atom2-fixed"),
                   default="symmetric")
    p.set_defaults(handler=cmd_bo_curve)

    p = sub.add_parser("phonons", parents=[writes],
                       help="phonon branches over a range of trap separations")
    p.add_argument("--sep-min-um", type=float, default=10.0)
    p.add_argument("--sep-max-um", type=float, default=24.0)
    p.add_argument("--points", type=int, default=141, help=f"2 to {MAX_SWEEP_POINTS}")
    p.set_defaults(handler=cmd_phonons)

    p = sub.add_parser("critical", parents=[common],
                       help="stability threshold separation per state pair")
    p.add_argument("--pairs", nargs="+", default=None,
                   metavar="PAIR", help="state pairs like 30S-30S, 25S-25S, rr, rg, gg")
    p.set_defaults(handler=cmd_critical)

    p = sub.add_parser("density", parents=[writes],
                       help="two-atom ground-state density on an axial grid")
    p.add_argument("--separations-um", type=float, nargs="+",
                   default=(12.0, 16.0, 24.0), metavar="SEP")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--points", type=int, default=161,
                   help=f"grid points per axis, 16 to {MAX_DENSITY_POINTS}")
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("gauge", parents=[writes],
                       help="gauge connection tables and loop phases")
    p.add_argument("--max-n", type=int, default=1,
                   help="largest quantum number per Cartesian axis in the mode set, "
                        f"0 to {MAX_GAUGE_N}")
    p.add_argument("--side-um", type=float, default=1.0,
                   help="side of the square loop traced by atom 1")
    p.set_defaults(handler=cmd_gauge)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process; each parse makes a
    fresh namespace, and no default is mutable."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
