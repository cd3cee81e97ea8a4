"""Non-adiabatic gauge connection over atom-coordinate space.

The ionic eigenstates are displaced-oscillator products, so their
parametric derivative with respect to an atom coordinate is the
displacement Jacobian chained with analytic one-quantum ladder
elements: the connection obeys a strict delta n = +-1 selection rule
per Cartesian axis, is Hermitian, and has an identically vanishing
diagonal, which makes every Berry phase of a single surface zero.
The connection is pure gauge, so transport along a path is the
displacement operator between its endpoints.  Cartesian ion modes are
used throughout; the cylindrical phase convention under displacement is
not defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as cst
from .errors import ConfigError
from .model import IonModeIndex, SystemConfig
from .potentials import AtomPairGeometry, _ion_shift, _shift_coefficients, _squared_distances

__all__ = [
    "GaugeConnection",
    "LoopPath",
    "cartesian_modes",
    "displacement_jacobian",
    "gauge_element",
    "connection_matrix",
    "connection_records",
    "gauge_hermiticity_check",
    "berry_phase",
    "wilson_loop",
    "square_loop",
]

_SQRT2 = math.sqrt(2.0)


def cartesian_modes(max_n: int) -> list[IonModeIndex]:
    """All Cartesian ion modes with every quantum number <= max_n,
    ordered lexicographically."""
    return [IonModeIndex.cartesian(nx, ny, nz)
            for nx in range(max_n + 1)
            for ny in range(max_n + 1)
            for nz in range(max_n + 1)]


def _require_cartesian(mode: IonModeIndex) -> tuple[int, int, int]:
    if mode.basis != "cartesian":
        raise ConfigError("gauge quantities need Cartesian ion modes")
    return mode.n1, mode.n2, mode.n3


def displacement_jacobian(atom_index: int, geometry: AtomPairGeometry,
                          config: SystemConfig) -> np.ndarray:
    """d(displacement)/d(atom position): J[a, b] = d d_a / d r_{j,b}.

    Row a runs over the displacement components (x0, y0, zeta0), column
    b over the coordinates of atom ``atom_index`` (1 or 2).
    """
    if atom_index not in (1, 2):
        raise ConfigError(f"atom_index must be 1 or 2, got {atom_index}")
    r = geometry.r1 if atom_index == 1 else geometry.r2
    return _jacobian(r, config.c4_pair[atom_index - 1], config)


def _jacobian(r: np.ndarray, c4: float, config: SystemConfig) -> np.ndarray:
    """``displacement_jacobian`` at atom positions ``r`` of shape (..., 3)."""
    r_sq = np.einsum("...i,...i->...", r, r)[..., None, None]
    core = np.eye(3) / r_sq**3 - 6.0 * (r[..., :, None] * r[..., None, :]) / r_sq**4
    kappa = np.array(_shift_coefficients(config))
    return c4 * kappa[:, None] * core


def _ladder_derivatives(modes: list[IonModeIndex], config: SystemConfig) -> np.ndarray:
    """D[a, bra, ket] = <bra| d/du_a |ket> over the displaced-oscillator modes."""
    triples = [_require_cartesian(m) for m in modes]
    index = {t: i for i, t in enumerate(triples)}
    omegas = (config.ion_trap.radial, config.ion_trap.radial, config.ion_trap.axial)
    with np.errstate(divide="ignore", over="ignore"):
        lengths = np.sqrt(cst.HBAR / (config.ion.mass * np.array(omegas)))
    if not (np.isfinite(lengths).all() and lengths.all()):
        raise ConfigError("the configured ion mass and trap frequencies put the ion "
                          "oscillator lengths out of the float range")

    d = np.zeros((3, len(modes), len(modes)))
    for ket, t in enumerate(triples):
        for a in range(3):
            n = t[a]
            down = list(t)
            down[a] = n - 1
            bra = index.get(tuple(down))
            if bra is not None:
                d[a, bra, ket] = math.sqrt(n) / (_SQRT2 * lengths[a])
            up = list(t)
            up[a] = n + 1
            bra = index.get(tuple(up))
            if bra is not None:
                d[a, bra, ket] = -math.sqrt(n + 1) / (_SQRT2 * lengths[a])
    return d


def connection_matrix(modes: list[IonModeIndex], atom_index: int,
                      geometry: AtomPairGeometry, config: SystemConfig) -> np.ndarray:
    """Gauge connection A[mu, nu, b] over the mode set, J s/m (complex).

    A is i hbar times the overlap of mode nu with the gradient of mode
    mu with respect to atom ``atom_index``; the displaced-center
    structure makes it purely imaginary and Hermitian.
    """
    jac = displacement_jacobian(atom_index, geometry, config)
    ladders = _ladder_derivatives(modes, config)
    m = len(modes)
    out = np.zeros((m, m, 3), dtype=complex)
    for b in range(3):
        acc = np.zeros((m, m))
        for a in range(3):
            if jac[a, b] != 0.0:
                acc = acc + jac[a, b] * ladders[a].T
        out[:, :, b] = -1j * cst.HBAR * acc
    return out


def gauge_element(bra: IonModeIndex, ket: IonModeIndex, atom_index: int,
                  geometry: AtomPairGeometry, config: SystemConfig) -> np.ndarray:
    """Single connection element A_{bra,ket} for one atom, 3-vector J s/m."""
    modes = [bra, ket] if bra != ket else [bra]
    matrix = connection_matrix(modes, atom_index, geometry, config)
    return matrix[0, -1 if bra != ket else 0]


@dataclass(frozen=True)
class GaugeConnection:
    """One stored connection element (for table output)."""

    bra_mode: IonModeIndex
    ket_mode: IonModeIndex
    atom_index: int
    value: np.ndarray  # complex 3-vector, J s/m


def connection_records(modes: list[IonModeIndex], geometry: AtomPairGeometry,
                       config: SystemConfig) -> list[GaugeConnection]:
    """Every connection element over the mode set, both atoms, row-major."""
    records = []
    for atom_index in (1, 2):
        matrix = connection_matrix(modes, atom_index, geometry, config)
        for bra, row in zip(modes, matrix):
            records.extend(GaugeConnection(bra, ket, atom_index, value)
                           for ket, value in zip(modes, row))
    return records


def gauge_hermiticity_check(modes: list[IonModeIndex], geometry: AtomPairGeometry,
                            config: SystemConfig) -> float:
    """max |A_{mu nu} - conj(A_{nu mu})| over both atoms, J s/m."""
    worst = 0.0
    for atom_index in (1, 2):
        matrix = connection_matrix(modes, atom_index, geometry, config)
        for b in range(3):
            dev = np.max(np.abs(matrix[:, :, b] - matrix[:, :, b].conj().T))
            worst = max(worst, float(dev))
    return worst


@dataclass(frozen=True)
class LoopPath:
    """Ordered waypoints in (r1, r2) space; shape (points, 2, 3), m."""

    waypoints: np.ndarray
    closed: bool = True

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 3 or w.shape[1:] != (2, 3) or w.shape[0] < 2:
            raise ConfigError("waypoints must have shape (points >= 2, 2, 3)")
        object.__setattr__(self, "waypoints", w)
        if self.closed and not np.array_equal(w[0], w[-1]):
            raise ConfigError("a closed loop must end exactly at its first waypoint")


def square_loop(config: SystemConfig, side: float = 1e-6) -> LoopPath:
    """Default closed path: atom 1 runs a square in its x-z plane around
    its trap center while atom 2 stays at its own center."""
    z0 = config.half_separation_z0
    r2 = [0.0, 0.0, -z0]
    half = 0.5 * side
    corners = [(-half, z0 - half), (half, z0 - half), (half, z0 + half),
               (-half, z0 + half), (-half, z0 - half)]
    waypoints = [[[x, 0.0, z], r2] for x, z in corners]
    return LoopPath(np.array(waypoints), closed=True)


def _check_path(loop: LoopPath) -> None:
    """The path check of ``berry_phase`` and ``wilson_loop``: every
    waypoint, and the midpoints of each leg cut once and twice, pass
    ``_squared_distances``."""
    w = loop.waypoints
    start = w[:-1]
    cuts = [start + (w[1:] - start) * f for f in (0.0, 0.5, 1.0)]
    points = np.concatenate([w, 0.5 * (cuts[0] + cuts[2]),
                             0.5 * (cuts[0] + cuts[1]), 0.5 * (cuts[1] + cuts[2])])
    _squared_distances(points[:, 0], points[:, 1])


def berry_phase(loop: LoopPath, mode: IonModeIndex, config: SystemConfig) -> float:
    """Geometric phase of one adiabatic surface around a closed loop, rad.

    The diagonal connection of the real displaced-oscillator states
    vanishes identically, so the phase is exactly zero.  The mode must
    be Cartesian and the loop closed, and no waypoint or midpoint of a
    leg cut once or twice may put an atom on the ion-trap center or on
    the other atom.
    """
    _require_cartesian(mode)
    if not loop.closed:
        raise ConfigError("Berry phase needs a closed loop")
    _check_path(loop)
    return 0.0


def wilson_loop(loop: LoopPath, modes: list[IonModeIndex],
                config: SystemConfig) -> np.ndarray:
    """Transport matrix along the path over the mode set (real orthogonal).

    The connection is pure gauge, so the path-ordered exponential of
    -i A . dr / hbar depends only on the ion displacement d at the ends:
    exp(-sum_a (d_a(end) - d_a(start)) D_a^T), D_a the ladder derivative
    along axis a, the displacement operator D(alpha) with alpha_a =
    -(delta d_a) / (sqrt(2) l_a).  Every closed loop gives exactly the
    identity.  The modes must be distinct and form the Cartesian product
    of one quantum-number set per axis: only then do the truncated
    generators commute.
    """
    from scipy.linalg import expm

    triples = {_require_cartesian(m) for m in modes}
    axes = [{t[a] for t in triples} for a in range(3)]
    if len(triples) != len(modes) or len(triples) != math.prod(map(len, axes)):
        raise ConfigError("Wilson transport needs distinct modes that form a product "
                          "of per-axis quantum-number sets")
    _check_path(loop)
    first, last = loop.waypoints[0], loop.waypoints[-1]
    shift = (np.array(_ion_shift(last[0], last[1], config))
             - np.array(_ion_shift(first[0], first[1], config)))
    if not np.isfinite(shift).all():
        raise ConfigError("ion displacement at the path's ends leaves the float range")
    ladders = _ladder_derivatives(modes, config)
    return expm(-np.einsum("a,aij->ji", shift, ladders))
