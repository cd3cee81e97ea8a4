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
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import constants as cst
from .errors import ConfigError, SingularGeometryError
from .model import IonModeIndex, SystemConfig, _integer
from .potentials import AtomPairGeometry, _ion_shift, _shift_coefficients, _squared_distances

__all__ = [
    "GaugeConnection",
    "LoopPath",
    "cartesian_modes",
    "displacement_jacobian",
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
    ordered lexicographically; ConfigError unless max_n is an integer."""
    levels = range(_integer(max_n, "max_n") + 1)
    return [IonModeIndex.cartesian(nx, ny, nz) for nx in levels for ny in levels for nz in levels]


def _quantum_numbers(modes: list[IonModeIndex]) -> np.ndarray:
    """(m, 3) quantum numbers of a non-empty mode list that is Cartesian and
    without repeats; D is antisymmetric, so A Hermitian, only for such a list."""
    if not modes:
        raise ConfigError("gauge quantities need at least one ion mode")
    if any(mode.basis != "cartesian" for mode in modes):
        raise ConfigError("gauge quantities need Cartesian ion modes")
    if len(set(modes)) != len(modes):
        raise ConfigError("gauge quantities need distinct ion modes")
    return np.array([(mode.n1, mode.n2, mode.n3) for mode in modes])


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
    """D[a, bra, ket] = <bra| d/du_a |ket> over the displaced-oscillator modes:
    +-sqrt(max(n_bra, n_ket)) / (sqrt(2) l_a) where ket - bra = +-e_a, the
    only steps between quantum-number triples of squared length 1."""
    n = _quantum_numbers(modes)
    omegas = (config.ion_trap.radial, config.ion_trap.radial, config.ion_trap.axial)
    with np.errstate(divide="ignore", over="ignore"):
        lengths = np.sqrt(cst.HBAR / (config.ion.mass * np.array(omegas)))
    if not (np.isfinite(lengths).all() and lengths.all()):
        raise ConfigError("the configured ion mass and trap frequencies put the ion "
                          "oscillator lengths out of the float range")

    sq = (n * n).sum(axis=1)
    bra, ket = np.nonzero(sq[:, None] + sq - 2 * n @ n.T == 1)
    step = n[ket] - n[bra]
    axis = np.nonzero(step)[1]
    d = np.zeros((3, len(modes), len(modes)))
    d[axis, bra, ket] = (step.sum(axis=1) * np.sqrt(np.maximum(n[ket, axis], n[bra, axis]))
                         / (_SQRT2 * lengths[axis]))
    return d


def connection_matrix(modes: list[IonModeIndex], atom_index: int,
                      geometry: AtomPairGeometry, config: SystemConfig) -> np.ndarray:
    """Gauge connection A[mu, nu, b] over the mode set, J s/m (complex).

    A is i hbar times the overlap of mode nu with the gradient of mode
    mu with respect to atom ``atom_index``: -i hbar sum_a J[a, b] D[a, nu, mu].
    The displaced-center structure makes it purely imaginary and Hermitian.
    """
    jac = displacement_jacobian(atom_index, geometry, config)
    ladders = _ladder_derivatives(modes, config)
    return -1j * cst.HBAR * np.tensordot(ladders, jac, (0, 0)).transpose(1, 0, 2)


class GaugeConnection(NamedTuple):
    """One stored connection element (for table output): an immutable
    named tuple whose value is a view of its row of the connection tensor."""

    bra_mode: IonModeIndex
    ket_mode: IonModeIndex
    atom_index: int
    value: np.ndarray  # complex 3-vector, J s/m


def connection_records(modes: list[IonModeIndex], geometry: AtomPairGeometry,
                       config: SystemConfig) -> list[GaugeConnection]:
    """Every connection element over the mode set, both atoms, row-major.

    Each bra row is built by one ``map`` of ``tuple.__new__``, which skips
    the Python-level ``__new__`` of the named tuple class."""
    records = []
    for atom_index in (1, 2):
        matrix = connection_matrix(modes, atom_index, geometry, config)
        for bra, row in zip(modes, matrix):
            records.extend(map(tuple.__new__, repeat(GaugeConnection),
                               zip(repeat(bra), modes, repeat(atom_index), row)))
    return records


def gauge_hermiticity_check(modes: list[IonModeIndex], geometry: AtomPairGeometry,
                            config: SystemConfig) -> float:
    """max |A_{mu nu} - conj(A_{nu mu})| over both atoms, J s/m."""
    worst = 0.0
    for atom_index in (1, 2):
        matrix = connection_matrix(modes, atom_index, geometry, config)
        worst = max(worst, float(np.max(np.abs(matrix - matrix.conj().transpose(1, 0, 2)))))
    return worst


@dataclass(frozen=True)
class LoopPath:
    """Ordered waypoints in (r1, r2) space; shape (points, 2, 3), m.

    Every waypoint must pass ``_squared_distances``: an atom on the
    ion-trap center or on the other atom is a ``SingularGeometryError``,
    a coordinate beyond 1e38 m a ``ConfigError``.  So is a leg whose closest
    approach of an atom to the center, or of r1 - r2 to 0, is within 1e-12
    of that vector's |start| + |step| (1e4 times the rounding): a crossing
    anywhere on a leg, but not a leg 1 nm off the center at micrometers."""

    waypoints: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 3 or w.shape[1:] != (2, 3) or w.shape[0] < 2:
            raise ConfigError("waypoints must have shape (points >= 2, 2, 3)")
        _squared_distances(w[:, 0], w[:, 1])
        vectors = np.concatenate([w, w[:, :1] - w[:, 1:]], axis=1)   # r1, r2, r1 - r2
        start, step = vectors[:-1], np.diff(vectors, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where a vector stays
            t = np.clip(-np.sum(start * step, axis=-1) / np.sum(step * step, axis=-1), 0.0, 1.0)
        closest = np.linalg.norm(start + np.nan_to_num(t)[..., None] * step, axis=-1)
        scale = np.linalg.norm(start, axis=-1) + np.linalg.norm(step, axis=-1)
        crossings = np.argwhere(closest <= 1e-12 * scale)   # (leg, vector) pairs
        if crossings.size:
            leg, vector = crossings[0]
            raise SingularGeometryError(
                f"{'coincident atoms' if vector == 2 else 'atom at the ion-trap center'} "
                f"on the leg from waypoint {leg} to {leg + 1}")
        object.__setattr__(self, "waypoints", w)

    @property
    def closed(self) -> bool:
        """True when the path ends exactly at its first waypoint."""
        return bool((self.waypoints[0] == self.waypoints[-1]).all())


def square_loop(config: SystemConfig, side: float = 1e-6) -> LoopPath:
    """Default closed path: atom 1 runs a square in its x-z plane around
    its trap center while atom 2 stays at its own center."""
    z0 = config.half_separation_z0
    r2 = [0.0, 0.0, -z0]
    half = 0.5 * side
    corners = [(-half, z0 - half), (half, z0 - half), (half, z0 + half),
               (-half, z0 + half), (-half, z0 - half)]
    waypoints = [[[x, 0.0, z], r2] for x, z in corners]
    return LoopPath(np.array(waypoints))


def berry_phase(loop: LoopPath, mode: IonModeIndex, config: SystemConfig) -> float:
    """Geometric phase of one adiabatic surface around a closed loop, rad.

    The diagonal connection of the real displaced-oscillator states
    vanishes identically, so the phase is exactly zero.  The mode must
    be Cartesian and the loop closed; ``LoopPath`` has checked its points.
    """
    _quantum_numbers([mode])
    if not loop.closed:
        raise ConfigError("Berry phase needs a closed loop")
    return 0.0


def wilson_loop(loop: LoopPath, modes: list[IonModeIndex],
                config: SystemConfig) -> np.ndarray:
    """Transport matrix along the path over the mode set (real orthogonal).

    The connection is pure gauge, so the path-ordered exponential of
    -i A . dr / hbar depends only on the ion displacement d at the ends:
    exp(-sum_a (d_a(end) - d_a(start)) D_a^T), D_a the ladder derivative
    along axis a, the displacement operator D(alpha) with alpha_a =
    -(delta d_a) / (sqrt(2) l_a).  Every closed loop gives exactly the
    identity.  The modes must form the Cartesian product of one
    quantum-number set per axis: only then do the truncated generators
    commute.  ``LoopPath`` has checked the path's points.
    """
    numbers = _quantum_numbers(modes)
    if len(modes) != math.prod(len(set(axis)) for axis in numbers.T):
        raise ConfigError("Wilson transport needs modes that form a product "
                          "of per-axis quantum-number sets")
    first, last = loop.waypoints[0], loop.waypoints[-1]
    shift = (np.array(_ion_shift(last[0], last[1], config))
             - np.array(_ion_shift(first[0], first[1], config)))
    if not np.isfinite(shift).all():
        raise ConfigError("ion displacement at the path's ends leaves the float range")
    generator = -np.einsum("a,aij->ji", shift, _ladder_derivatives(modes, config))
    # M is real antisymmetric, so i M = U L U^H is Hermitian and exp(M) =
    # 1 + (U (exp(-i L) - 1) U^H).real: exactly 1 at M = 0, and rounded
    # relative to M rather than to 1
    values, vectors = np.linalg.eigh(1j * generator)
    return np.eye(len(modes)) + ((vectors * np.expm1(-1j * values)) @ vectors.conj().T).real
