"""Ion displacement, adiabatic eigenvalues, and the effective two-atom potential.

The fast ion adjusts to the slow atom pair: completing the square of the
expanded ion-atom attraction displaces the ion trap center and lowers
the oscillator energy.  The resulting eigenvalue V(r1, r2) acts as a
potential for the atoms; adding their own trap terms gives the
effective two-atom potential U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularGeometryError
from .expansion import _reals
from .model import IonModeIndex, SystemConfig

__all__ = [
    "AtomPairGeometry",
    "IonDisplacement",
    "ion_displacement",
    "bo_energy",
    "bo_eigenvalue",
    "axial_interaction",
    "effective_potential_U",
    "axial_bo_curve",
]


# Largest coordinate magnitude of an atom, m: |r|^8 <= 81e304 and
# |r1 - r2|^6 stay inside the float range.
_MAX_COORDINATE = 1e38


def _squared_norm(r: np.ndarray) -> np.ndarray:
    # per component: numpy loops over a broadcast trailing axis of 3 are slow
    return r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1] + r[..., 2] * r[..., 2]


def _squared_distances(r1: np.ndarray, r2: np.ndarray, norm=_squared_norm):
    """|r1|^2, |r2|^2, |r1|^6, |r2|^6 and |r1 - r2|^6 of (..., 3) positions, or of
    z on the trap axis with ``norm=np.square``, with every coordinate within
    _MAX_COORDINATE, all nonzero, and |r1 - r2|^2 nonzero: the Born-Oppenheimer
    terms divide by the sixth powers and the gauge Jacobian by |r|^8, and a 0
    or an inf gives NaN."""
    if not (np.all(np.abs(r1) <= _MAX_COORDINATE) and np.all(np.abs(r2) <= _MAX_COORDINATE)):
        raise ConfigError("atom positions must be finite and within 1e38 m of the ion "
                          "trap, where |r|^8 stays inside the float range")
    r1_sq, r2_sq = norm(r1), norm(r2)
    r1_6, r2_6 = r1_sq ** 3, r2_sq ** 3
    r12_sq = norm(r1 - r2)
    r12_6 = r12_sq ** 3
    if not (r1_sq.all() and r2_sq.all()):
        raise SingularGeometryError("atom at the ion-trap center")
    if not (r1_6.all() and r2_6.all()):
        raise SingularGeometryError("atom so close to the ion-trap center that |r|^6 "
                                    "underflows to 0")
    if not r12_sq.all():
        raise SingularGeometryError("coincident atoms")
    if not r12_6.all():
        raise SingularGeometryError("atoms so close to each other that |r1 - r2|^6 "
                                    "underflows to 0")
    return r1_sq, r2_sq, r1_6, r2_6, r12_6


@dataclass(frozen=True)
class AtomPairGeometry:
    """Cartesian positions of the two atoms, m.  The ion trap sits at the
    origin, so both atoms must keep a finite distance from it and from
    each other."""

    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        r1 = np.asarray(self.r1, dtype=float)
        r2 = np.asarray(self.r2, dtype=float)
        if r1.shape != (3,) or r2.shape != (3,):
            raise ConfigError("atom positions must be 3-vectors")
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)
        _squared_distances(r1, r2)

    @classmethod
    def on_axis(cls, z1: float, z2: float) -> "AtomPairGeometry":
        return cls(np.array([0.0, 0.0, z1]), np.array([0.0, 0.0, z2]))

    @classmethod
    def at_trap_centers(cls, config: SystemConfig) -> "AtomPairGeometry":
        z0 = config.half_separation_z0
        return cls.on_axis(z0, -z0)


@dataclass(frozen=True)
class IonDisplacement:
    """Equilibrium shift of the ion trap center, m."""

    x0: float
    y0: float
    zeta0: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.zeta0])


def _shift_coefficients(config: SystemConfig) -> tuple[float, float, float]:
    """Displacement per unit force gradient, 4 / (m_i w^2) for the x, y and z axes,
    w radial for x, y and axial for z."""
    m_i = config.ion.mass
    k_rho = 4.0 / (m_i * config.ion_trap.radial**2)
    return k_rho, k_rho, 4.0 / (m_i * config.ion_trap.axial**2)


def _shift(k: float, c4_1: float, c4_2: float, u1, u2, r1_6, r2_6):
    """Ion displacement along one axis with coefficient k and atom coordinates u1, u2, m."""
    return k * (c4_1 * u1 / r1_6 + c4_2 * u2 / r2_6)


def _ion_shift(r1: np.ndarray, r2: np.ndarray, config: SystemConfig) -> list[np.ndarray]:
    """Closed-form ion displacement (x0, y0, zeta0) for atoms at ``r1``, ``r2`` (..., 3), m."""
    c4_1, c4_2 = config.c4_pair
    r1_6, r2_6 = _squared_norm(r1) ** 3, _squared_norm(r2) ** 3
    return [_shift(k, c4_1, c4_2, r1[..., a], r2[..., a], r1_6, r2_6)
            for a, k in enumerate(_shift_coefficients(config))]


def ion_displacement(geometry: AtomPairGeometry, config: SystemConfig) -> IonDisplacement:
    """Closed-form ion displacement induced by the two ion-atom attractions."""
    return IonDisplacement(*_ion_shift(geometry.r1, geometry.r2, config))


def _energy(start, z1, z2, distances, c4_1, c4_2, c6, config: SystemConfig) -> np.ndarray:
    """``bo_energy`` after its radial term, for atoms with axial coordinates
    ``z1``, ``z2`` and the ``_squared_distances`` ``distances``."""
    r1_sq, r2_sq, r1_6, r2_6, r12_6 = distances
    m_i = config.ion.mass
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
        zeta0 = _shift(_shift_coefficients(config)[2], c4_1, c4_2, z1, z2, r1_6, r2_6)
        energy = start - 0.5 * m_i * config.ion_trap.axial**2 * zeta0**2
        energy = energy - (c4_1 / r1_sq**2 + c4_2 / r2_sq**2)
        energy = energy - c6 / r12_6
    if not np.isfinite(energy).all():
        raise SingularGeometryError("Born-Oppenheimer energy overflows the float range: "
                                    "an atom sits next to the interaction singularity")
    return energy


def bo_energy(r1, r2, config: SystemConfig, start: float = 0.0) -> np.ndarray:
    """Born-Oppenheimer energy for atoms at ``r1``, ``r2``, J; the off-axis kernel.

    Positions are broadcasting arrays of shape (..., 3), m.  From
    ``start`` it subtracts, in this order, the displacement energy gains
    (radial, then axial), the direct ion-atom attractions and the
    atom-atom van der Waals term.  With ``start`` the bare mode energy
    E0 this is the adiabatic eigenvalue V(r1, r2); with 0 it is V - E0
    without the rounding of E0.  An energy that overflows the float
    range, next to the ion, is a SingularGeometryError.
    """
    r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    distances = _squared_distances(r1, r2)
    with np.errstate(over="ignore", invalid="ignore"):  # _energy raises
        x0, y0, _ = _ion_shift(r1, r2, config)
        start = start - 0.5 * config.ion.mass * config.ion_trap.radial**2 * (x0 * x0 + y0 * y0)
    return _energy(start, r1[..., 2], r2[..., 2], distances, *config.c4_pair, config.c6_pair,
                   config)


def axial_interaction(z1, z2, config: SystemConfig) -> np.ndarray:
    """V - E0 for atoms on the trap axis at broadcasting ``z1``, ``z2``, J:
    ``bo_energy``'s checks and values, bit for bit, without (..., 3) positions
    or the radial term, which is 0 on the axis."""
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    return _energy(0.0, z1, z2, _squared_distances(z1, z2, np.square), *config.c4_pair,
                   config.c6_pair, config)


def bo_eigenvalue(geometry: AtomPairGeometry, mu: IonModeIndex,
                  config: SystemConfig) -> float:
    """Adiabatic eigenvalue V(r1, r2) of the displaced ion oscillator in
    mode ``mu``, J: ``bo_energy`` from the bare mode energy."""
    return float(bo_energy(geometry.r1, geometry.r2, config, mu.bare_energy(config.ion_trap)))


def effective_potential_U(geometry: AtomPairGeometry, mu: IonModeIndex,
                          config: SystemConfig) -> float:
    """Effective two-atom potential: atom trap terms plus the adiabatic
    eigenvalue, J.  Atom 1's trap is centered at +z0, atom 2's at -z0."""
    m_a = config.atom.mass
    trap = config.atom_trap
    z0 = config.half_separation_z0
    r1, r2 = geometry.r1, geometry.r2
    trap_energy = 0.5 * m_a * trap.radial**2 * (r1[0]**2 + r1[1]**2 + r2[0]**2 + r2[1]**2)
    trap_energy += 0.5 * m_a * trap.axial**2 * ((r1[2] - z0)**2 + (r2[2] + z0)**2)
    return trap_energy + bo_eigenvalue(geometry, mu, config)


def axial_bo_curve(z_grid, mu: IonModeIndex, config: SystemConfig,
                   placement: str = "symmetric") -> dict[str, np.ndarray]:
    """Adiabatic potential curves along the trap axis, J, asymptote removed.

    For each separation z the two atoms sit on the z axis: symmetrically
    at +-z/2 ("symmetric" placement) or with atom 2 pinned at its trap
    center -z0 and atom 1 at -z0 + z ("atom2-fixed").  Columns hold
    V - E0 for the rr, rg, and gg state pairs built from the configured
    Rydberg level, on ``axial_interaction``'s path: the geometry and its
    checks once, then one ``_energy`` over (3, 1) columns of the pairs' C4_1,
    C4_2 and C6, which is each pair's energy from E0 element by element,
    minus E0.  That rounds to the spacing of E0 (9e-44 J at 7.3e-28 J), so
    V_gg (2e-37 to 3e-34 J) keeps only about 7 significant digits; the
    subtraction is kept until the ``bo-curve`` digests are taken again.
    """
    if placement not in ("symmetric", "atom2-fixed"):
        raise ConfigError(f"unknown placement {placement!r}")
    z_grid = np.asarray(_reals(z_grid, "separation grid must be real numbers"), dtype=float)
    if not np.all(np.isfinite(z_grid)):
        raise ConfigError("separation grid must be finite")
    if np.any(z_grid <= 0.0):
        raise SingularGeometryError("separation grid must stay positive")
    if placement == "symmetric":
        z1, z2 = 0.5 * z_grid, -0.5 * z_grid
    else:
        z2 = np.asarray(-config.half_separation_z0)
        z1 = z2 + z_grid
    distances = _squared_distances(z1, z2, np.square)

    e0 = mu.bare_energy(config.ion_trap)
    c4, c6 = config.coefficients.c4, config.coefficients.c6
    pairs = config.named_pairs()
    columns = np.array([(c4(a), c4(b), c6(a, b)) for a, b in pairs.values()]).T
    c4_1, c4_2, c6_ab = columns.reshape(columns.shape + (1,) * z_grid.ndim)
    energies = _energy(e0, z1, z2, distances, c4_1, c4_2, c6_ab, config) - e0
    out: dict[str, np.ndarray] = {"z": z_grid.copy()}
    out.update(("V_" + name, energy) for name, energy in zip(pairs, energies))
    return out
