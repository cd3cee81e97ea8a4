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


def _squared_norm(r: np.ndarray) -> np.ndarray:
    # per component: numpy loops over a broadcast trailing axis of 3 are slow
    return r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1] + r[..., 2] * r[..., 2]


def _squared_distances(r1: np.ndarray, r2: np.ndarray):
    """|r1|^2, |r2|^2, |r1|^6, |r2|^6 and |r1 - r2|^6 of finite (..., 3)
    positions, all nonzero, and |r1 - r2|^2 nonzero.

    The sixth powers are what the Born-Oppenheimer terms divide by; one
    that underflows to 0 would turn those terms into NaN.
    """
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise ConfigError("atom positions must be finite")
    r1_sq, r2_sq = _squared_norm(r1), _squared_norm(r2)
    if not (r1_sq.all() and r2_sq.all()):
        raise SingularGeometryError("atom at the ion-trap center")
    r1_6, r2_6 = r1_sq ** 3, r2_sq ** 3
    if not (r1_6.all() and r2_6.all()):
        raise SingularGeometryError("atom so close to the ion-trap center that |r|^6 "
                                    "underflows to 0")
    dx, dy, dz = (r1[..., a] - r2[..., a] for a in range(3))
    r12_sq = dx * dx + dy * dy + dz * dz
    if not r12_sq.all():
        raise SingularGeometryError("coincident atoms")
    r12_6 = r12_sq ** 3
    if not r12_6.all():
        raise SingularGeometryError("atoms so close to each other that |r1 - r2|^6 "
                                    "underflows to 0")
    return r1_sq, r2_sq, r1_6, r2_6, r12_6


def _on_axis(z) -> np.ndarray:
    return np.stack(np.broadcast_arrays(0.0, 0.0, np.asarray(z, dtype=float)), axis=-1)


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


def _ion_shift(r1: np.ndarray, r2: np.ndarray, config: SystemConfig,
               r1_6=None, r2_6=None) -> list[np.ndarray]:
    """Closed-form ion displacement (x0, y0, zeta0) for atoms at ``r1``, ``r2`` (..., 3), m:
    (4 / (m_i w^2)) (C4_1 r_1 / r_1^6 + C4_2 r_2 / r_2^6).  Pass ``r1_6`` and
    ``r2_6`` when ``_squared_distances`` has computed them."""
    c4_1, c4_2 = config.c4_pair
    if r1_6 is None:
        r1_6, r2_6 = _squared_norm(r1) ** 3, _squared_norm(r2) ** 3
    return [k * (c4_1 * r1[..., a] / r1_6 + c4_2 * r2[..., a] / r2_6)
            for a, k in enumerate(_shift_coefficients(config))]


def ion_displacement(geometry: AtomPairGeometry, config: SystemConfig) -> IonDisplacement:
    """Closed-form ion displacement induced by the two ion-atom attractions."""
    return IonDisplacement(*_ion_shift(geometry.r1, geometry.r2, config))


def bo_energy(r1, r2, config: SystemConfig, start: float = 0.0) -> np.ndarray:
    """Born-Oppenheimer energy for atoms at ``r1``, ``r2``, J.

    Positions are broadcasting arrays of shape (..., 3), m.  From
    ``start`` it subtracts, in this order, the displacement energy gains
    (radial, then axial), the direct ion-atom attractions and the
    atom-atom van der Waals term.  With ``start`` the bare mode energy
    E0 this is the adiabatic eigenvalue V(r1, r2); with 0 it is V - E0
    without the rounding of E0.  An energy that overflows the float
    range, next to the ion, is a SingularGeometryError.
    """
    r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    r1_sq, r2_sq, r1_6, r2_6, r12_6 = _squared_distances(r1, r2)
    c4_1, c4_2 = config.c4_pair
    m_i = config.ion.mass
    x0, y0, zeta0 = _ion_shift(r1, r2, config, r1_6, r2_6)
    energy = start - 0.5 * m_i * config.ion_trap.radial**2 * (x0 * x0 + y0 * y0)
    energy = energy - 0.5 * m_i * config.ion_trap.axial**2 * zeta0**2
    energy = energy - (c4_1 / r1_sq**2 + c4_2 / r2_sq**2)
    energy = energy - config.c6_pair / r12_6
    if not np.isfinite(energy).all():
        raise SingularGeometryError("Born-Oppenheimer energy overflows the float range: "
                                    "an atom sits next to the interaction singularity")
    return energy


def axial_interaction(z1, z2, config: SystemConfig) -> np.ndarray:
    """V - E0 for atoms on the trap axis at broadcasting ``z1``, ``z2``, J."""
    return bo_energy(_on_axis(z1), _on_axis(z2), config)


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
    Rydberg level, found as ``bo_energy`` from E0 minus E0.
    """
    if placement not in ("symmetric", "atom2-fixed"):
        raise ConfigError(f"unknown placement {placement!r}")
    z_grid = np.asarray(z_grid, dtype=float)
    if not np.all(np.isfinite(z_grid)):
        raise ConfigError("separation grid must be finite")
    if np.any(z_grid <= 0.0):
        raise SingularGeometryError("separation grid must stay positive")
    if placement == "symmetric":
        r1, r2 = _on_axis(0.5 * z_grid), _on_axis(-0.5 * z_grid)
    else:
        z2 = -config.half_separation_z0
        r1, r2 = _on_axis(z2 + z_grid), _on_axis(z2)

    e0 = mu.bare_energy(config.ion_trap)
    out: dict[str, np.ndarray] = {"z": z_grid.copy()}
    for name, pair in config.named_pairs().items():
        out["V_" + name] = bo_energy(r1, r2, config.with_states(*pair), e0) - e0
    return out
