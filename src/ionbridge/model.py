"""Species, traps, interaction coefficients, and derived characteristic scales.

All quantities are SI.  A :class:`SystemConfig` is the single source of
truth for every computation in the package: one ion in a harmonic trap at
the origin, two identical atoms in harmonic traps centered at (0, 0, +z0)
and (0, 0, -z0), ion-atom -C4/r^4 attraction and an atom-atom -C6/r^6
term between Rydberg pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import constants as cst
from .errors import ConfigError

__all__ = [
    "Species",
    "ElectronicState",
    "TrapFrequencies",
    "InteractionCoefficients",
    "IonModeIndex",
    "SystemConfig",
    "CharacteristicScales",
    "rydberg_c4",
    "characteristic_scales",
    "validate",
    "require_valid",
    "GROUND",
]


@dataclass(frozen=True)
class Species:
    """A particle species: text label and mass in kg."""

    name: str
    mass: float

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ConfigError(f"species {self.name!r}: mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class ElectronicState:
    """Atomic electronic state: the ground state or an S Rydberg level.

    Only S states are supported; ``principal_n`` is meaningful for
    Rydberg states only and lies above the ground level 5S.
    """

    kind: str  # "ground" or "rydberg"
    principal_n: int | None = None

    def __post_init__(self):
        if self.kind not in ("ground", "rydberg"):
            raise ConfigError(f"unknown state kind {self.kind!r}")
        if self.kind == "rydberg" and not (self.principal_n or 0) > cst.RB_GROUND_N:
            raise ConfigError(f"rydberg state needs principal_n > {cst.RB_GROUND_N}, "
                              f"got {self.principal_n}")

    @property
    def is_rydberg(self) -> bool:
        return self.kind == "rydberg"

    def label(self) -> str:
        return "g" if self.kind == "ground" else f"{self.principal_n}S"


GROUND = ElectronicState("ground")


@dataclass(frozen=True)
class TrapFrequencies:
    """Radial and axial angular trap frequencies in rad/s."""

    radial: float
    axial: float

    def __post_init__(self):
        if not (0.0 < self.radial < math.inf and 0.0 < self.axial < math.inf):
            raise ConfigError(f"trap frequencies must be positive and finite, "
                              f"got radial={self.radial}, axial={self.axial}")

    @property
    def geometric_mean(self) -> float:
        """(omega_rho^2 * omega_z)^(1/3), the isotropic average."""
        return (self.radial * self.radial * self.axial) ** (1.0 / 3.0)


def _n_scale(n: int, scaling: str) -> float:
    """Principal-quantum-number ratio n/anchor in the configured convention."""
    if scaling == "bare_n":
        return n / cst.C4_ANCHOR_N
    if scaling == "quantum_defect":
        return (n - cst.RB_S_QUANTUM_DEFECT) / (cst.C4_ANCHOR_N - cst.RB_S_QUANTUM_DEFECT)
    raise ConfigError(f"unknown scaling mode {scaling!r}")


def rydberg_c4(base_c4_ground: float, n: int, scaling: str = "bare_n") -> float:
    """Ion-atom C4 for an nS state, anchored at the 30S enhancement.

    ``n = 0`` means the ground state and returns ``base_c4_ground``
    unchanged.  For n = 30 the result is exactly
    ``3.94e7 * base_c4_ground``; other n scale that anchor by the
    seventh power of the (bare or defect-corrected) ratio n/30.
    """
    if base_c4_ground < 0.0:
        raise ConfigError(f"c4_ground must be non-negative, got {base_c4_ground}")
    if n == 0:
        return base_c4_ground
    if n <= cst.RB_GROUND_N:
        raise ConfigError(f"rydberg n must be > {cst.RB_GROUND_N} (or 0 for ground), got {n}")
    anchor = cst.C4_30S_ANCHOR_FACTOR * base_c4_ground
    return anchor * _n_scale(n, scaling) ** 7


@dataclass(frozen=True)
class InteractionCoefficients:
    """Ion-atom C4 and atom-atom C6 lookup, built from scaling anchors.

    C4 values follow the n^7 law pinned to the 30S anchor; C6 is stored
    signed exactly as configured for the anchor Rydberg pair (negative
    means repulsive under the -C6/r^6 convention), scales as n^11, and
    defaults to zero whenever either state is the ground state.
    """

    c4_ground: float = cst.C4_GROUND_JM4
    c6_rydberg_anchor: float = cst.C6_30S_PAIR_JM6
    scaling: str = "bare_n"

    def __post_init__(self):
        if self.c4_ground < 0.0:
            raise ConfigError(f"c4_ground must be non-negative, got {self.c4_ground}")
        if self.scaling not in ("bare_n", "quantum_defect"):
            raise ConfigError(f"unknown scaling mode {self.scaling!r}")

    def c4(self, state: ElectronicState) -> float:
        """Ion-atom coefficient for one atom in ``state``, J m^4."""
        if not state.is_rydberg:
            return self.c4_ground
        return rydberg_c4(self.c4_ground, state.principal_n, self.scaling)

    def c6(self, a: ElectronicState, b: ElectronicState) -> float:
        """Signed atom-atom coefficient for the state pair, J m^6."""
        if not (a.is_rydberg and b.is_rydberg):
            return 0.0
        sa = _n_scale(a.principal_n, self.scaling)
        sb = _n_scale(b.principal_n, self.scaling)
        return self.c6_rydberg_anchor * (sa * sb) ** 5.5


@dataclass(frozen=True)
class IonModeIndex:
    """Ion motional quantum numbers, cylindrical (n_rho, m, n_z) or
    Cartesian (n_x, n_y, n_z)."""

    basis: str  # "cylindrical" or "cartesian"
    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        if self.basis not in ("cylindrical", "cartesian"):
            raise ConfigError(f"unknown mode basis {self.basis!r}")
        if self.basis == "cylindrical":
            if self.n1 < 0 or self.n3 < 0:
                raise ConfigError(f"cylindrical mode needs n_rho, n_z >= 0, got {self}")
        else:
            if self.n1 < 0 or self.n2 < 0 or self.n3 < 0:
                raise ConfigError(f"cartesian mode needs all quantum numbers >= 0, got {self}")

    @classmethod
    def cylindrical(cls, n_rho: int, m: int, n_z: int) -> "IonModeIndex":
        return cls("cylindrical", n_rho, m, n_z)

    @classmethod
    def cartesian(cls, n_x: int, n_y: int, n_z: int) -> "IonModeIndex":
        return cls("cartesian", n_x, n_y, n_z)

    def bare_energy(self, trap: TrapFrequencies) -> float:
        """Oscillator energy of the undisplaced ion trap, J."""
        if self.basis == "cylindrical":
            radial = 2 * self.n1 + abs(self.n2) + 1
        else:
            radial = self.n1 + self.n2 + 1
        return cst.HBAR * trap.radial * radial + cst.HBAR * trap.axial * (self.n3 + 0.5)

    def label(self) -> str:
        return f"{self.basis[:3]}({self.n1},{self.n2},{self.n3})"


@dataclass(frozen=True)
class SystemConfig:
    """Full specification of the ion-atom-atom system."""

    ion: Species
    ion_trap: TrapFrequencies
    atom: Species
    atom_trap: TrapFrequencies
    half_separation_z0: float
    state_pair: tuple[ElectronicState, ElectronicState]
    coefficients: InteractionCoefficients = field(default_factory=InteractionCoefficients)
    ion_mode: IonModeIndex = field(default_factory=lambda: IonModeIndex.cylindrical(0, 0, 0))

    def __post_init__(self):
        if not self.half_separation_z0 > 0.0:
            raise ConfigError(
                f"half_separation_z0 must be positive, got {self.half_separation_z0}"
            )
        if len(self.state_pair) != 2:
            raise ConfigError("state_pair must hold exactly two states")

    @property
    def c4_pair(self) -> tuple[float, float]:
        """(C4 of atom 1, C4 of atom 2) for the configured state pair."""
        a, b = self.state_pair
        return self.coefficients.c4(a), self.coefficients.c4(b)

    @property
    def c6_pair(self) -> float:
        """Signed atom-atom C6 for the configured state pair."""
        a, b = self.state_pair
        return self.coefficients.c6(a, b)

    def named_pairs(self) -> dict[str, tuple[ElectronicState, ElectronicState]]:
        """The rr, rg and gg state pairs built from the configured Rydberg level."""
        rydberg = next((s for s in self.state_pair if s.is_rydberg), None)
        if rydberg is None:
            raise ConfigError("rr and rg pairs need a Rydberg level in the configured states")
        return {"rr": (rydberg, rydberg), "rg": (rydberg, GROUND), "gg": (GROUND, GROUND)}

    def with_states(self, a: ElectronicState, b: ElectronicState) -> "SystemConfig":
        return replace(self, state_pair=(a, b))

    def with_half_separation(self, z0: float) -> "SystemConfig":
        return replace(self, half_separation_z0=z0)


@dataclass(frozen=True)
class CharacteristicScales:
    """Derived length/time scales and the adiabaticity ratio."""

    a_z: float          # atom axial oscillator length, m
    a_rho: float        # atom radial oscillator length, m
    L_i: float          # ion length scale at the mean trap frequency, m
    L_a: float          # atom length scale at the mean trap frequency, m
    T_i: float          # ion period at the mean trap frequency, s
    T_a: float          # atom period at the mean trap frequency, s
    R_ia_star: float    # ion-atom polarization length, m (0 when C4 = 0)
    R_aa_star: float    # atom-atom van der Waals length, m (0 when C6 = 0)
    eta: float          # atom-to-ion average speed ratio


def characteristic_scales(config: SystemConfig) -> CharacteristicScales:
    """Evaluate the closed-form characteristic scales of a configuration.

    R_ia* uses the larger C4 of the two configured states (range of the
    strongest ion-atom interaction); R_aa* uses |C6| of the state pair.
    A scale that leaves the float range is a ConfigError.
    """
    hbar = cst.HBAR
    m_a = config.atom.mass
    m_i = config.ion.mass
    wbar_a = config.atom_trap.geometric_mean
    wbar_i = config.ion_trap.geometric_mean

    try:
        c4 = max(config.c4_pair)
        mu_ia = m_i * m_a / (m_i + m_a)
        r_ia = math.sqrt(2.0 * c4 * mu_ia) / hbar if c4 > 0.0 else 0.0
        c6 = abs(config.c6_pair)
        mu_aa = 0.5 * m_a
        r_aa = (2.0 * c6 * mu_aa / hbar**2) ** 0.25 if c6 > 0.0 else 0.0

        scales = CharacteristicScales(
            a_z=math.sqrt(hbar / (m_a * config.atom_trap.axial)),
            a_rho=math.sqrt(hbar / (m_a * config.atom_trap.radial)),
            L_i=math.sqrt(hbar / (m_i * wbar_i)),
            L_a=math.sqrt(hbar / (m_a * wbar_a)),
            T_i=cst.TWO_PI / wbar_i,
            T_a=cst.TWO_PI / wbar_a,
            R_ia_star=r_ia,
            R_aa_star=r_aa,
            eta=math.sqrt(m_i / m_a) * math.sqrt(wbar_a / wbar_i),
        )
    except (OverflowError, ZeroDivisionError):
        scales = None
    if scales is None or not all(map(math.isfinite, vars(scales).values())):
        raise ConfigError("the configured masses, trap frequencies, C4 or C6 put the "
                          "characteristic scales out of the float range")
    return scales


def validate(config: SystemConfig) -> list[str]:
    """Check the adiabaticity and separation preconditions.

    Returns the error messages, empty when everything holds: the
    atom/ion speed ratio eta must stay below 1 and the trap separation
    must dominate the atomic oscillator length (2 z0 >= 10 a_z).
    """
    out: list[str] = []
    scales = characteristic_scales(config)
    sep = 2.0 * config.half_separation_z0

    if scales.eta >= 1.0:
        out.append(f"adiabatic separation requires eta < 1, got eta = {scales.eta:.4g}")
    if sep < 10.0 * scales.a_z:
        out.append(f"trap separation 2z0 = {sep:.4g} m is below 10 a_z = "
                   f"{10.0 * scales.a_z:.4g} m")
    return out


def require_valid(config: SystemConfig) -> None:
    """Raise ConfigError when ``validate`` reports any error."""
    errors = validate(config)
    if errors:
        raise ConfigError("; ".join(errors))
