"""Quadratic expansion of the effective two-atom potential around the trap centers.

The expansion is carried out in the trap-centered (primed) coordinates
and assembled in scaled relative/center-of-mass coordinates
q_rel = (q1 - q2)/sqrt(2), q_com = (q1 + q2)/sqrt(2).  All frequency
corrections are stored as signed squares so the stability search can
bracket sign changes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .model import IonModeIndex, SystemConfig

__all__ = [
    "ExpansionCoefficients",
    "EffectiveFrequencies",
    "QuadraticForm",
    "expansion_coefficients",
    "effective_frequencies",
    "quadratic_potential",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Power-law coefficients of the expanded potential.

    The subscripts name the inverse power of z0 each term multiplies in
    the frequency corrections; _1/_2 refer to the per-atom C4 values and
    _ab to the cross product C4_1 * C4_2.  A4 and A6 carry m^6/s^2,
    A10 and A12 carry m^12/s^2.  E0_bar is the constant term of the
    expansion, J, equal to the effective potential at the trap centers.
    """

    A12_1: float
    A12_2: float
    A12_ab: float
    A10_1: float
    A10_2: float
    A10_ab: float
    A6_1: float
    A6_2: float
    A4_1: float
    A4_2: float
    E0_bar: float


# The z0-independent factors of the expansion for one configuration: the
# A coefficients in ExpansionCoefficients' order, C6 (J m^6), the atom
# mass (kg) and the atom trap squares (rad^2/s^2).
_Terms = namedtuple("_Terms", [f.name for f in fields(ExpansionCoefficients)[:-1]]
                    + ["c6", "m_a", "w_ar_sq", "w_az_sq"])


def _terms(config: SystemConfig) -> _Terms:
    """The ``_Terms`` of a configuration; ConfigError when one of them
    leaves the float range."""
    try:
        c4_1, c4_2 = config.c4_pair
        m_a, m_i = config.atom.mass, config.ion.mass
        w_ir_sq, w_iz_sq = config.ion_trap.radial**2, config.ion_trap.axial**2
        terms = _Terms(
            A12_1=16.0 * c4_1**2 / (m_a * m_i * w_ir_sq),
            A12_2=16.0 * c4_2**2 / (m_a * m_i * w_ir_sq),
            A12_ab=16.0 * c4_1 * c4_2 / (m_a * m_i * w_ir_sq),
            A10_1=16.0 * c4_1**2 / (m_a * m_i * w_iz_sq),
            A10_2=16.0 * c4_2**2 / (m_a * m_i * w_iz_sq),
            A10_ab=16.0 * c4_1 * c4_2 / (m_a * m_i * w_iz_sq),
            A6_1=4.0 * c4_1 / m_a,
            A6_2=4.0 * c4_2 / m_a,
            A4_1=2.0 * c4_1 / m_a,
            A4_2=2.0 * c4_2 / m_a,
            c6=config.c6_pair,
            m_a=m_a,
            w_ar_sq=config.atom_trap.radial**2,
            w_az_sq=config.atom_trap.axial**2,
        )
    except (OverflowError, ZeroDivisionError):
        terms = None
    if terms is None or not all(map(math.isfinite, terms)):
        raise ConfigError("the configured masses, trap frequencies, C4 or C6 put the "
                          "expansion coefficients out of the float range")
    return terms


def expansion_coefficients(config: SystemConfig, z0: float | None = None,
                           mu: IonModeIndex | None = None) -> ExpansionCoefficients:
    """Evaluate every A coefficient plus the constant offset E0_bar.

    ``z0`` and ``mu`` default to the configured half-separation and ion
    mode; only E0_bar depends on them.
    """
    if z0 is None:
        z0 = config.half_separation_z0
    if mu is None:
        mu = config.ion_mode
    t = _terms(config)
    e0_bar = mu.bare_energy(config.ion_trap)
    try:
        e0_bar -= t.m_a * (t.A4_1 + t.A4_2) / (2.0 * z0**4)
        e0_bar -= t.m_a * (t.A10_1 + t.A10_2 - 2.0 * t.A10_ab) / (2.0 * z0**10)
        e0_bar -= t.c6 / (64.0 * z0**6)
    except (OverflowError, ZeroDivisionError):
        e0_bar = math.nan
    if not math.isfinite(e0_bar):
        raise ConfigError(f"E0_bar leaves the float range at 2z0 = {2.0 * z0:.4g} m")
    return ExpansionCoefficients(*t[:10], E0_bar=e0_bar)


@dataclass(frozen=True)
class EffectiveFrequencies:
    """Signed squared frequency scales of the quadratic expansion, rad^2/s^2.

    omega_bar_* are the per-atom modified trap frequencies, omega_prime_*
    their means, omega_xy/omega_zz the transverse/axial two-atom coupling
    scales, and Omega_1/Omega_2 the linear-force scales.  Values may go
    negative near the instability; square roots are taken only for
    display.
    """

    omega_bar_rho1_sq: float
    omega_bar_rho2_sq: float
    omega_bar_z1_sq: float
    omega_bar_z2_sq: float
    omega_prime_rho_sq: float
    omega_prime_z_sq: float
    omega_xy_sq: float
    omega_zz_sq: float
    Omega_1_sq: float
    Omega_2_sq: float

    def real_frequencies(self) -> dict[str, float | None]:
        """Square roots of the non-negative squares, rad/s; None elsewhere."""
        out: dict[str, float | None] = {}
        for name in ("omega_bar_rho1", "omega_bar_rho2", "omega_bar_z1",
                     "omega_bar_z2", "omega_prime_rho", "omega_prime_z"):
            sq = getattr(self, name + "_sq")
            out[name] = math.sqrt(sq) if sq >= 0.0 else None
        return out


def _frequency_squares(t: _Terms, z0):
    """The fields of EffectiveFrequencies at z0, in their order.  Only
    + - * / and ** act on z0, so it may be a float or an ndarray."""
    z6 = z0**6
    z12 = z0**12
    z8 = z0**8
    c6_rho = 3.0 * t.c6 / (128.0 * t.m_a * z8)
    c6_z = 21.0 * t.c6 / (128.0 * t.m_a * z8)
    wbr1 = t.w_ar_sq + t.A6_1 / z6 - t.A12_1 / z12 + 6.0 * (t.A10_1 - t.A10_ab) / z12 + c6_rho
    wbr2 = t.w_ar_sq + t.A6_2 / z6 - t.A12_2 / z12 + 6.0 * (t.A10_2 - t.A10_ab) / z12 + c6_rho
    wbz1 = t.w_az_sq - 10.0 * t.A4_1 / z6 - (55.0 * t.A10_1 - 30.0 * t.A10_ab) / z12 - c6_z
    wbz2 = t.w_az_sq - 10.0 * t.A4_2 / z6 - (55.0 * t.A10_2 - 30.0 * t.A10_ab) / z12 - c6_z
    return (
        wbr1, wbr2, wbz1, wbz2,
        0.5 * (wbr1 + wbr2),
        0.5 * (wbz1 + wbz2),
        t.A12_ab / z12 + c6_rho,
        -25.0 * t.A10_ab / z12 + c6_z,
        2.0 * t.A4_1 / z6 + 5.0 * (t.A10_1 - t.A10_ab) / z12 + 2.0 * c6_rho,
        2.0 * t.A4_2 / z6 + 5.0 * (t.A10_2 - t.A10_ab) / z12 + 2.0 * c6_rho,
    )


def effective_frequencies(config: SystemConfig, z0) -> EffectiveFrequencies:
    """Closed-form frequency corrections of the quadratic expansion at z0.

    The transverse correction is stiffening at leading order (an atom
    moving off-axis recedes from the ion) while the axial one softens;
    the ion-following A10 terms enter both, including a transverse
    6*(A10_j - A10_ab) piece that cancels for identical states.  ``z0``
    may be an ndarray; every field then has its shape.
    """
    return EffectiveFrequencies(*_frequency_squares(_terms(config), z0))


@dataclass(frozen=True)
class QuadraticForm:
    """Second-order expansion of the effective potential, J / SI powers.

    Coordinates are ordered (x, y, z, X, Y, Z): lowercase relative,
    uppercase center of mass, both scaled by 1/sqrt(2) and measured from
    the trap centers.  The Hessian couples only the (x, X), (y, Y) and
    (z, Z) pairs; transverse and axial blocks never mix.
    """

    constant: float
    linear: np.ndarray   # 6-vector, J/m
    hessian: np.ndarray  # 6x6 symmetric, J/m^2


def quadratic_potential(config: SystemConfig, z0: float,
                        mu: IonModeIndex | None = None) -> QuadraticForm:
    """Assemble the quadratic form of the effective potential at z0."""
    if mu is None:
        mu = config.ion_mode
    co = expansion_coefficients(config, z0=z0, mu=mu)
    fr = effective_frequencies(config, z0)
    m_a = config.atom.mass

    linear = np.zeros(6)
    linear[2] = m_a * z0 * (fr.Omega_1_sq + fr.Omega_2_sq) / _SQRT2
    linear[5] = m_a * z0 * (fr.Omega_1_sq - fr.Omega_2_sq) / _SQRT2

    hessian = np.zeros((6, 6))
    delta_rho = 0.5 * (fr.omega_bar_rho1_sq - fr.omega_bar_rho2_sq)
    delta_z = 0.5 * (fr.omega_bar_z1_sq - fr.omega_bar_z2_sq)
    for k in (0, 1):  # x and y blocks are identical
        hessian[k, k] = m_a * (fr.omega_prime_rho_sq + fr.omega_xy_sq)
        hessian[k + 3, k + 3] = m_a * (fr.omega_prime_rho_sq - fr.omega_xy_sq)
        hessian[k, k + 3] = hessian[k + 3, k] = m_a * delta_rho
    hessian[2, 2] = m_a * (fr.omega_prime_z_sq - fr.omega_zz_sq)
    hessian[5, 5] = m_a * (fr.omega_prime_z_sq + fr.omega_zz_sq)
    hessian[2, 5] = hessian[5, 2] = m_a * delta_z

    return QuadraticForm(constant=co.E0_bar, linear=linear, hessian=hessian)
