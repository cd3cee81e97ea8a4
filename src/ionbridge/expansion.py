"""Quadratic expansion of the effective two-atom potential around the trap centers.

The expansion is carried out in the trap-centered (primed) coordinates.
``effective_frequencies`` gives its closed-form frequency scales: the
per-atom curvatures, the two-atom couplings and the linear-force scales.
Each formula is written once, in one of three pieces (axial, transverse
and force) that every caller composes, so a caller computes only the
pieces it reads.  ``phonons`` assembles them into the axial block in
atom coordinates and the relative/center-of-mass sector forms.  All
frequency corrections are stored as signed squares so the stability
search can bracket sign changes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import SystemConfig

__all__ = [
    "EffectiveFrequencies",
    "effective_frequencies",
]

# The z0-independent factors of the expansion for one configuration.  The
# subscripts of the A coefficients name the inverse power of z0 each term
# multiplies in the frequency corrections; _1/_2 refer to the per-atom C4
# values and _ab to the cross product C4_1 * C4_2.  A4 and A6 carry
# m^6/s^2, A10 and A12 m^12/s^2.  Then C6 (J m^6), the atom mass (kg) and
# the atom trap squares (rad^2/s^2).  ``_pieces`` combines them into the
# products its formulas divide.
_Terms = namedtuple("_Terms", ["A12_1", "A12_2", "A12_ab", "A10_1", "A10_2", "A10_ab",
                               "A6_1", "A6_2", "A4_1", "A4_2",
                               "c6", "m_a", "w_ar_sq", "w_az_sq"])


def _terms(config: SystemConfig) -> _Terms:
    """The ``_Terms`` of a configuration; ConfigError when one of them
    leaves the float range."""
    try:
        c4_1, c4_2 = config.c4_pair
        m_a, m_i = config.atom.mass, config.ion.mass
        w_ir_sq, w_iz_sq = config.ion_trap.radial**2, config.ion_trap.axial**2
        t = _Terms(16.0 * c4_1**2 / (m_a * m_i * w_ir_sq),      # A12_1, A12_2, A12_ab
                   16.0 * c4_2**2 / (m_a * m_i * w_ir_sq),
                   16.0 * c4_1 * c4_2 / (m_a * m_i * w_ir_sq),
                   16.0 * c4_1**2 / (m_a * m_i * w_iz_sq),      # A10_1, A10_2, A10_ab
                   16.0 * c4_2**2 / (m_a * m_i * w_iz_sq),
                   16.0 * c4_1 * c4_2 / (m_a * m_i * w_iz_sq),
                   4.0 * c4_1 / m_a, 4.0 * c4_2 / m_a,          # A6_1, A6_2
                   2.0 * c4_1 / m_a, 2.0 * c4_2 / m_a,          # A4_1, A4_2
                   config.c6_pair, m_a, config.atom_trap.radial**2, config.atom_trap.axial**2)
    except (OverflowError, ZeroDivisionError):
        t = None
    if t is None or not all(map(math.isfinite, t)):
        raise ConfigError("the configured masses, trap frequencies, C4 or C6 put the "
                          "expansion coefficients out of the float range")
    return t


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


def _reals(value, rule: str) -> np.ndarray:
    """``np.asarray(value)``; ConfigError "{rule}, got {value!r}" for a ragged
    sequence or a dtype other than bool, int or float (strings, bytes,
    None, objects, complex)."""
    try:
        array = np.asarray(value)
    except ValueError:   # a ragged sequence
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise ConfigError(f"{rule}, got {value!r}")
    return array


def _axis(value, rule: str) -> np.ndarray:
    """``value`` as a 1-D float64 array; ConfigError "{rule}, got {value!r}"
    unless ``_reals`` takes it and it has one dimension."""
    array = _reals(value, rule)
    if array.ndim != 1:
        raise ConfigError(f"{rule}, got {value!r}")
    return np.asarray(array, dtype=float)


def _one_real(z0) -> float:
    """``z0`` as a Python float; ConfigError unless numpy takes it as one real
    number: not a string, None, a list or an array with ndim > 0."""
    rule = "half-separation must be one real number"
    value = _reals(z0, rule)
    if value.ndim:
        raise ConfigError(f"{rule}, got {z0!r}")
    return float(value)


def _half_separation(z0):
    """``z0`` in float64; ConfigError unless every half-separation in it is positive and finite."""
    z0 = np.float64(_reals(z0, "half-separation must be real numbers"))
    if not np.all((0.0 < z0) & (z0 < math.inf)):
        raise ConfigError(f"half-separation must be positive and finite, got {z0}")
    return z0


def _pieces(t: _Terms):
    """The EffectiveFrequencies fields of ``t`` in three pieces, as closures
    (powers, axial, transverse, force) over its terms and the products of
    them that the formulas divide.  powers(z0) gives (z0^6, z0^12,
    128 m_a z0^8); from those, axial gives (omega_bar_z1^2, omega_bar_z2^2,
    omega_prime_z^2, omega_zz^2), transverse the rho and xy ones in that
    order, and force (Omega_1^2, Omega_2^2).  Only + - * / and ** act on
    z0, so it may be a float or an ndarray.  A product that overflows is
    inf, and the caller's range check reports it."""
    (A12_1, A12_2, A12_ab, A10_1, A10_2, A10_ab, A6_1, A6_2, A4_1, A4_2, c6, m_a,
     w_ar_sq, w_az_sq) = t
    # the A10 numerators of omega_bar_rhoj^2, the A4 and A10 ones of
    # omega_bar_zj^2 and omega_zz^2, and those of Omega_j^2
    rho10_1, rho10_2 = 6.0 * (A10_1 - A10_ab), 6.0 * (A10_2 - A10_ab)
    z10_1, z10_2 = 55.0 * A10_1 - 30.0 * A10_ab, 55.0 * A10_2 - 30.0 * A10_ab
    force10_1, force10_2 = 5.0 * (A10_1 - A10_ab), 5.0 * (A10_2 - A10_ab)
    z4_1, z4_2, force4_1, force4_2 = 10.0 * A4_1, 10.0 * A4_2, 2.0 * A4_1, 2.0 * A4_2
    zz10, c6x3, c6x21, m_ax128 = -25.0 * A10_ab, 3.0 * c6, 21.0 * c6, 128.0 * m_a

    def powers(z0):
        return z0**6, z0**12, m_ax128 * z0**8

    def axial(z6, z12, c6_den):
        c6_z = c6x21 / c6_den
        wbz1 = w_az_sq - z4_1 / z6 - z10_1 / z12 - c6_z
        wbz2 = w_az_sq - z4_2 / z6 - z10_2 / z12 - c6_z
        return wbz1, wbz2, 0.5 * (wbz1 + wbz2), zz10 / z12 + c6_z

    def transverse(z6, z12, c6_den):
        c6_rho = c6x3 / c6_den
        wbr1 = w_ar_sq + A6_1 / z6 - A12_1 / z12 + rho10_1 / z12 + c6_rho
        wbr2 = w_ar_sq + A6_2 / z6 - A12_2 / z12 + rho10_2 / z12 + c6_rho
        return wbr1, wbr2, 0.5 * (wbr1 + wbr2), A12_ab / z12 + c6_rho

    def force(z6, z12, c6_den):
        c6_rho = c6x3 / c6_den
        return (force4_1 / z6 + force10_1 / z12 + 2.0 * c6_rho,
                force4_2 / z6 + force10_2 / z12 + 2.0 * c6_rho)

    return powers, axial, transverse, force


def effective_frequencies(config: SystemConfig, z0) -> EffectiveFrequencies:
    """Closed-form frequency corrections of the quadratic expansion at z0.

    The transverse correction is stiffening at leading order (an atom
    moving off-axis recedes from the ion) while the axial one softens;
    the ion-following A10 terms enter both, including a transverse
    6*(A10_j - A10_ab) piece that cancels for identical states.  ``z0``
    may be an ndarray; every field then has its shape.  It is taken in
    float64, so beyond the float range of z0^12 every correction is 0
    and the bare trap remains.  ConfigError unless every z0 is positive
    and finite, or when a field leaves the float range.
    """
    z0 = _half_separation(z0)
    with np.errstate(all="ignore"):
        powers, axial, transverse, force = _pieces(_terms(config))
        p = powers(z0)
        wbz1, wbz2, wpz, wzz = axial(*p)
        wbr1, wbr2, wpr, wxy = transverse(*p)
        squares = (wbr1, wbr2, wbz1, wbz2, wpr, wpz, wxy, wzz) + force(*p)
    if not np.all(np.isfinite(squares)):
        raise ConfigError("the quadratic expansion leaves the float range between "
                          f"2z0 = {2.0 * np.min(z0):.3g} and {2.0 * np.max(z0):.3g} m")
    return EffectiveFrequencies(*squares)
