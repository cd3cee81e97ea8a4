"""Phonon normal modes of the atom pair, the stability threshold, and the
axial equilibrium shift.

Both the axial and the transverse sector reduce to a symmetric 2x2 form
in the scaled relative/center-of-mass coordinates, whose eigenvectors
label the branches.  Eigenvalues are signed squared frequencies; a
negative value marks an unstable (in practice collisional)
configuration.  The critical separation is the bisection root of the
smallest squared frequency, found and labeled on Python floats by scalar
twins of the array kernel; each step needs only its sign, and forms the
transverse sector only where the axial lower eigenvalue is at least 0.
``_lower_branch`` gives the label's value and character in one pass.
Each caller composes the ``expansion`` pieces it reads: the sweep forms
no force scale.  The axial block in atom coordinates,
[[omega_bar_z1^2, omega_zz^2], [omega_zz^2, omega_bar_z2^2]], gives the
equilibrium shift, and ``_rotation`` the Gaussian ground state of ``motion``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InstabilityError, NotBracketedError
from .expansion import _axis, _half_separation, _one_real, _pieces, _terms
from .model import SystemConfig

__all__ = [
    "ModeBranch",
    "PhononSpectrum",
    "StabilityResult",
    "phonon_spectrum",
    "critical_separation",
    "mode_sweep",
    "equilibrium_shift",
]

# Eigenvector weights this close to an even stretch/com mixture carry no
# label information; fall back to comparing against the bare trap value.
_TIE_WEIGHT = 1e-6


@dataclass(frozen=True)
class ModeBranch:
    """One normal mode: signed squared frequency, mixing angle from the
    (relative, com) basis, and its stretch/com character."""

    omega_sq: float       # rad^2/s^2, signed
    mixing_angle: float   # rad, in (-pi/4, pi/4]
    character: str        # "stretch" or "com"


@dataclass(frozen=True)
class PhononSpectrum:
    """Axial and transverse mode pairs, each sorted by squared frequency."""

    axial: tuple[ModeBranch, ModeBranch]
    transverse: tuple[ModeBranch, ModeBranch]
    stable: bool

    def branch(self, sector: str, character: str) -> ModeBranch:
        pair = getattr(self, sector)
        for mode in pair:
            if mode.character == character:
                return mode
        raise KeyError(f"no {character} branch in {sector}")


@dataclass(frozen=True)
class StabilityResult:
    critical_2z0: float     # m
    limiting_branch: str    # e.g. "axial-com"


def _rotation(a, b, c):
    """(mean, disc, theta) of [[a, c], [c, b]], elementwise: eigenvalue
    mean + disc along (cos theta, sin theta) and mean - disc along
    (-sin theta, cos theta), with theta = atan2(2c, a - b) / 2 unclamped."""
    return 0.5 * (a + b), np.hypot(0.5 * (a - b), c), 0.5 * np.arctan2(2.0 * c, a - b)


def _diagonalize_sector(a, b, c, bare_sq):
    """Eigenpairs of [[a, c], [c, b]] in the (relative, com) basis, elementwise.

    ``a`` is the relative-relative entry.  The angle of ``_rotation`` is
    clamped to (-pi/4, pi/4] so the first eigenvector stays mostly
    relative; at an even weight split the branch closest to ``bare_sq`` is
    "com".  Returns (stretch, com, angle, com_first): the signed squares,
    their angle, and where com sorts first (the relative one on ties).
    """
    mean, disc, theta = _rotation(a, b, c)
    high = theta > 0.25 * np.pi
    low = theta <= -0.25 * np.pi
    flipped = high | low
    theta = np.where(high, theta - 0.5 * np.pi, np.where(low, theta + 0.5 * np.pi, theta))
    exact = c == 0.0
    theta = np.where(exact, 0.0, theta)
    lam_rel = np.where(exact, a, np.where(flipped, mean - disc, mean + disc))
    lam_com = np.where(exact, b, np.where(flipped, mean + disc, mean - disc))

    # Atom-local eigenvectors carry no label: compare with the bare trap.
    tie = np.abs(np.sin(theta) ** 2 - 0.5) < _TIE_WEIGHT
    if not tie.any():
        return lam_rel, lam_com, theta, lam_com < lam_rel
    rel_is_com = tie & (np.abs(lam_rel - bare_sq) <= np.abs(lam_com - bare_sq))
    stretch = np.where(rel_is_com, lam_com, lam_rel)
    com = np.where(rel_is_com, lam_rel, lam_com)
    com_first = (com < stretch) | ((com == stretch) & rel_is_com)
    return stretch, com, theta, com_first


def _axial_entries(wbz1, wbz2, wpz, wzz):
    """Entries (a, b, c) of the axial sector's form from the axial piece of
    ``expansion._pieces``."""
    return wpz - wzz, wpz + wzz, 0.5 * (wbz1 - wbz2)


def _transverse_entries(wbr1, wbr2, wpr, wxy):
    """Entries (a, b, c) of the transverse sector's form from the transverse
    piece of ``expansion._pieces``."""
    return wpr + wxy, wpr - wxy, 0.5 * (wbr1 - wbr2)


def _branches(t, z0):
    """``_diagonalize_sector`` of both sectors at half-separations z0, from
    the axial and transverse pieces (``expansion._pieces``) of ``_terms`` t:
    each of its results has shape (2,) + shape(z0), axial first.  z0 is
    ``mode_sweep``'s ndarray or a float64.  Beyond the float range of z0^12
    every correction is 0 and the bare trap remains.  ConfigError when the
    branches leave the float range."""
    powers, axial, transverse, _ = _pieces(t)
    with np.errstate(all="ignore"):
        p = powers(z0)
        a, b, c = (np.array(pair) for pair in zip(_axial_entries(*axial(*p)),
                                                  _transverse_entries(*transverse(*p))))
        bare = np.reshape([t.w_az_sq, t.w_ar_sq], (2,) + (1,) * np.ndim(z0))
        branches = _diagonalize_sector(a, b, c, bare)
    if not np.all(np.isfinite(branches[:3])):
        raise ConfigError("the quadratic expansion leaves the float range between "
                          f"2z0 = {2.0 * np.min(z0):.3g} and {2.0 * np.max(z0):.3g} m")
    return branches


def _expansion_at(config: SystemConfig, z0: float):
    """The axial and the force piece (``expansion._pieces``) of a
    configuration at one half-separation z0 in Python floats, and its
    ``_branches`` there, of shape (2,); ConfigError unless z0 is positive
    and finite.  The force scales Omega_j^2 share their terms with
    omega_bar_zj^2, so they are finite where the branches are."""
    t, z0 = _terms(config), _half_separation(z0)
    powers, axial, _, force = _pieces(t)
    with np.errstate(all="ignore"):
        p = powers(z0)
        pieces = tuple(map(float, axial(*p))), tuple(map(float, force(*p)))
    return pieces + (_branches(t, z0),)


def phonon_spectrum(config: SystemConfig, z0: float) -> PhononSpectrum:
    """Normal modes of the quadratic expansion at half-separation z0;
    ConfigError unless z0 is one positive and finite number."""
    stretch, com, angle, com_first = _branches(_terms(config), _half_separation(_one_real(z0)))
    pairs = []
    for k in range(2):
        s = ModeBranch(float(stretch[k]), float(angle[k]), "stretch")
        m = ModeBranch(float(com[k]), float(angle[k]), "com")
        pairs.append((m, s) if com_first[k] else (s, m))
    return PhononSpectrum(axial=pairs[0], transverse=pairs[1],
                          stable=bool(np.all(stretch > 0.0) and np.all(com > 0.0)))


def _lower_eigenvalue(a: float, b: float, c: float) -> float:
    """Lower eigenvalue of [[a, c], [c, b]] in Python floats: mean - hypot,
    or exactly min(a, b) where c == 0, as ``_diagonalize_sector`` takes it."""
    if c == 0.0:
        return min(a, b)
    return 0.5 * (a + b) - math.hypot(0.5 * (a - b), c)


def _lower_branch(a: float, b: float, c: float, bare_sq: float) -> tuple[float, str] | None:
    """(value, character) of the lower branch of [[a, c], [c, b]] in Python
    floats: ``_diagonalize_sector``'s com_first step by step, with ``math``
    for numpy.  The value equals ``_lower_eigenvalue``'s and the character
    is "com" or "stretch".  None unless both branches are finite (which
    needs finite entries), where ``_branches`` raises."""
    if c == 0.0:
        theta, lam_rel, lam_com = 0.0, a, b
    else:
        mean, disc = 0.5 * (a + b), math.hypot(0.5 * (a - b), c)
        theta = 0.5 * math.atan2(2.0 * c, a - b)
        if theta > 0.25 * math.pi:
            theta, lam_rel, lam_com = theta - 0.5 * math.pi, mean - disc, mean + disc
        elif theta <= -0.25 * math.pi:
            theta, lam_rel, lam_com = theta + 0.5 * math.pi, mean - disc, mean + disc
        else:
            lam_rel, lam_com = mean + disc, mean - disc
    if not (math.isfinite(lam_rel) and math.isfinite(lam_com)):
        return None

    # Atom-local eigenvectors carry no label: compare with the bare trap.
    rel_is_com = (abs(math.sin(theta) ** 2 - 0.5) < _TIE_WEIGHT
                  and abs(lam_rel - bare_sq) <= abs(lam_com - bare_sq))
    stretch, com = (lam_com, lam_rel) if rel_is_com else (lam_rel, lam_com)
    com_first = com < stretch or (com == stretch and rel_is_com)
    return (com, "com") if com_first else (stretch, "stretch")


def _scalar_sectors(t):
    """The stability search's closures over the ``expansion._pieces`` of
    ``_terms`` t, in Python floats.  sectors(z0) gives the (a, b, c, bare_sq)
    of the axial, then the transverse sector's form at a half-separation z0.
    unstable(separation) is the bisection step: whether the smaller of the
    sectors' ``_lower_eigenvalue`` is negative at a full separation, bit for
    bit, as min(axial, transverse) < 0 decides it.  The axial sector decides
    alone unless its lower eigenvalue is at least 0, and a NaN there is
    stable."""
    powers, axial, transverse, _ = _pieces(t)
    w_az_sq, w_ar_sq = t.w_az_sq, t.w_ar_sq

    def sectors(z0: float):
        p = powers(z0)
        return ((*_axial_entries(*axial(*p)), w_az_sq),
                (*_transverse_entries(*transverse(*p)), w_ar_sq))

    def unstable(separation: float) -> bool:
        z6, z12, c6_den = powers(0.5 * separation)
        a, b, c = _axial_entries(*axial(z6, z12, c6_den))
        lower = _lower_eigenvalue(a, b, c)
        if not lower >= 0.0:
            return lower < 0.0
        a, b, c = _transverse_entries(*transverse(z6, z12, c6_den))
        return _lower_eigenvalue(a, b, c) < 0.0

    return sectors, unstable


def critical_separation(config: SystemConfig) -> StabilityResult:
    """Bisection root over 2z0 of the smallest squared mode frequency, from
    the states' C4 and C6, the masses and the traps: z0 does not enter.

    The bracket, 2z0 = 1 um to 40 um, is resolved to 1e-13 m, so the spectrum
    is stable at critical*(1 + 1e-6) and unstable at critical*(1 - 1e-6);
    NotBracketedError when the smallest squared frequency does not change
    sign there.  The limiting branch is the lower branch of the softer sector
    at critical*(1 - 1e-6), axial on a tie, by ``_lower_branch``; a ConfigError
    as in ``_branches`` when the expansion leaves the float range there.  No
    numpy code runs, and the command line checks ``model.validate`` at load.
    """
    sectors, unstable = _scalar_sectors(_terms(config))
    lo, hi = 1e-6, 40e-6
    f_lo, f_hi = (min(_lower_eigenvalue(a, b, c) for a, b, c, _ in sectors(0.5 * end))
                  for end in (lo, hi))
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise ConfigError("the quadratic expansion leaves the float range in the "
                          f"bracket [{lo:.3g}, {hi:.3g}] m")
    if not (f_lo < 0.0 < f_hi):
        raise NotBracketedError(
            "no stability threshold inside the bracket: "
            f"min omega^2 = {f_lo:.6g} rad^2/s^2 at {lo:.3g} m and "
            f"{f_hi:.6g} rad^2/s^2 at {hi:.3g} m",
            f_lo=f_lo, f_hi=f_hi,
        )
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)

    # The lower branch of the softer sector, axial on a tie.
    z0 = 0.5 * critical * (1.0 - 1e-6)
    lower = [_lower_branch(*form) for form in sectors(z0)]
    if None in lower:
        raise ConfigError("the quadratic expansion leaves the float range between "
                          f"2z0 = {2.0 * z0:.3g} and {2.0 * z0:.3g} m")
    k = int(lower[1][0] < lower[0][0])
    return StabilityResult(critical_2z0=critical,
                           limiting_branch=f"{('axial', 'transverse')[k]}-{lower[k][1]}")


def mode_sweep(config: SystemConfig, separations) -> dict[str, np.ndarray]:
    """Phonon spectra over a monotone 1-D grid of full separations 2z0, SI;
    ConfigError unless the grid is non-empty, positive and finite."""
    grid = _axis(separations, "separation grid must be a 1-D sequence of real numbers")
    if grid.size < 1 or not np.all((grid > 0.0) & (grid < np.inf)):
        raise ConfigError("separation grid must be positive, finite and non-empty")
    steps = np.diff(grid)
    if steps.size and not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise ConfigError("separation grid must be monotone")

    stretch, com, angle, _ = _branches(_terms(config), 0.5 * grid)
    return {
        "separation": grid.copy(),
        "axial_stretch_sq": stretch[0],
        "axial_com_sq": com[0],
        "transverse_stretch_sq": stretch[1],
        "transverse_com_sq": com[1],
        "axial_angle": angle[0],
        "transverse_angle": angle[1],
        "stable": np.all((stretch > 0.0) & (com > 0.0), axis=0),
    }


def _axial_shift(axial, force, z0: float) -> tuple[float, float]:
    """Solution (dz1, dz2) of the axial block d = (-z0 Omega_1^2, z0 Omega_2^2)
    by Cramer's rule, m, from the axial and the force piece of
    ``expansion._pieces``: the force per unit mass at the trap centers;
    InstabilityError unless positive definite."""
    a, b, _, c = axial
    o1_sq, o2_sq = force
    det = a * b - c * c
    if not (a > 0.0 and det > 0.0):
        raise InstabilityError(
            f"axial sector unstable at 2z0 = {2.0 * z0:.4g} m, no equilibrium to solve for"
        )
    f1, f2 = -z0 * o1_sq, z0 * o2_sq
    return (f1 * b - c * f2) / det, (a * f2 - c * f1) / det


def equilibrium_shift(config: SystemConfig, z0: float) -> tuple[float, float]:
    """Axial equilibrium displacements (dz1, dz2) of the two atoms, m.

    Solves the stationarity condition of the quadratic expansion on its
    axial block in atom coordinates.  Both atoms are pulled toward the
    ion; for identical states the shifts are exactly opposite.  ConfigError
    unless z0 is one positive and finite number.
    """
    z0 = _one_real(z0)
    axial, force, _ = _expansion_at(config, z0)
    return _axial_shift(axial, force, z0)
