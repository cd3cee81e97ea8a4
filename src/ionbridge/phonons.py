"""Phonon normal modes of the atom pair, the stability threshold, and the
axial equilibrium shift.

Both the axial and the transverse sector reduce to a symmetric 2x2 form
in the scaled relative/center-of-mass coordinates, whose eigenvectors
label the branches.  Eigenvalues are signed squared frequencies; a
negative value marks an unstable (in practice collisional)
configuration.  The critical separation is the bisection root of the
smallest squared frequency.  The axial block in atom coordinates,
[[omega_bar_z1^2, omega_zz^2], [omega_zz^2, omega_bar_z2^2]], gives the
equilibrium shift and the Gaussian ground state of ``motion``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InstabilityError, NotBracketedError
from .expansion import _frequency_squares, _terms
from .model import SystemConfig, require_valid

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


def _diagonalize_sector(a, b, c, bare_sq):
    """Eigenpairs of [[a, c], [c, b]] in the (relative, com) basis, elementwise.

    ``a`` is the relative-relative entry.  The mixing angle is clamped
    to (-pi/4, pi/4] so the first eigenvector stays mostly relative; at
    an even weight split the branch closest to ``bare_sq`` is "com".
    Returns (stretch, com, angle, com_first): the signed squares, their
    angle, and where com sorts first (the relative eigenvector on ties).
    """
    mean = 0.5 * (a + b)
    disc = np.hypot(0.5 * (a - b), c)
    theta = 0.5 * np.arctan2(2.0 * c, a - b)
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
    rel_is_com = tie & (np.abs(lam_rel - bare_sq) <= np.abs(lam_com - bare_sq))
    stretch = np.where(rel_is_com, lam_com, lam_rel)
    com = np.where(rel_is_com, lam_rel, lam_com)
    com_first = (com < stretch) | ((com == stretch) & rel_is_com)
    return stretch, com, theta, com_first


def _sector_entries(squares):
    """Entries (a, b, c) of each sector's form from the EffectiveFrequencies
    fields ``squares``, every one an (axial, transverse) pair."""
    wbr1, wbr2, wbz1, wbz2, wpr, wpz, wxy, wzz, _, _ = squares
    return ((wpz - wzz, wpr + wxy), (wpz + wzz, wpr - wxy),
            (0.5 * (wbz1 - wbz2), 0.5 * (wbr1 - wbr2)))


def _branches(t, z0):
    """The EffectiveFrequencies fields at half-separations z0, and
    ``_diagonalize_sector`` of both sectors there: each of its results has
    shape (2,) + shape(z0), axial first.  z0 is an ndarray, or a float
    whose powers stay in the float range (``critical_separation``'s, in
    its bracket).  Beyond the float range of z0^12 every correction is 0
    and the bare trap remains.  ConfigError when the branches leave the
    float range; the force scales Omega_j^2 share their terms with
    omega_bar_zj^2, so they are finite too."""
    with np.errstate(all="ignore"):
        squares = _frequency_squares(t, z0)
        a, b, c = (np.array(pair) for pair in _sector_entries(squares))
        bare = np.reshape([t.w_az_sq, t.w_ar_sq], (2,) + (1,) * np.ndim(z0))
        branches = _diagonalize_sector(a, b, c, bare)
    if not np.all(np.isfinite(branches[:3])):
        raise ConfigError("the quadratic expansion leaves the float range between "
                          f"2z0 = {2.0 * np.min(z0):.3g} and {2.0 * np.max(z0):.3g} m")
    return squares, branches


def _expansion_at(config: SystemConfig, z0: float):
    """``_branches`` of a configuration at one half-separation z0, with the
    EffectiveFrequencies fields as Python floats and branches of shape (2,);
    ConfigError unless z0 is positive and finite."""
    if not 0.0 < z0 < math.inf:
        raise ConfigError(f"half-separation must be positive and finite, got {z0}")
    squares, branches = _branches(_terms(config), np.float64(z0))
    return tuple(map(float, squares)), branches


def phonon_spectrum(config: SystemConfig, z0: float) -> PhononSpectrum:
    """Normal modes of the quadratic expansion at half-separation z0."""
    _, (stretch, com, angle, com_first) = _expansion_at(config, z0)
    pairs = []
    for k in range(2):
        s = ModeBranch(float(stretch[k]), float(angle[k]), "stretch")
        m = ModeBranch(float(com[k]), float(angle[k]), "com")
        pairs.append((m, s) if com_first[k] else (s, m))
    return PhononSpectrum(axial=pairs[0], transverse=pairs[1],
                          stable=bool(np.all(stretch > 0.0) and np.all(com > 0.0)))


def _min_omega_sq(t, separation: float) -> float:
    """Smallest squared mode frequency at one separation, from ``_terms``:
    the lower of mean - hypot over the two sectors, in Python floats."""
    (a_ax, a_tr), (b_ax, b_tr), (c_ax, c_tr) = _sector_entries(
        _frequency_squares(t, 0.5 * separation))
    return min(0.5 * (a_ax + b_ax) - math.hypot(0.5 * (a_ax - b_ax), c_ax),
               0.5 * (a_tr + b_tr) - math.hypot(0.5 * (a_tr - b_tr), c_tr))


def critical_separation(config: SystemConfig) -> StabilityResult:
    """Bisection root of the smallest squared mode frequency over 2z0.

    The root is searched between 2z0 = 1 um and 40 um, a fixed bracket;
    NotBracketedError when the smallest squared frequency does not change
    sign there.  The bracket is resolved to 1e-13 m (far below the 1 nm
    reporting precision) so that the spectrum is guaranteed stable at
    critical*(1 + 1e-6) and unstable at critical*(1 - 1e-6).
    """
    require_valid(config)
    t = _terms(config)
    lo, hi = 1e-6, 40e-6
    f_lo = _min_omega_sq(t, lo)
    f_hi = _min_omega_sq(t, hi)
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
        if _min_omega_sq(t, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)

    # The lower branch of the softer sector, axial on a tie.
    _, (stretch, com, _, com_first) = _branches(t, 0.5 * critical * (1.0 - 1e-6))
    k = int(min(stretch[1], com[1]) < min(stretch[0], com[0]))
    branch = f"{('axial', 'transverse')[k]}-{'com' if com_first[k] else 'stretch'}"
    return StabilityResult(critical_2z0=critical, limiting_branch=branch)


def mode_sweep(config: SystemConfig, separations) -> dict[str, np.ndarray]:
    """Phonon spectra over a monotone grid of full separations 2z0, SI."""
    separations = np.asarray(separations, dtype=float)
    if separations.size < 1 or np.any(separations <= 0.0):
        raise ConfigError("separation grid must be positive and non-empty")
    steps = np.diff(separations)
    if steps.size and not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise ConfigError("separation grid must be monotone")

    _, (stretch, com, angle, _) = _branches(_terms(config), 0.5 * separations)
    return {
        "separation": separations.copy(),
        "axial_stretch_sq": stretch[0],
        "axial_com_sq": com[0],
        "transverse_stretch_sq": stretch[1],
        "transverse_com_sq": com[1],
        "axial_angle": angle[0],
        "transverse_angle": angle[1],
        "stable": np.all((stretch > 0.0) & (com > 0.0), axis=0),
    }


def _axial_block(squares) -> np.ndarray:
    """The axial block of the expansion in atom coordinates (z1, z2),
    [[omega_bar_z1^2, omega_zz^2], [omega_zz^2, omega_bar_z2^2]], rad^2/s^2,
    from the EffectiveFrequencies fields ``squares``."""
    _, _, wbz1, wbz2, _, _, _, wzz, _, _ = squares
    return np.array([[wbz1, wzz], [wzz, wbz2]])


def _axial_shift(squares, z0: float) -> tuple[float, float]:
    """Solution (dz1, dz2) of ``_axial_block`` d = (-z0 Omega_1^2, z0 Omega_2^2)
    by Cramer's rule, m: the force per unit mass at the trap centers.
    InstabilityError unless the block is positive definite."""
    _, _, a, b, _, _, _, c, o1_sq, o2_sq = squares
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
    ion; for identical states the shifts are exactly opposite.
    """
    squares, _ = _expansion_at(config, z0)
    return _axial_shift(squares, z0)
