"""Reference implementations the library replaced, kept as test oracles.

Each one is the former per-point code path, written with Python floats
and libm (``math``), so a test can compare the array kernels with it:
the scalar expansion and 2x2 sector diagonalisation, the phonon
spectrum and sweep built on them, the critical-separation bisection,
the loop segments, the Berry-phase line integral and the path-ordered
Wilson product.
The unexpanded ion potential and its finite-difference minimizer check
the closed-form ion displacement.
"""

import math

import numpy as np
from scipy.linalg import expm

from ionbridge import (
    AccuracyError,
    AtomPairGeometry,
    EffectiveFrequencies,
    NotBracketedError,
    SingularGeometryError,
    characteristic_scales,
    connection_matrix,
    constants as cst,
)
from ionbridge.gauge import _jacobian, _ladder_derivatives
from ionbridge.model import require_valid
from ionbridge.phonons import _TIE_WEIGHT, ModeBranch, PhononSpectrum
from ionbridge.potentials import _squared_distances


def diagonalize_sector(a, b, c, bare_sq):
    """Eigenpairs of [[a, c], [c, b]] in the (relative, com) basis, one point.

    The mixing angle is clamped to (-pi/4, pi/4]; at an even weight
    split the branch closest to ``bare_sq`` is labeled "com".  Returns
    the two ModeBranch objects sorted by squared frequency.
    """
    if c == 0.0:
        rel = (a, 0.0)
        com = (b, 0.0)
        theta = 0.0
    else:
        mean = 0.5 * (a + b)
        disc = math.hypot(0.5 * (a - b), c)
        theta = 0.5 * math.atan2(2.0 * c, a - b)
        if theta > 0.25 * math.pi:
            theta -= 0.5 * math.pi
            lam_rel, lam_com = mean - disc, mean + disc
        elif theta <= -0.25 * math.pi:
            theta += 0.5 * math.pi
            lam_rel, lam_com = mean - disc, mean + disc
        else:
            lam_rel, lam_com = mean + disc, mean - disc
        rel = (lam_rel, theta)
        com = (lam_com, theta)

    com_weight = math.sin(theta) ** 2
    if abs(com_weight - 0.5) >= _TIE_WEIGHT:
        branches = [ModeBranch(rel[0], rel[1], "stretch"),
                    ModeBranch(com[0], com[1], "com")]
    else:
        if abs(rel[0] - bare_sq) <= abs(com[0] - bare_sq):
            branches = [ModeBranch(rel[0], rel[1], "com"),
                        ModeBranch(com[0], com[1], "stretch")]
        else:
            branches = [ModeBranch(rel[0], rel[1], "stretch"),
                        ModeBranch(com[0], com[1], "com")]
    branches.sort(key=lambda mode: mode.omega_sq)
    return branches[0], branches[1]


def effective_frequencies(config, z0):
    """EffectiveFrequencies at one half-separation, in Python floats."""
    c4_1, c4_2 = config.c4_pair
    c6 = config.c6_pair
    m_a = config.atom.mass
    m_i = config.ion.mass
    w_ir_sq = config.ion_trap.radial**2
    w_iz_sq = config.ion_trap.axial**2
    a12_1 = 16.0 * c4_1**2 / (m_a * m_i * w_ir_sq)
    a12_2 = 16.0 * c4_2**2 / (m_a * m_i * w_ir_sq)
    a12_ab = 16.0 * c4_1 * c4_2 / (m_a * m_i * w_ir_sq)
    a10_1 = 16.0 * c4_1**2 / (m_a * m_i * w_iz_sq)
    a10_2 = 16.0 * c4_2**2 / (m_a * m_i * w_iz_sq)
    a10_ab = 16.0 * c4_1 * c4_2 / (m_a * m_i * w_iz_sq)
    a6_1 = 4.0 * c4_1 / m_a
    a6_2 = 4.0 * c4_2 / m_a
    a4_1 = 2.0 * c4_1 / m_a
    a4_2 = 2.0 * c4_2 / m_a

    z6 = z0**6
    z12 = z0**12
    c6_rho = 3.0 * c6 / (128.0 * m_a * z0**8)
    c6_z = 21.0 * c6 / (128.0 * m_a * z0**8)
    w_ar_sq = config.atom_trap.radial**2
    w_az_sq = config.atom_trap.axial**2

    def rho_sq(a6, a12, a10):
        return w_ar_sq + a6 / z6 - a12 / z12 + 6.0 * (a10 - a10_ab) / z12 + c6_rho

    def z_sq(a4, a10):
        return w_az_sq - 10.0 * a4 / z6 - (55.0 * a10 - 30.0 * a10_ab) / z12 - c6_z

    wbr1 = rho_sq(a6_1, a12_1, a10_1)
    wbr2 = rho_sq(a6_2, a12_2, a10_2)
    wbz1 = z_sq(a4_1, a10_1)
    wbz2 = z_sq(a4_2, a10_2)
    return EffectiveFrequencies(
        omega_bar_rho1_sq=wbr1,
        omega_bar_rho2_sq=wbr2,
        omega_bar_z1_sq=wbz1,
        omega_bar_z2_sq=wbz2,
        omega_prime_rho_sq=0.5 * (wbr1 + wbr2),
        omega_prime_z_sq=0.5 * (wbz1 + wbz2),
        omega_xy_sq=a12_ab / z12 + c6_rho,
        omega_zz_sq=-25.0 * a10_ab / z12 + c6_z,
        Omega_1_sq=2.0 * a4_1 / z6 + 5.0 * (a10_1 - a10_ab) / z12 + 2.0 * c6_rho,
        Omega_2_sq=2.0 * a4_2 / z6 + 5.0 * (a10_2 - a10_ab) / z12 + 2.0 * c6_rho,
    )


def phonon_spectrum(config, z0):
    """Normal modes at one half-separation, from the scalar expansion."""
    fr = effective_frequencies(config, float(z0))
    axial = diagonalize_sector(
        fr.omega_prime_z_sq - fr.omega_zz_sq,
        fr.omega_prime_z_sq + fr.omega_zz_sq,
        0.5 * (fr.omega_bar_z1_sq - fr.omega_bar_z2_sq),
        config.atom_trap.axial**2,
    )
    transverse = diagonalize_sector(
        fr.omega_prime_rho_sq + fr.omega_xy_sq,
        fr.omega_prime_rho_sq - fr.omega_xy_sq,
        0.5 * (fr.omega_bar_rho1_sq - fr.omega_bar_rho2_sq),
        config.atom_trap.radial**2,
    )
    stable = all(mode.omega_sq > 0.0 for mode in axial + transverse)
    return PhononSpectrum(axial=axial, transverse=transverse, stable=stable)


def mode_sweep(config, separations):
    """``mode_sweep`` columns, one scalar spectrum per separation."""
    rows = []
    for sep in separations:
        spec = phonon_spectrum(config, 0.5 * sep)
        rows.append((spec.branch("axial", "stretch").omega_sq,
                     spec.branch("axial", "com").omega_sq,
                     spec.branch("transverse", "stretch").omega_sq,
                     spec.branch("transverse", "com").omega_sq,
                     spec.axial[0].mixing_angle,
                     spec.transverse[0].mixing_angle,
                     spec.stable))
    names = ("axial_stretch_sq", "axial_com_sq", "transverse_stretch_sq",
             "transverse_com_sq", "axial_angle", "transverse_angle", "stable")
    return {name: np.array(column) for name, column in zip(names, zip(*rows))}


def min_omega_sq(config, separation):
    """Smallest squared mode frequency at one full separation."""
    spec = phonon_spectrum(config, 0.5 * separation)
    return min(mode.omega_sq for mode in spec.axial + spec.transverse)


def critical_separation(config):
    """Bisection of the smallest squared frequency between 1 and 40 um to
    1e-13 m, then the limiting branch at critical * (1 - 1e-6):
    (critical_2z0, label)."""
    require_valid(config)
    lo, hi = 1e-6, 40e-6
    f_lo = min_omega_sq(config, lo)
    f_hi = min_omega_sq(config, hi)
    if not (f_lo < 0.0 < f_hi):
        raise NotBracketedError("no stability threshold inside the bracket",
                                f_lo=f_lo, f_hi=f_hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if min_omega_sq(config, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)

    spec = phonon_spectrum(config, 0.5 * critical * (1.0 - 1e-6))
    worst = None
    for sector in ("axial", "transverse"):
        for mode in getattr(spec, sector):
            if worst is None or mode.omega_sq < worst[0]:
                worst = (mode.omega_sq, f"{sector}-{mode.character}")
    return critical, worst[1]


def segments(loop, subdivide=1):
    """(midpoint, delta) pairs of a LoopPath, each waypoint leg cut into
    ``subdivide`` pieces."""
    out = []
    w = loop.waypoints
    for k in range(w.shape[0] - 1):
        start, end = w[k], w[k + 1]
        for piece in range(subdivide):
            lo = start + (end - start) * (piece / subdivide)
            hi = start + (end - start) * ((piece + 1) / subdivide)
            out.append((0.5 * (lo + hi), hi - lo))
    return out


def diagonal_integral(loop, mode, config, subdivide):
    """Midpoint-rule line integral of the diagonal connection of ``mode``
    around ``loop``, divided by hbar: the Berry phase, rad."""
    mids, deltas = (np.array(part) for part in zip(*segments(loop, subdivide)))
    _squared_distances(mids[:, 0], mids[:, 1])
    ladders = _ladder_derivatives([mode], config)[:, 0, 0]
    total = 0.0j
    for j in (0, 1):
        jac = _jacobian(mids[:, j], config.c4_pair[j], config)
        element = -1j * cst.HBAR * np.einsum("sab,a->sb", jac, ladders)
        total += np.sum(element * deltas[:, j])
    return float(total.real) / cst.HBAR


def path_ordered_transport(loop, modes, config, subdivide):
    """Product of exp(-i A . dr / hbar) over the path with each leg cut
    into ``subdivide`` pieces, later factors applied on the left, with A
    taken at each piece's midpoint (complex)."""
    transport = np.eye(len(modes), dtype=complex)
    for mid, delta in segments(loop, subdivide):
        geometry = AtomPairGeometry(mid[0], mid[1])
        step = np.zeros((len(modes), len(modes)), dtype=complex)
        for atom_index in (1, 2):
            matrix = connection_matrix(modes, atom_index, geometry, config)
            step += np.tensordot(matrix, delta[atom_index - 1], axes=([2], [0]))
        transport = expm(-1j * step / cst.HBAR) @ transport
    return transport


def exact_ion_potential(r_i, geometry, config):
    """Unexpanded ion potential at ion position ``r_i``, J.

    Harmonic ion trap plus the two -C4/r^4 attractions; the atom-atom
    term does not involve the ion and is excluded.
    """
    r_i = np.asarray(r_i, dtype=float)
    c4_1, c4_2 = config.c4_pair
    d1_sq = float(np.dot(r_i - geometry.r1, r_i - geometry.r1))
    d2_sq = float(np.dot(r_i - geometry.r2, r_i - geometry.r2))
    if d1_sq == 0.0 or d2_sq == 0.0:
        raise SingularGeometryError("ion coordinate coincides with an atom")

    trap = config.ion_trap
    harmonic = 0.5 * config.ion.mass * (
        trap.radial**2 * (r_i[0]**2 + r_i[1]**2) + trap.axial**2 * r_i[2]**2
    )
    return harmonic - c4_1 / d1_sq**2 - c4_2 / d2_sq**2


def _fd_gradient(f, x, h):
    g = np.zeros(3)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        g[a] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _fd_hessian(f, x, h):
    hess = np.zeros((3, 3))
    f0 = f(x)
    for a in range(3):
        ea = np.zeros(3)
        ea[a] = h
        hess[a, a] = (f(x + ea) - 2.0 * f0 + f(x - ea)) / h**2
        for b in range(a + 1, 3):
            eb = np.zeros(3)
            eb[b] = h
            mixed = (f(x + ea + eb) - f(x + ea - eb)
                     - f(x - ea + eb) + f(x - ea - eb)) / (4.0 * h**2)
            hess[a, b] = hess[b, a] = mixed
    return hess


def oracle_min_ion_energy(geometry, config, max_iter=500):
    """Damped-Newton minimization of the unexpanded ion potential.

    Starts at the origin and iterates with finite-difference derivatives
    until the energy is stationary to 1e-12 relative.  Returns the
    minimum energy and its position; the position must agree with
    ``ion_displacement`` up to second-order corrections.
    """
    scales = characteristic_scales(config)
    for r in (geometry.r1, geometry.r2):
        if np.linalg.norm(r) <= 10.0 * scales.L_i:
            raise ValueError("atoms too close to the ion trap center for the oracle")

    def f(x):
        return exact_ion_potential(x, geometry, config)

    h = 1e-3 * scales.L_i
    x = np.zeros(3)
    energy = f(x)
    for _ in range(max_iter):
        g = _fd_gradient(f, x, h)
        hess = _fd_hessian(f, x, h)
        try:
            step = -np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            step = -g * (h / max(np.linalg.norm(g), 1e-300))
        # Backtracking keeps the iterate inside the trap-dominated well.
        scale = 1.0
        for _ in range(40):
            e_new = f(x + scale * step)
            if e_new <= energy:
                break
            scale *= 0.5
        else:
            e_new = energy
            scale = 0.0
        x = x + scale * step
        done = abs(e_new - energy) <= 1e-12 * max(abs(e_new), abs(energy))
        energy = e_new
        if done:
            return energy, x
    raise AccuracyError(f"ion-energy minimization did not converge in {max_iter} iterations")
