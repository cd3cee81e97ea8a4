"""Reference implementations the library replaced, kept as test oracles.

Each one is the former per-point code path, written with Python floats
and libm (``math``), so a test can compare the array kernels with it:
the scalar expansion and 2x2 sector diagonalisation, the phonon
spectrum and sweep built on them, the critical-separation bisection,
the loop segments, the one-pair connection element, the Berry-phase
line integral and the path-ordered Wilson product.
The unexpanded ion potential and its finite-difference minimizer check
the closed-form ion displacement, and ARPACK (``arpack_pair``) is a
second oracle for the library's Lanczos routine.  ``lowest_pair`` is the
pair solver over its whole basis, the tests' matrix-free counterpart of
the dense matrix.  ``block_action`` is the pair solver's former
operator: the interaction block applied through the whole node grid,
and ``mean_field_start`` its former Lanczos start, built on that grid.
``check_solve`` is the ground-state convergence check that the Temple
bound replaced: a second Lanczos solve on the n_max + 4 basis.
``branches`` is the former array kernel of the phonon modes, which formed
every EffectiveFrequencies field and ran the tie relabelling everywhere,
and ``axial_bo_curve`` the former curve loop, one ``_energy`` per pair;
the library's kernels must equal them byte for byte.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, eigsh

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
from ionbridge.motion import (
    _CONVERGENCE_STEP,
    _MEAN_FIELD_ITERATIONS,
    _MEAN_FIELD_ORBITALS,
    _mean_field_start,
    _pair_solver,
)
from ionbridge.expansion import _terms
from ionbridge.phonons import _TIE_WEIGHT, ModeBranch, PhononSpectrum, _rotation
from ionbridge.potentials import _energy, _squared_distances


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


def branches(config, z0):
    """The EffectiveFrequencies fields at half-separations z0 (an ndarray or
    a float64) and both sectors' (stretch, com, angle, com_first), each of
    shape (2,) + shape(z0), axial first: the array kernel as it was while it
    formed every field, force scales included, in one expression list and
    ran the tie relabelling whether or not any element was a tie."""
    (A12_1, A12_2, A12_ab, A10_1, A10_2, A10_ab, A6_1, A6_2, A4_1, A4_2, c6, m_a,
     w_ar_sq, w_az_sq) = _terms(config)
    rho10_1, rho10_2 = 6.0 * (A10_1 - A10_ab), 6.0 * (A10_2 - A10_ab)
    z4_1, z4_2 = 10.0 * A4_1, 10.0 * A4_2
    z10_1, z10_2 = 55.0 * A10_1 - 30.0 * A10_ab, 55.0 * A10_2 - 30.0 * A10_ab
    zz10 = -25.0 * A10_ab
    force4_1, force4_2 = 2.0 * A4_1, 2.0 * A4_2
    force10_1, force10_2 = 5.0 * (A10_1 - A10_ab), 5.0 * (A10_2 - A10_ab)
    c6x3, c6x21, m_ax128 = 3.0 * c6, 21.0 * c6, 128.0 * m_a
    with np.errstate(all="ignore"):
        z6 = z0**6
        z12 = z0**12
        c6_den = m_ax128 * z0**8
        c6_rho = c6x3 / c6_den
        c6_z = c6x21 / c6_den
        wbr1 = w_ar_sq + A6_1 / z6 - A12_1 / z12 + rho10_1 / z12 + c6_rho
        wbr2 = w_ar_sq + A6_2 / z6 - A12_2 / z12 + rho10_2 / z12 + c6_rho
        wbz1 = w_az_sq - z4_1 / z6 - z10_1 / z12 - c6_z
        wbz2 = w_az_sq - z4_2 / z6 - z10_2 / z12 - c6_z
        wpr, wpz = 0.5 * (wbr1 + wbr2), 0.5 * (wbz1 + wbz2)
        wxy, wzz = A12_ab / z12 + c6_rho, zz10 / z12 + c6_z
        squares = (wbr1, wbr2, wbz1, wbz2, wpr, wpz, wxy, wzz,
                   force4_1 / z6 + force10_1 / z12 + 2.0 * c6_rho,
                   force4_2 / z6 + force10_2 / z12 + 2.0 * c6_rho)
        a, b, c = (np.array(pair) for pair in ((wpz - wzz, wpr + wxy), (wpz + wzz, wpr - wxy),
                                               (0.5 * (wbz1 - wbz2), 0.5 * (wbr1 - wbr2))))
        bare = np.reshape([w_az_sq, w_ar_sq], (2,) + (1,) * np.ndim(z0))
        return squares, diagonalize_sectors(a, b, c, bare)


def diagonalize_sectors(a, b, c, bare_sq):
    """``phonons._diagonalize_sector`` with the tie relabelling run on every
    element, as it was before it skipped the relabelling where no element
    is a tie."""
    mean, disc, theta = _rotation(a, b, c)
    high = theta > 0.25 * np.pi
    low = theta <= -0.25 * np.pi
    flipped = high | low
    theta = np.where(high, theta - 0.5 * np.pi, np.where(low, theta + 0.5 * np.pi, theta))
    exact = c == 0.0
    theta = np.where(exact, 0.0, theta)
    lam_rel = np.where(exact, a, np.where(flipped, mean - disc, mean + disc))
    lam_com = np.where(exact, b, np.where(flipped, mean + disc, mean - disc))
    tie = np.abs(np.sin(theta) ** 2 - 0.5) < _TIE_WEIGHT
    rel_is_com = tie & (np.abs(lam_rel - bare_sq) <= np.abs(lam_com - bare_sq))
    stretch = np.where(rel_is_com, lam_com, lam_rel)
    com = np.where(rel_is_com, lam_rel, lam_com)
    com_first = (com < stretch) | ((com == stretch) & rel_is_com)
    return stretch, com, theta, com_first


def axial_bo_curve(z_grid, mu, config, placement="symmetric"):
    """``potentials.axial_bo_curve`` as it was while it took one ``_energy``
    per state pair, on a one-dimensional positive grid."""
    z_grid = np.asarray(z_grid, dtype=float)
    if placement == "symmetric":
        z1, z2 = 0.5 * z_grid, -0.5 * z_grid
    else:
        z2 = np.asarray(-config.half_separation_z0)
        z1 = z2 + z_grid
    distances = _squared_distances(z1, z2, np.square)
    e0 = mu.bare_energy(config.ion_trap)
    c4, c6 = config.coefficients.c4, config.coefficients.c6
    out = {"z": z_grid.copy()}
    for name, (a, b) in config.named_pairs().items():
        out["V_" + name] = _energy(e0, z1, z2, distances, c4(a), c4(b), c6(a, b), config) - e0
    return out


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


def gauge_element(bra, ket, atom_index, geometry, config):
    """Single connection element A_{bra,ket} for one atom, 3-vector J s/m."""
    modes = [bra, ket] if bra != ket else [bra]
    matrix = connection_matrix(modes, atom_index, geometry, config)
    return matrix[0, -1 if bra != ket else 0]


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


def arpack_pair(apply, n, v0=None):
    """``motion._extreme_pair`` through ARPACK ``eigsh``: the lowest ("SA")
    pair of ``apply`` on (n, n) matrices, flattened row-major, to machine
    precision (tol 0), started from ``v0`` (default: all ones).  ARPACK
    needs a dimension above 2."""
    dim = n * n
    operator = LinearOperator((dim, dim), matvec=lambda v: apply(v.reshape(n, n)).ravel(),
                              dtype=float)
    values, vectors = eigsh(operator, k=1, which="SA", tol=0.0,
                            v0=np.ones(dim) if v0 is None else v0)
    return values[0], vectors[:, 0]


def lowest_pair(config, z0, n_max, potential_fn=None, start=None):
    """The lowest pair of ``motion.axial_hamiltonian_matrix`` without
    forming it: ``motion._pair_solver``'s solve over its whole basis, as
    (energy in J, flat unit vector, relative quadrature drift)."""
    solve, _, _ = _pair_solver(config, z0, n_max, potential_fn)
    return solve(n_max, start)[:3]


def check_solve(config, z0, n_max):
    """The convergence check that ``motion.basis_ground_state`` ran before
    the Temple bound replaced it: the lowest pair of the whole n_max + 4
    operator whose leading block the solve at n_max uses, by a second
    Lanczos from the mean-field start of its whole stacks.  Returns the
    energy, J, and the flat unit vector."""
    big = n_max + _CONVERGENCE_STEP
    solve, a, b = _pair_solver(config, z0, big, None)
    return solve(big, _mean_field_start(a, b))[:2]


def block_action(q, grid, c):
    """The interaction block on an (N, N) coefficient matrix through the
    node grid: C -> Q^T (grid * (Q C Q^T)) Q, with ``grid`` the weighted
    interaction ``motion._quadrature(...).grid``."""
    return q.T @ (grid * (q @ c @ q.T)) @ q


def mean_field_start(q, grid):
    """``motion._mean_field_start`` on the node grid: the Hartree matrices
    diag(n + 1/2) + Q^T diag(grid u^2) Q, with u the other atom's lowest
    orbital on the nodes (grid^T for atom 2), and the contracted pair
    through the grid with Q U in place of Q.  ``q`` holds p_0..p_n at the
    nodes of the weighted interaction ``grid`` (``motion._quadrature(...)``).
    Returns the flat start."""
    order, n = q.shape
    k = min(_MEAN_FIELD_ORBITALS, n)
    levels = np.arange(n) + 0.5
    fields = (grid, grid.T)
    orbitals = [None, None]
    nodes = [None, q[:, 0]]
    for i in range(_MEAN_FIELD_ITERATIONS):
        atom = i % 2
        h = q.T @ ((fields[atom] @ nodes[1 - atom] ** 2)[:, None] * q)
        h[np.diag_indices(n)] += levels
        orbitals[atom] = np.linalg.eigh(h)[1]
        nodes[atom] = q @ orbitals[atom][:, 0]
    c1, c2 = (c[:, :k] for c in orbitals)
    p1, p2 = q @ c1, q @ c2
    pair1 = (p1[:, :, None] * p1[:, None, :]).reshape(order, k * k)
    pair2 = (p2[:, :, None] * p2[:, None, :]).reshape(order, k * k)
    pair = (pair1.T @ grid @ pair2).reshape(k, k, k, k).transpose(0, 2, 1, 3)
    eye = np.eye(k)
    pair = pair + ((c1.T * levels) @ c1)[:, None, :, None] * eye[None, :, None, :]
    pair += eye[:, None, :, None] * ((c2.T * levels) @ c2)[None, :, None, :]
    _, vectors = np.linalg.eigh(pair.reshape(k * k, k * k))
    return (c1 @ vectors[:, 0].reshape(k, k) @ c2.T).ravel()
