"""Two-atom axial motional states beyond the quadratic approximation.

The pair wavefunction is expanded in products of bare trap oscillator
states centered at +z0 and -z0; the untruncated axial interaction is
integrated with Gauss-Hermite quadrature, whose weight absorbs the
basis Gaussians exactly.  The radial degrees of freedom stay frozen in
their ground state and contribute the constant 2 hbar omega_rho.

``basis_ground_state`` never forms the (N^2, N^2) matrix.  On the axis
the interaction is two single-atom terms, a rank-one ion-following
cross term and the smooth C6 term, so its node grid (a discrete
variable representation: Light, Hamilton and Lill, JCP 82, 1400 (1985))
has a numerical rank of a few.  An adaptive cross approximation
(Bebendorf, Numer. Math. 86, 565 (2000)) writes it as a sum of products
of single-atom functions, the product form of MCTDH (Jaeckle and Meyer,
J. Chem. Phys. 104, 7974 (1996)), and the pair Hamiltonian acts on a
coefficient matrix C as K * C + sum_k A_k C B_k with (N, N) factors.
The same factors at two quadrature orders bound the quadrature drift,
and Lanczos with full reorthogonalization finds the lowest pair.  On a
smaller basis the pair Hamiltonian is the leading block of the larger
basis's (a Galerkin restriction), so one operator per basis size serves
the solve at n and, applied once to the padded solution, the gate at
n + 4: its residual r bounds the energy the n + 4 basis could gain by
r^2 / delta, delta a floor on the gap (Temple's inequality; Kato, J.
Phys. Soc. Jpn. 4, 334 (1949)).  Lanczos converges faster the more its
start overlaps the wanted eigenvector (Parlett, The Symmetric Eigenvalue
Problem, 1980).  The two atoms interact only through the ion, so the
pair ground state is nearly a product state, and every solve of
``basis_ground_state`` starts from the pair Hamiltonian contracted onto
self-consistent single-atom orbitals, whose mean fields
sum_k <u|B_k|u> A_k are contractions of the same factors (Beck,
Jaeckle, Worth and Meyer, Phys. Rep. 324, 1 (2000); Echave and Clary,
Chem. Phys. Lett. 190, 225 (1992)): start, Lanczos and gates read one
operator.  Gauss-Hermite rules and the tables of Hermite values on
them are cached; ``_axial_rules`` alone builds the rules of a solve.
``axial_hamiltonian_matrix`` and ``symmetric_eigensolve`` build (with
``_dense_block``) and diagonalize the dense matrix: unexported test
oracles.
``gaussian_ground_state`` is the quadratic limit: the closed-form
normal modes of ``phonons``, centered on the equilibrium shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import constants as cst
from .errors import AccuracyError, ConfigError, InstabilityError
from .expansion import _half_separation, _one_real
from .model import SystemConfig, characteristic_scales
from .phonons import _axial_entries, _axial_shift, _expansion_at, _rotation
from .potentials import axial_interaction

__all__ = [
    "CorrelatedGaussian",
    "BasisExpansionState",
    "axial_collision_threshold",
    "basis_ground_state",
    "gaussian_ground_state",
    "bare_product_state",
    "pair_density",
    "state_overlap",
]

_MAX_BASIS = 60
_RAMP_LIMIT = 50
_CONVERGENCE_STEP = 4
_QUAD_MARGIN = 8
_HERMITE_TABLES = 16   # Hermite tables cached: at most 2.1 MB
_LANCZOS_STEPS = 240   # step cap: n_max 60 from all ones, the hardest tested solve, takes 158
_MEAN_FIELD_ORBITALS = 6     # orbitals per atom in the contracted Lanczos start
_MEAN_FIELD_ITERATIONS = 8   # single-atom Hartree diagonalizations of a start
# Floor on the n + 4 pair gap E_1 - E_0, hbar w_az, for Temple's bound: the
# exact gap shrinks towards the collision threshold, to 0.62 (rr and rg) at
# 2z0 = 11.2 um, the accepted case closest to it (0.85 at 12, 0.98 at 16 um)
_GAP_FLOOR = 0.5


@lru_cache(maxsize=None)
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of ``hermgauss(order)``, computed once.

    The solvers use orders 4n + 8 and 4n + 24 with n <= _MAX_BASIS, so
    the cache holds at most 65 rules.
    """
    xi, weights = hermgauss(order)
    xi.flags.writeable = False
    weights.flags.writeable = False
    return xi, weights


def hermite_values(n_max: int, xi: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite polynomials p_0..p_n_max at the points xi.

    These are the oscillator eigenfunctions with the Gaussian factor
    removed: orthonormal under the weight exp(-xi^2), which is exactly
    the Gauss-Hermite quadrature weight.  The stable three-term
    recurrence keeps values finite for every n used here.
    """
    xi = np.asarray(xi, dtype=float)
    p = np.empty((xi.size, n_max + 1))
    p[:, 0] = math.pi ** -0.25
    if n_max >= 1:
        p[:, 1] = math.sqrt(2.0) * xi * p[:, 0]
    for n in range(1, n_max):
        p[:, n + 1] = (math.sqrt(2.0 / (n + 1)) * xi * p[:, n]
                       - math.sqrt(n / (n + 1)) * p[:, n - 1])
    return p


@lru_cache(maxsize=_HERMITE_TABLES)
def _hermite_table(n_max: int, order: int) -> np.ndarray:
    """Read-only ``hermite_values(n_max, xi)`` at the order-``order``
    Gauss-Hermite nodes, computed once while among the _HERMITE_TABLES
    most recently used: ``basis_ground_state`` reads the same two (four
    when it ramps) at every separation.  The largest, n_max 60 at order
    264, takes 0.13 MB."""
    table = hermite_values(n_max, _gauss_hermite(order)[0])
    table.flags.writeable = False
    return table


def _oscillator_values(n_max: int, z: np.ndarray, center: float, length: float) -> np.ndarray:
    """Real-space oscillator eigenfunctions phi_n(z) around ``center``."""
    xi = (np.asarray(z, dtype=float) - center) / length
    gauss = np.exp(-0.5 * xi * xi) / math.sqrt(length)
    return hermite_values(n_max, xi) * gauss[:, None]


def axial_collision_threshold(config: SystemConfig) -> float:
    """Largest half-separation z0 at which an atom's axial well vanishes, m.

    For a single atom in its trap against the ion's -C4/z^4 pull, the
    local minimum and maximum merge in a saddle-node at
    z0 = 1.2 (20 C4 / (m_a w_az^2))^(1/6); below that there is nothing
    to bind to.  The pair threshold takes the larger of the two states.
    """
    m_a = config.atom.mass
    w_az_sq = config.atom_trap.axial**2
    return max(
        1.2 * (20.0 * c4 / (m_a * w_az_sq)) ** (1.0 / 6.0) if c4 > 0.0 else 0.0
        for c4 in config.c4_pair
    )


def _axial_rules(config: SystemConfig, z0: float, size: int, potential_fn):
    """The interaction, the constant folded into the energy, and the two
    ``_quadrature`` rules of orders 4 size + 8 and 4 size + 24 over the
    basis p_0..p_size.  The interaction and constant are the default one
    and ``_constant_offset``, or an injected ``potential_fn`` and 0.
    Checks size and, for the default, that z0 lies beyond
    ``axial_collision_threshold``, before either rule is built."""
    if not 0 <= size <= _MAX_BASIS:
        raise ConfigError(f"n_max must lie in [0, {_MAX_BASIS}], got {size}")
    offset = 0.0
    if potential_fn is None:
        threshold = axial_collision_threshold(config)
        if z0 <= threshold:
            raise InstabilityError(
                f"no bound axial well at z0 = {z0:.4g} m; collision threshold is "
                f"{threshold:.4g} m"
            )
        potential_fn, offset = partial(axial_interaction, config=config), _constant_offset(config)
    order = 4 * size + _QUAD_MARGIN
    return (potential_fn, offset, _quadrature(config, z0, size, order, potential_fn),
            _quadrature(config, z0, size, order + 16, potential_fn))


def axial_hamiltonian_matrix(config: SystemConfig, z0: float, n_max: int,
                             potential_fn=None) -> np.ndarray:
    """Axial pair Hamiltonian in the bare oscillator product basis, J.

    Default interaction: ion-following energy, the two -C4/z^4 pulls and
    the -C6/(z1-z2)^6 term, untruncated, with the constant mode energy
    and the frozen radial zero point 2 hbar w_rho folded into the
    diagonal.  Passing ``potential_fn(z1, z2)`` replaces exactly the
    potential beyond the bare traps; no constants are folded then.
    The interaction must be finite on both quadrature grids, and the
    blocks of the two orders must agree to 1e-8 relative.  A test oracle, kept
    here for ``perfbench/tracer.py`` until it moves to ``tests/oracles.py``.
    """
    _, offset, coarse, fine = _axial_rules(config, z0, n_max, potential_fn)
    block = _dense_block(coarse.q, coarse.grid)
    check = _dense_block(fine.q, fine.grid)
    scale = np.max(np.abs(check))
    drift = np.max(np.abs(block - check))
    if scale > 0.0 and drift > 1e-8 * scale:
        order = coarse.weights.size
        raise AccuracyError(
            f"quadrature not converged: order {order} vs {order + 16} differ by "
            f"{drift / scale:.3g} relative"
        )

    n = n_max + 1
    kinetic = np.add.outer(np.arange(n), np.arange(n)).ravel() + 1.0
    h = _axial_energy_scale(config) * (check + np.diag(kinetic)) + offset * np.eye(n * n)
    return 0.5 * (h + h.T)


def symmetric_eigensolve(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix with fixed conventions.

    Eigenvalues ascend; each eigenvector's largest-magnitude component
    is made positive.  The residual ||A v - lambda v|| of every pair is
    checked against 1e-10 ||A||.  A test oracle, kept here for the
    benchmark's tracer like ``axial_hamiltonian_matrix``.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > 4000:
        raise ConfigError(f"matrix dimension {a.shape[0]} exceeds the 4000 contract")
    if not np.all(np.isfinite(a)):
        raise AccuracyError("matrix must be finite")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(np.max(np.abs(a)), 1e-300):
        raise AccuracyError("matrix is not symmetric")

    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise AccuracyError(f"eigensolver failed to converge: {err}") from err

    vectors = _lead_positive(vectors)
    norm = max(np.max(np.abs(values)), 1e-300) if values.size else 1e-300
    residual = a @ vectors - vectors * values
    worst = np.max(np.linalg.norm(residual, axis=0))
    if worst > 1e-10 * norm:
        raise AccuracyError(f"eigenpair residual {worst:.3g} exceeds 1e-10 * ||A|| = {1e-10 * norm:.3g}")
    return values, vectors


def _lead_positive(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with each column's largest-magnitude component made
    positive (the first such component on ties; a zero column stays zero)."""
    lead = np.argmax(np.abs(vectors), axis=0)
    return vectors * np.sign(vectors[lead, np.arange(vectors.shape[1])])


@dataclass(frozen=True)
class BasisExpansionState:
    """Pair state expanded over bare oscillator products at +-z0."""

    n_max: int
    coefficients: np.ndarray   # (n_max+1, n_max+1), real, unit norm
    energy: float              # J, full absolute energy
    half_separation: float     # z0, m
    osc_length: float          # atom axial oscillator length, m
    residual: float            # Temple bound r^2 / (delta scale) on the n_max + 4 energy change

    def wavefunction(self, z1, z2) -> np.ndarray:
        """psi(z1, z2) on the tensor grid, 1/m."""
        phi1 = _oscillator_values(self.n_max, z1, self.half_separation, self.osc_length)
        phi2 = _oscillator_values(self.n_max, z2, -self.half_separation, self.osc_length)
        return phi1 @ self.coefficients @ phi2.T


@dataclass(frozen=True)
class CorrelatedGaussian:
    """Ground state of the quadratic axial form: a rotated 2-D Gaussian."""

    center: tuple[float, float]   # (z1, z2), m
    normal_axes: np.ndarray       # columns are normal-mode directions in (z1, z2)
    widths: tuple[float, float]   # sqrt(hbar / (m omega)) per mode, ascending omega

    def wavefunction(self, z1, z2) -> np.ndarray:
        """psi(z1, z2) on the tensor grid, 1/m."""
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        d1 = z1[:, None] - self.center[0]
        d2 = z2[None, :] - self.center[1]
        r = self.normal_axes
        u1 = r[0, 0] * d1 + r[1, 0] * d2
        u2 = r[0, 1] * d1 + r[1, 1] * d2
        s1, s2 = self.widths
        norm = 1.0 / math.sqrt(math.pi * s1 * s2)
        return norm * np.exp(-0.5 * (u1 / s1) ** 2 - 0.5 * (u2 / s2) ** 2)


def _axial_energy_scale(config: SystemConfig) -> float:
    return cst.HBAR * config.atom_trap.axial


def _constant_offset(config: SystemConfig) -> float:
    return config.ion_mode.bare_energy(config.ion_trap) \
        + 2.0 * cst.HBAR * config.atom_trap.radial


class _Quadrature(NamedTuple):
    """One Gauss-Hermite order of a solve, energies in units of hbar w_az."""

    q: np.ndarray          # Hermite values Q[a, n] = p_n(xi_a), read-only
    weights: np.ndarray    # w_a
    z1: np.ndarray         # atom 1's nodes z0 + a_z xi_a, m
    z2: np.ndarray         # atom 2's nodes -z0 + a_z xi_a, m
    potential: np.ndarray  # W(z1_a, z2_b) on the node grid, unweighted
    grid: np.ndarray       # w_a w_b W(z1_a, z2_b)


def _field(potential_fn, unit: float, z1: np.ndarray, z2: np.ndarray,
           order: int) -> np.ndarray:
    """``potential_fn`` at the broadcasting positions z1, z2 in units of
    ``unit``, as a writable array of their broadcast shape (a constant
    potential may return a scalar); AccuracyError unless finite."""
    values = np.broadcast_to(potential_fn(z1, z2) / unit, np.broadcast(z1, z2).shape).copy()
    if not np.all(np.isfinite(values)):
        raise AccuracyError(f"interaction is not finite on the order-{order} quadrature grid")
    return values


def _quadrature(config: SystemConfig, z0: float, n_max: int, order: int,
                potential_fn) -> _Quadrature:
    """The order-``order`` Gauss-Hermite nodes of the pair at +-z0, the
    Hermite values p_0..p_n_max there and the interaction on the node grid."""
    length = characteristic_scales(config).a_z
    xi, weights = _gauss_hermite(order)
    z1, z2 = z0 + length * xi, -z0 + length * xi
    potential = _field(potential_fn, _axial_energy_scale(config), z1[:, None], z2[None, :],
                       order)
    return _Quadrature(_hermite_table(n_max, order), weights, z1, z2, potential,
                       potential * np.outer(weights, weights))


def _dense_block(q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The (N^2, N^2) matrix of the action C -> Q^T (grid * (Q C Q^T)) Q, flat
    index n1 * N + n2: the interaction block of the dense test oracle."""
    order, n = q.shape
    pair = (q[:, :, None] * q[:, None, :]).reshape(order, n * n)   # [a, (bra, ket)]
    block = pair.T @ grid @ pair                                   # [(bra1, ket1), (bra2, ket2)]
    return block.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _cross(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full-pivot adaptive cross approximation of the unweighted grid W:
    the pivot rows I and columns J and the functions x_k, y_k at the
    grid's nodes, as (order, rank) columns, with W ~ x y^T.

    Each step takes the residual's largest entry p_k = R[I_k, J_k] and
    subtracts x_k y_k^T with x_k = R[:, J_k] and y_k = R[I_k, :] / p_k
    (LU with complete pivoting), until no entry exceeds 4 eps max|W|, so
    p_k = x[I_k, k].  A zero grid has rank 0.  Bebendorf, Numer. Math.
    86, 565 (2000).
    """
    residual = w.copy()
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(w))
    rows, columns, xs, ys = [], [], [], []
    for _ in range(min(w.shape)):
        i, j = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
        pivot = residual[i, j]
        if not abs(pivot) > tol:
            break
        x = residual[:, j].copy()
        y = residual[i] / pivot
        residual -= np.outer(x, y)
        rows.append(i)
        columns.append(j)
        xs.append(x)
        ys.append(y)
    return (np.array(rows, dtype=np.intp), np.array(columns, dtype=np.intp),
            np.array(xs).T.reshape(w.shape[0], len(xs)),
            np.array(ys).T.reshape(w.shape[1], len(ys)))


def _cross_functions(coarse: _Quadrature, fine: _Quadrature, cross, potential_fn,
                     unit: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The functions of ``cross``, the ``_cross`` of the ``fine`` grid, at
    the ``coarse`` nodes, as (order, rank) columns, and the separation
    error max|W - sum_k x_k y_k^T| on the coarse grid.

    x_k = W(., z2_{J_k}) - sum_{l<k} x_l y_l(z2_{J_k}) and
    y_k = (W(z1_{I_k}, .) - sum_{l<k} x_l(z1_{I_k}) y_l) / p_k, from the
    potential on the pivot lines through the fine nodes z1_I and z2_J:
    the LU recurrence, which never inverts the pivot matrix W(I, J).
    """
    rows, columns, x_fine, y_fine = cross
    pivots = x_fine[rows, np.arange(rows.size)]
    x_at_rows, y_at_columns = x_fine[rows], y_fine[columns]
    order = coarse.weights.size
    x = _field(potential_fn, unit, coarse.z1[:, None], fine.z2[columns][None, :], order)
    y = _field(potential_fn, unit, fine.z1[rows][None, :], coarse.z2[:, None], order)
    for k in range(rows.size):
        x[:, k] -= x[:, :k] @ y_at_columns[k, :k]
        y[:, k] = (y[:, k] - y[:, :k] @ x_at_rows[k, :k]) / pivots[k]
    return x, y, np.max(np.abs(coarse.potential - x @ y.T))


def _stack(quadrature: _Quadrature, f: np.ndarray) -> np.ndarray:
    """Q^T diag(w f_k) Q for every column f_k of f, as a (rank, N, N)
    stack built by one GEMM."""
    q = quadrature.q
    order, n = q.shape
    weighted = (f.T * quadrature.weights)[:, None, :] * q.T   # [k, i, a]
    return (weighted.reshape(-1, order) @ q).reshape(f.shape[1], n, n)


def _extreme_pair(apply, n: int, v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric operator ``apply`` on (n, n)
    coefficient matrices, flattened row-major.

    Lanczos from ``v0`` (default: all ones), reorthogonalized twice per
    step against the whole stored basis and never restarted.  After every
    step the Ritz pair (theta, V s) of the tridiagonal T is accepted
    when Paige's residual estimate beta |s_m| is at most machine epsilon
    times max|theta|, and at once when the Krylov space is invariant
    (beta = 0, or the whole space).  Parlett, The Symmetric Eigenvalue
    Problem (1980), ch. 13.
    """
    dim = n * n
    steps = min(dim, _LANCZOS_STEPS)
    tol = np.finfo(float).eps
    basis = np.empty((steps, dim))
    t = np.zeros((steps, steps))   # T, filled step by step; eigh reads its lower triangle
    beta = np.empty(steps)
    start = np.ones(dim) if v0 is None else np.asarray(v0, dtype=float)
    basis[0] = start / np.linalg.norm(start)
    for m in range(steps):
        w = apply(basis[m].reshape(n, n)).ravel()
        if not np.isfinite(w).all():
            raise AccuracyError(f"Lanczos at dimension {dim}: operator output is not finite")
        size = m + 1
        overlaps = basis[:size] @ w
        t[m, m] = overlaps[m]
        w = w - overlaps @ basis[:size]
        w -= (basis[:size] @ w) @ basis[:size]
        beta[m] = np.linalg.norm(w)
        theta, s = np.linalg.eigh(t[:size, :size])
        if (beta[m] == 0.0 or size == dim
                or beta[m] * abs(s[m, 0]) <= tol * np.max(np.abs(theta))):
            return theta[0], s[:, 0] @ basis[:size]
        if size < steps:
            basis[size] = w / beta[m]
            t[size, m] = beta[m]
    raise AccuracyError(f"Lanczos not converged in {steps} steps at dimension {dim}")


def _pair_solver(config: SystemConfig, z0: float, size: int, potential_fn):
    """``(solve, a, b)`` for the pair at +-z0 over the products of
    p_0..p_size, on the two rules of ``_axial_rules``, orders 4 size + 8
    (coarse) and 4 size + 24 (fine).  a and b are the fine order's
    factor stacks A_k and B_k, each (rank, N, N).  Work is in units of
    hbar w_az with the folded constant left out, so the kinetic part K
    is the diagonal n1 + n2 + 1.

    ``solve(n_max, start)`` is the lowest pair on the leading
    (n_max + 1)-block, without forming it: Lanczos from the flat vector
    ``start`` (index n1 (n_max + 1) + n2; None: all ones).  It returns
    the energy in J, constants folded in as in ``axial_hamiltonian_matrix``,
    the unit vector (largest-magnitude component positive), the relative
    quadrature drift U / s, and r + e_hi, with r = ||H' p - E p|| for the
    vector p zero-padded to the whole basis and H' the whole operator.
    Over the basis itself the rules are those of the dense matrix, and
    both gates are measured against the dense ones:

    - quadrature: U <= 1e-8 s, with U >= ||D||_2 for the drift D between
      the two orders' interaction blocks, and s the larger of max|diag B|
      and max|B e_00| (B at the fine order).  Both are exact entries of
      B, so s <= max|B_ij|; s is zero only if the interaction projects
      to zero on every basis product.  The gate is therefore never
      weaker than the dense entrywise max|D_ij| <= 1e-8 max|B_ij|.
    - residual: ||H v - E v|| + e_hi <= 1e-10 max|diag H|, with the
      constants folded into H as in the dense matrix.  max|diag H| <=
      ||H||_2, the scale of the dense gate on every pair.

    The fine grid W is cross-approximated once (``_cross``) to
    W ~ sum_k x_k(z1) y_k(z2), whose functions ``_cross_functions`` also
    evaluates at the coarse nodes.  At order g the interaction block is
    then C -> sum_k A_k C B_k with A_k = Q^T diag(w x_k) Q, and it is off
    by at most the separation error e_g = max|W - sum_k x_k y_k| over
    that grid in 2-norm, because diag(sqrt w) Q has orthonormal columns;
    for the same reason ||A_k||_2 <= max|x_k| and ||B_k||_2 <= max|y_k|.
    So U = sum_k (||A_k^lo - A_k^hi||_F max|y_k^lo|
    + max|x_k^hi| ||B_k^lo - B_k^hi||_F) + e_lo + e_hi bounds the 2-norm
    of the drift between the two orders' blocks in exact arithmetic.

    Each solve works on the leading (n_max + 1)-blocks of K, the A_k and
    B_k at the fine order, and diag B.  The drift of a leading block has
    2-norm at most U, and its s, taken on that block, is at most the
    whole basis's, so U <= 1e-8 s is gated before the Lanczos of every
    solve.  After it, H' is applied once to p: the leading block of the
    result gives the residual gate, the whole of it r (the same number
    when n_max = size).
    """
    potential_fn, offset, coarse, fine = _axial_rules(config, z0, size, potential_fn)
    unit = _axial_energy_scale(config)
    cross = _cross(fine.potential)
    _, _, x, y = cross
    x_lo, y_lo, e_lo = _cross_functions(coarse, fine, cross, potential_fn, unit)
    e_hi = np.max(np.abs(fine.potential - x @ y.T))
    a, b = _stack(fine, x), _stack(fine, y)
    bound = e_lo + e_hi + np.sum(
        np.linalg.norm(_stack(coarse, x_lo) - a, axis=(1, 2)) * np.max(np.abs(y_lo), axis=0)
        + np.max(np.abs(x), axis=0) * np.linalg.norm(_stack(coarse, y_lo) - b, axis=(1, 2)))
    q, grid = fine.q, fine.grid
    q_sq = q * q
    diag_b = q_sq.T @ grid @ q_sq
    column_b = q.T @ (grid * np.outer(q[:, 0], q[:, 0])) @ q
    diag_h = np.add.outer(np.arange(size + 1), np.arange(size + 1)) + 1.0 + diag_b + offset / unit
    whole = _block_operator(a, b, size + 1)

    def solve(n_max: int, start) -> tuple[float, np.ndarray, float, float]:
        n = n_max + 1
        scale = max(np.max(np.abs(diag_b[:n, :n])), np.max(np.abs(column_b[:n, :n])))
        if not bound <= 1e-8 * scale:
            raise AccuracyError(
                f"quadrature not converged: orders {coarse.weights.size} and "
                f"{fine.weights.size} differ by ||D||_2 <= {bound:.3g} > 1e-8 "
                f"max(|diag B|, |B e_00|) = {1e-8 * scale:.3g} hbar w_az"
            )
        value, vector = _extreme_pair(_block_operator(a, b, n), n, start)
        vector = _lead_positive(vector[:, None])[:, 0]

        padded = np.pad(vector.reshape(n, n), (0, size + 1 - n))
        excess = whole(padded) - value * padded
        residual = np.linalg.norm(excess[:n, :n])
        limit = 1e-10 * np.max(np.abs(diag_h[:n, :n]))
        if not residual + e_hi <= limit:
            raise AccuracyError(
                f"eigenpair residual {residual:.3g} plus separation error {e_hi:.3g} exceeds "
                f"1e-10 max|diag H| = {limit:.3g} hbar w_az"
            )
        return (unit * value + offset, vector, bound / scale if scale > 0.0 else 0.0,
                np.linalg.norm(excess) + e_hi)

    return solve, a, b


def _block_operator(a: np.ndarray, b: np.ndarray, n: int):
    """C -> K * C + sum_k A_k C B_k, hbar w_az, on (n, n) matrices C: the pair
    Hamiltonian on the leading blocks of K and of the stacks ``a``, ``b``."""
    rank = a.shape[0]
    kinetic = np.add.outer(np.arange(n), np.arange(n)) + 1.0
    a_n = a[:, :n, :n].transpose(1, 0, 2).reshape(n, rank * n)   # [A_1 ... A_r]
    b_n = np.ascontiguousarray(b[:, :n, :n])

    def hamiltonian(c):
        return kinetic * c + a_n @ (c @ b_n).reshape(rank * n, n)

    return hamiltonian


def _mean_field_start(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Lanczos start for the lowest pair of the kinetic part plus the
    separated interaction C -> sum_k A_k C B_k of the (rank, N, N) stacks
    ``a`` and ``b``.

    _MEAN_FIELD_ITERATIONS alternating Hartree iterations each
    diagonalize one atom's diag(n + 1/2) + sum_k <u|B_k|u> A_k, with u
    the other atom's lowest orbital (A and B swapped for atom 2): the
    separated operator's mean field, its contraction over the other
    atom.  They start from atom 2 in e_0, the bare trap ground state.
    The pair Hamiltonian contracted onto the lowest _MEAN_FIELD_ORBITALS
    orbitals U_1, U_2 of each atom, sum_k (U_1^T A_k U_1) (x) (U_2^T B_k U_2)
    plus the two level sums, is diagonalized, and its lowest vector,
    expanded back, is the start: flat as in ``_pair_solver``'s solve, or
    None (the all-ones start) when it is not finite or zero.
    """
    n = a.shape[1]
    k = min(_MEAN_FIELD_ORBITALS, n)
    levels = np.arange(n) + 0.5
    stacks = (a, b)
    orbitals = [None, None]
    lowest = [None, np.eye(n)[0]]
    with np.errstate(all="ignore"):
        try:
            for i in range(_MEAN_FIELD_ITERATIONS):
                atom = i % 2
                u = lowest[1 - atom]
                h = np.tensordot(stacks[1 - atom] @ u @ u, stacks[atom], axes=1)
                h[np.diag_indices(n)] += levels
                orbitals[atom] = np.linalg.eigh(h)[1]
                lowest[atom] = orbitals[atom][:, 0]
            c1, c2 = (c[:, :k] for c in orbitals)
            eye = np.eye(k)
            pair = np.einsum("rac,rbd->abcd", c1.T @ a @ c1, c2.T @ b @ c2)
            pair += ((c1.T * levels) @ c1)[:, None, :, None] * eye[None, :, None, :]
            pair += eye[:, None, :, None] * ((c2.T * levels) @ c2)[None, :, None, :]
            _, vectors = np.linalg.eigh(pair.reshape(k * k, k * k))
        except np.linalg.LinAlgError:
            return None
        start = (c1 @ vectors[:, 0].reshape(k, k) @ c2.T).ravel()
    return start if np.isfinite(start).all() and start.any() else None


def basis_ground_state(config: SystemConfig, z0: float, n_max: int = 30) -> BasisExpansionState:
    """Variational ground state of the full axial pair Hamiltonian.

    Each basis size n builds one ``_pair_solver`` over the n + 4 basis
    and solves n on its leading block, from ``_mean_field_start`` on the
    leading blocks of that operator's own factor stacks (the pair is
    nearly a product state).  By Temple's inequality the n + 4 basis
    lowers that energy by at most (r + e_hi)^2 / _GAP_FLOOR, from the
    solve's residual bound for the zero-padded solution.  Relative to the
    axial energy (at least hbar w_az) that is the state's ``residual``;
    below 1e-6 the basis is accepted, and otherwise ramped from ``n_max``
    to 50.  ConfigError unless z0 is one real number.
    """
    z0 = _one_real(z0)
    cap = _MAX_BASIS - _CONVERGENCE_STEP
    if not 0 <= n_max <= cap:
        raise ConfigError(
            f"n_max must lie in [0, {cap}]: the basis is capped at {_MAX_BASIS} and the "
            f"convergence gate applies the n_max + {_CONVERGENCE_STEP} operator; got {n_max}"
        )
    for n in (n_max, _RAMP_LIMIT) if n_max < _RAMP_LIMIT else (n_max,):
        solve, a, b = _pair_solver(config, z0, n + _CONVERGENCE_STEP, None)
        energy, vector, _, coupling = solve(
            n, _mean_field_start(a[:, :n + 1, :n + 1], b[:, :n + 1, :n + 1]))
        scale = max(abs(energy - _constant_offset(config)) / _axial_energy_scale(config), 1.0)
        residual = coupling**2 / (_GAP_FLOOR * scale)
        if residual < 1e-6:
            return BasisExpansionState(
                n_max=n,
                coefficients=vector.reshape(n + 1, n + 1),
                energy=energy,
                half_separation=z0,
                osc_length=characteristic_scales(config).a_z,
                residual=residual,
            )
    raise AccuracyError(
        f"ground energy not converged to 1e-6 at n_max = {n} "
        f"(Temple bound {residual:.3g})"
    )


def gaussian_ground_state(config: SystemConfig, z0: float) -> CorrelatedGaussian:
    """Analytic ground state of the quadratic axial expansion.

    Its normal modes are the closed form of the axial sector
    (``phonons._rotation``): squared frequencies mean -+ disc along the
    (relative, com) frame turned by theta, each axis with its own
    eigenvalue (not its branch's stretch/com label) and its largest
    component positive.  It is centered on the equilibrium shift, from
    the same frequency squares.  Widths use the sqrt(hbar / (m omega))
    convention, so the density along a normal axis u is proportional to
    exp(-u^2 / sigma^2).  ConfigError unless z0 is one positive and finite
    number.
    """
    z0 = _one_real(z0)
    axial, force, (stretch, com, _, _) = _expansion_at(config, z0)
    mean, disc, theta = _rotation(*_axial_entries(*axial))
    if not (np.all(stretch > 0.0) and np.all(com > 0.0) and mean - disc > 0.0):
        raise InstabilityError(
            f"configuration unstable at 2z0 = {2.0 * z0:.4g} m, no Gaussian ground state"
        )
    dz1, dz2 = _axial_shift(axial, force, z0)
    # (-sin, cos) and (cos, sin) in the (relative, com) frame, taken to (z1, z2)
    cos, sin = math.cos(theta) / math.sqrt(2.0), math.sin(theta) / math.sqrt(2.0)
    axes = _lead_positive(np.array([[cos - sin, cos + sin], [cos + sin, sin - cos]]))
    widths = tuple(math.sqrt(cst.HBAR / (config.atom.mass * math.sqrt(v)))
                   for v in (mean - disc, mean + disc))
    return CorrelatedGaussian(
        center=(z0 + dz1, -z0 + dz2),
        normal_axes=axes,
        widths=widths,
    )


def bare_product_state(config: SystemConfig, z0: float) -> CorrelatedGaussian:
    """Uncoupled trap ground state: the no-interaction reference;
    ConfigError unless z0 is one positive and finite number."""
    z0 = _one_real(z0)
    _half_separation(z0)
    a_z = characteristic_scales(config).a_z
    return CorrelatedGaussian(center=(z0, -z0), normal_axes=np.eye(2), widths=(a_z, a_z))


def pair_density(state, z1_grid, z2_grid) -> np.ndarray:
    """|psi(z1, z2)|^2 on the tensor grid, 1/m^2.

    The grid must resolve and cover the state: the trapezoid integral of
    the density is required to equal 1 within 1e-3 (defaults land well
    inside 1e-4); AccuracyError otherwise, a non-finite integral included.
    """
    z1 = np.asarray(z1_grid, dtype=float)
    z2 = np.asarray(z2_grid, dtype=float)
    psi = state.wavefunction(z1, z2)
    density = psi * psi
    total = np.trapezoid(np.trapezoid(density, z2, axis=1), z1)
    if not abs(total - 1.0) <= 1e-3:
        raise AccuracyError(
            f"density integrates to {total:.6g}; the grid under-covers or "
            "under-resolves the state"
        )
    return density


def state_overlap(state_a, state_b, z1_grid, z2_grid) -> float:
    """Trapezoid overlap integral <a|b> of two real pair states;
    AccuracyError when it is not finite."""
    z1 = np.asarray(z1_grid, dtype=float)
    z2 = np.asarray(z2_grid, dtype=float)
    product = state_a.wavefunction(z1, z2) * state_b.wavefunction(z1, z2)
    overlap = float(np.trapezoid(np.trapezoid(product, z2, axis=1), z1))
    if not math.isfinite(overlap):
        raise AccuracyError(f"overlap integrates to {overlap}; the grid or a state "
                            "is not finite")
    return overlap
