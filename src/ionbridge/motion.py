"""Two-atom axial motional states beyond the quadratic approximation.

The pair wavefunction is expanded in products of bare trap oscillator
states centered at +z0 and -z0; the untruncated axial interaction is
integrated with Gauss-Hermite quadrature, whose weight absorbs the
basis Gaussians exactly.  The radial degrees of freedom stay frozen in
their ground state and contribute the constant 2 hbar omega_rho.

``basis_ground_state`` never forms the (N^2, N^2) matrix: it applies the
quadrature block to a coefficient matrix through the node grid, as in a
discrete variable representation (Light, Hamilton and Lill, JCP 82,
1400 (1985)), and Lanczos (ARPACK, Lehoucq et al. 1998) finds the lowest
pair.  Lanczos converges faster the more its start overlaps the wanted
eigenvector (Parlett, The Symmetric Eigenvalue Problem, 1980), so each
cold solve starts from the quadratic-limit ground state projected onto
the basis, and the convergence check at n + 4 from the solution at n,
zero-padded; each Gauss-Hermite rule is computed once per order.
``axial_hamiltonian_matrix`` and ``symmetric_eigensolve`` build
and diagonalize the dense matrix; they are the reference it is tested
against.  ``gaussian_ground_state`` is the quadratic limit: the normal
modes of the axial block of ``phonons``, centered on the equilibrium
shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import constants as cst
from .errors import AccuracyError, ConfigError, InstabilityError
from .model import SystemConfig, characteristic_scales
from .phonons import _axial_block, _axial_shift, _expansion_at
from .potentials import axial_interaction

__all__ = [
    "CorrelatedGaussian",
    "BasisExpansionState",
    "axial_collision_threshold",
    "axial_hamiltonian_matrix",
    "symmetric_eigensolve",
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
_NORM_TOL = 1e-3   # relative tolerance of the Lanczos estimate of ||D||_2


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


def _quadrature_block(config: SystemConfig, z0: float, n_max: int, order: int,
                      potential_fn) -> np.ndarray:
    """Gauss-Hermite matrix of the interaction in the product basis.

    Returns the (N^2, N^2) block ordered with flat index n1 * N + n2.
    """
    length = characteristic_scales(config).a_z
    xi, weights = _gauss_hermite(order)
    z1 = z0 + length * xi
    z2 = -z0 + length * xi
    w_grid = potential_fn(z1[:, None], z2[None, :])

    p = hermite_values(n_max, xi)
    n = n_max + 1
    # pair[a, (bra, ket)] = w_a p_bra(xi_a) p_ket(xi_a)
    pair = (p[:, :, None] * p[:, None, :] * weights[:, None, None]).reshape(order, n * n)
    block = pair.T @ w_grid @ pair            # [(bra1, ket1), (bra2, ket2)]
    block = block.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return block


def axial_hamiltonian_matrix(config: SystemConfig, z0: float, n_max: int,
                             potential_fn=None) -> np.ndarray:
    """Axial pair Hamiltonian in the bare oscillator product basis, J.

    Default interaction: ion-following energy, the two -C4/z^4 pulls and
    the -C6/(z1-z2)^6 term, untruncated, with the constant mode energy
    and the frozen radial zero point 2 hbar w_rho folded into the
    diagonal.  Passing ``potential_fn(z1, z2)`` replaces exactly the
    potential beyond the bare traps; no constants are folded then.
    Successive quadrature orders must agree to 1e-8 relative.
    """
    if not 0 <= n_max <= _MAX_BASIS:
        raise ConfigError(f"n_max must lie in [0, {_MAX_BASIS}], got {n_max}")
    injected = potential_fn is not None
    if not injected:
        threshold = axial_collision_threshold(config)
        if z0 <= threshold:
            raise InstabilityError(
                f"no bound axial well at z0 = {z0:.4g} m; collision threshold is "
                f"{threshold:.4g} m"
            )
        potential_fn = partial(axial_interaction, config=config)

    order = 4 * n_max + _QUAD_MARGIN
    block = _quadrature_block(config, z0, n_max, order, potential_fn)
    check = _quadrature_block(config, z0, n_max, order + 16, potential_fn)
    scale = np.max(np.abs(check))
    drift = np.max(np.abs(block - check))
    if scale > 0.0 and drift > 1e-8 * scale:
        raise AccuracyError(
            f"quadrature not converged: order {order} vs {order + 16} differ by "
            f"{drift / scale:.3g} relative"
        )

    n = n_max + 1
    n1, n2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    diag = cst.HBAR * config.atom_trap.axial * (n1 + n2 + 1).reshape(-1).astype(float)
    if not injected:
        diag = diag + _constant_offset(config)
    h = check + np.diag(diag)
    return 0.5 * (h + h.T)


def symmetric_eigensolve(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix with fixed conventions.

    Eigenvalues ascend; each eigenvector's largest-magnitude component
    is made positive.  The residual ||A v - lambda v|| of every pair is
    checked against 1e-10 ||A||.
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

    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    vectors = vectors * signs

    norm = max(np.max(np.abs(values)), 1e-300) if values.size else 1e-300
    residual = a @ vectors - vectors * values
    worst = np.max(np.linalg.norm(residual, axis=0))
    if worst > 1e-10 * norm:
        raise AccuracyError(f"eigenpair residual {worst:.3g} exceeds 1e-10 * ||A|| = {1e-10 * norm:.3g}")
    return values, vectors


@dataclass(frozen=True)
class BasisExpansionState:
    """Pair state expanded over bare oscillator products at +-z0."""

    n_max: int
    coefficients: np.ndarray   # (n_max+1, n_max+1), real, unit norm
    energy: float              # J, full absolute energy
    half_separation: float     # z0, m
    osc_length: float          # atom axial oscillator length, m
    residual: float            # relative energy drift of the convergence check

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


def _interaction_grid(config: SystemConfig, z0: float, n_max: int, order: int,
                      potential_fn) -> tuple[np.ndarray, np.ndarray]:
    """Hermite values Q[a, n] = p_n(xi_a) at the Gauss-Hermite nodes and the
    weighted interaction w_a w_b W(z1_a, z2_b) on the node grid, hbar w_az.

    With these, the block of ``_quadrature_block`` is the action
    C -> Q^T (grid * (Q C Q^T)) Q on (N, N) coefficient matrices
    (``_block_action``).
    """
    length = characteristic_scales(config).a_z
    xi, weights = _gauss_hermite(order)
    grid = potential_fn(z0 + length * xi[:, None], -z0 + length * xi[None, :])
    grid = grid * np.outer(weights, weights) / _axial_energy_scale(config)
    if not np.all(np.isfinite(grid)):
        raise AccuracyError(f"interaction is not finite on the order-{order} quadrature grid")
    return hermite_values(n_max, xi), grid


def _block_action(q: np.ndarray, grid: np.ndarray, c: np.ndarray) -> np.ndarray:
    return q.T @ (grid * (q @ c @ q.T)) @ q


def _extreme_pair(apply, n: int, which: str, tol: float,
                  v0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Lowest ("SA") or largest-magnitude ("LM") eigenpair of the symmetric
    operator ``apply`` on (n, n) coefficient matrices, flattened row-major.

    Lanczos starts from ``v0`` (default: all ones).  ARPACK needs a
    dimension above 2; smaller operators are applied to the identity and
    diagonalized densely.
    """
    dim = n * n
    if dim <= 2:
        matrix = np.column_stack([apply(e.reshape(n, n)).ravel() for e in np.eye(dim)])
        values, vectors = symmetric_eigensolve(0.5 * (matrix + matrix.T))
        k = 0 if which == "SA" else int(np.argmax(np.abs(values)))
        return values[k], vectors[:, k]

    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    operator = LinearOperator((dim, dim), matvec=lambda v: apply(v.reshape(n, n)).ravel(),
                              dtype=float)
    try:
        values, vectors = eigsh(operator, k=1, which=which, tol=tol,
                                v0=np.ones(dim) if v0 is None else v0)
    except ArpackError as err:
        raise AccuracyError(f"Lanczos ({which}) failed at dimension {dim}: {err}") from err
    return values[0], vectors[:, 0]


def lowest_pair(config: SystemConfig, z0: float, n_max: int,
                potential_fn=None, start=None) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair of ``axial_hamiltonian_matrix``, without forming it.

    Returns the energy in J, the unit coefficient vector (flat index
    n1 * N + n2, largest-magnitude component positive) and the relative
    quadrature drift.  ``potential_fn`` and the folded constants are as
    in ``axial_hamiltonian_matrix``; ``start``, a flat vector of the same
    layout, is where Lanczos starts (default: all ones).  Work is in
    units of hbar w_az with the constants left out, so the kinetic part
    is the diagonal n1 + n2 + 1.  Every solve passes the same two gates,
    whatever its start, measured against the dense ones:

    - quadrature: the drift operator D between orders 4n+8 and 4n+24
      must obey ||D||_2 <= 1e-8 s, with s the larger of max|diag B| and
      max|B e_00| (B at order 4n+24).  Both are exact entries of B, so
      s <= max|B_ij|; s is zero only if the interaction projects to
      zero on every basis product.  ||D||_2 is a Lanczos estimate,
      scaled up by (1 + its tolerance) and raised to at least the exact
      entries diag D and D e_00.  The gate is therefore never weaker
      than the dense entrywise max|D_ij| <= 1e-8 max|B_ij| on those
      entries; elsewhere it holds only as far as the estimate does,
      since a Ritz value can fall short of ||D||_2.
    - residual: ||H v - E v|| <= 1e-10 max|diag H|, with the constants
      folded into H as in the dense matrix; max|diag H| <= ||H||_2, the
      scale of the dense gate on every pair.
    """
    if not 0 <= n_max <= _MAX_BASIS:
        raise ConfigError(f"n_max must lie in [0, {_MAX_BASIS}], got {n_max}")
    offset = 0.0
    if potential_fn is None:
        threshold = axial_collision_threshold(config)
        if z0 <= threshold:
            raise InstabilityError(
                f"no bound axial well at z0 = {z0:.4g} m; collision threshold is "
                f"{threshold:.4g} m"
            )
        potential_fn = partial(axial_interaction, config=config)
        offset = _constant_offset(config)

    n = n_max + 1
    order = 4 * n_max + _QUAD_MARGIN
    q_lo, grid_lo = _interaction_grid(config, z0, n_max, order, potential_fn)
    q, grid = _interaction_grid(config, z0, n_max, order + 16, potential_fn)
    q_sq = q * q
    q_lo_sq = q_lo * q_lo
    diag_b = q_sq.T @ grid @ q_sq
    e_00 = np.zeros((n, n))
    e_00[0, 0] = 1.0
    column_b = _block_action(q, grid, e_00)
    drift_norm = max(np.max(np.abs(q_lo_sq.T @ grid_lo @ q_lo_sq - diag_b)),
                     np.max(np.abs(_block_action(q_lo, grid_lo, e_00) - column_b)))
    if np.any(grid_lo) or np.any(grid):
        theta, _ = _extreme_pair(
            lambda c: _block_action(q_lo, grid_lo, c) - _block_action(q, grid, c),
            n, "LM", _NORM_TOL)
        drift_norm = max(drift_norm, abs(theta) * (1.0 + _NORM_TOL))
    scale = max(np.max(np.abs(diag_b)), np.max(np.abs(column_b)))
    if drift_norm > 1e-8 * scale:
        raise AccuracyError(
            f"quadrature not converged: orders {order} and {order + 16} differ by "
            f"||D||_2 = {drift_norm:.3g} > 1e-8 max(|diag B|, |B e_00|) = "
            f"{1e-8 * scale:.3g} hbar w_az"
        )
    drift = drift_norm / scale if scale > 0.0 else 0.0

    kinetic = np.add.outer(np.arange(n), np.arange(n)) + 1.0

    def hamiltonian(c):
        return kinetic * c + _block_action(q, grid, c)

    value, vector = _extreme_pair(hamiltonian, n, "SA", 0.0, start)
    lead = np.argmax(np.abs(vector))
    if vector[lead] < 0.0:
        vector = -vector

    unit = _axial_energy_scale(config)
    residual = np.linalg.norm(hamiltonian(vector.reshape(n, n)).ravel() - value * vector)
    limit = 1e-10 * np.max(np.abs(kinetic + diag_b + offset / unit))
    if not residual <= limit:
        raise AccuracyError(
            f"eigenpair residual {residual:.3g} exceeds 1e-10 max|diag H| = {limit:.3g} hbar w_az"
        )
    return unit * value + offset, vector, drift


def _projection(state: CorrelatedGaussian, config: SystemConfig, z0: float,
                n_max: int) -> np.ndarray | None:
    """Coefficients of ``state`` on the product basis at n_max, flat and up to
    the factor a_z: C = Q^T (f f^T * Psi) Q on the order-(4n + 8) rule of
    ``lowest_pair``, with f = w exp(xi^2 / 2) and Psi the state on the node
    grid.  None (the all-ones start) when that has no finite, nonzero entry,
    as at a z0 that ``lowest_pair`` refuses."""
    length = characteristic_scales(config).a_z
    xi, weights = _gauss_hermite(4 * n_max + _QUAD_MARGIN)
    q = hermite_values(n_max, xi)
    f = weights * np.exp(0.5 * xi * xi)
    with np.errstate(all="ignore"):
        psi = state.wavefunction(z0 + length * xi, -z0 + length * xi)
        coefficients = q.T @ (np.outer(f, f) * psi) @ q
    peak = np.max(np.abs(coefficients))
    return (coefficients / peak).ravel() if 0.0 < peak < math.inf else None


def basis_ground_state(config: SystemConfig, z0: float, n_max: int = 30) -> BasisExpansionState:
    """Variational ground state of the full axial pair Hamiltonian.

    The basis is ramped from ``n_max`` to 50 if the ground energy has
    not settled to 1e-6 relative (measured on the axial part of the
    energy) between n_max and n_max + 4.  Each basis size is solved by
    ``lowest_pair``.  The solves at n_max and 50 start from
    ``gaussian_ground_state`` projected onto the basis, or from
    ``bare_product_state`` (e_00) where the quadratic limit is unstable;
    the check at n + 4 starts from the solution at n, zero-padded, which
    it is close to.  On the four benchmark density jobs (2z0 = 12, 16
    and 24 um at n_max 30, 12 um at n_max 40) the solve at n_max takes
    71/41/41/71 operator applications, against 131/101/101/151 from all
    ones.
    """
    cap = _MAX_BASIS - _CONVERGENCE_STEP
    if not 0 <= n_max <= cap:
        raise ConfigError(
            f"n_max must lie in [0, {cap}]: the basis is capped at {_MAX_BASIS} and the "
            f"convergence check solves at n_max + {_CONVERGENCE_STEP}; got {n_max}"
        )
    offset = _constant_offset(config)
    try:
        quadratic = gaussian_ground_state(config, z0)
    except (ConfigError, InstabilityError):
        # lowest_pair reports what is wrong with z0, if anything is
        quadratic = bare_product_state(config, z0)

    for attempt, n in enumerate((n_max, _RAMP_LIMIT)):
        if attempt and n <= n_max:
            break
        energy, vector, _ = lowest_pair(config, z0, n,
                                        start=_projection(quadratic, config, z0, n))
        dim = n + 1
        start = np.zeros((dim + _CONVERGENCE_STEP, dim + _CONVERGENCE_STEP))
        start[:dim, :dim] = vector.reshape(dim, dim)
        energy_check, _, _ = lowest_pair(config, z0, n + _CONVERGENCE_STEP,
                                         start=start.ravel())
        scale = max(abs(energy_check - offset), _axial_energy_scale(config))
        residual = abs(energy - energy_check) / scale
        if residual < 1e-6:
            return BasisExpansionState(
                n_max=n,
                coefficients=vector.reshape(dim, dim),
                energy=energy,
                half_separation=z0,
                osc_length=characteristic_scales(config).a_z,
                residual=residual,
            )
    raise AccuracyError(
        f"ground energy not converged to 1e-6 at n_max = {_RAMP_LIMIT} "
        f"(relative drift {residual:.3g})"
    )


def gaussian_ground_state(config: SystemConfig, z0: float) -> CorrelatedGaussian:
    """Analytic ground state of the quadratic axial expansion.

    The normal modes are those of ``phonons``' axial block in atom
    coordinates, centered on the equilibrium shift; both come from one
    evaluation of the frequency squares.  Widths use the
    sqrt(hbar / (m omega)) convention, so the density along a normal
    axis u is proportional to exp(-u^2 / sigma^2).
    """
    squares, (stretch, com, _, _) = _expansion_at(config, z0)
    if not (np.all(stretch > 0.0) and np.all(com > 0.0)):
        raise InstabilityError(
            f"configuration unstable at 2z0 = {2.0 * z0:.4g} m, no Gaussian ground state"
        )
    dz1, dz2 = _axial_shift(squares, z0)
    values, vectors = symmetric_eigensolve(_axial_block(squares))
    widths = tuple(math.sqrt(cst.HBAR / (config.atom.mass * math.sqrt(v))) for v in values)
    return CorrelatedGaussian(
        center=(z0 + dz1, -z0 + dz2),
        normal_axes=vectors,
        widths=widths,
    )


def bare_product_state(config: SystemConfig, z0: float) -> CorrelatedGaussian:
    """Uncoupled trap ground state: the no-interaction reference."""
    a_z = characteristic_scales(config).a_z
    return CorrelatedGaussian(center=(z0, -z0), normal_axes=np.eye(2), widths=(a_z, a_z))


def pair_density(state, z1_grid, z2_grid) -> np.ndarray:
    """|psi(z1, z2)|^2 on the tensor grid, 1/m^2.

    The grid must resolve and cover the state: the trapezoid integral of
    the density is required to equal 1 within 1e-3 (defaults land well
    inside 1e-4).
    """
    z1 = np.asarray(z1_grid, dtype=float)
    z2 = np.asarray(z2_grid, dtype=float)
    psi = state.wavefunction(z1, z2)
    density = psi * psi
    total = np.trapezoid(np.trapezoid(density, z2, axis=1), z1)
    if abs(total - 1.0) > 1e-3:
        raise AccuracyError(
            f"density integrates to {total:.6g}; the grid under-covers or "
            "under-resolves the state"
        )
    return density


def state_overlap(state_a, state_b, z1_grid, z2_grid) -> float:
    """Trapezoid overlap integral <a|b> of two real pair states."""
    z1 = np.asarray(z1_grid, dtype=float)
    z2 = np.asarray(z2_grid, dtype=float)
    product = state_a.wavefunction(z1, z2) * state_b.wavefunction(z1, z2)
    return float(np.trapezoid(np.trapezoid(product, z2, axis=1), z1))
