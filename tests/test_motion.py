"""Two-atom axial motional states in the quasi-1D picture."""

import dataclasses
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

import ionbridge
from ionbridge import (
    AccuracyError,
    ConfigError,
    InstabilityError,
    InteractionCoefficients,
    axial_collision_threshold,
    axial_hamiltonian_matrix,
    bare_product_state,
    basis_ground_state,
    constants as cst,
    gaussian_ground_state,
    pair_density,
    reference_config,
    state_overlap,
    symmetric_eigensolve,
)
from ionbridge import motion
from ionbridge.motion import (
    _QUAD_MARGIN,
    _quadrature_block,
    hermite_values,
    lowest_pair,
)
from ionbridge.potentials import axial_interaction


def density_grids(config, state, gauss, points=161):
    reach = 8.0 * max(gauss.widths)
    reach = max(reach, state.osc_length * (math.sqrt(2 * state.n_max + 1) + 5))
    z1 = np.linspace(gauss.center[0] - reach, gauss.center[0] + reach, points)
    z2 = np.linspace(gauss.center[1] - reach, gauss.center[1] + reach, points)
    return z1, z2


class TestBasisFunctions:
    def test_hermite_orthonormality(self):
        xs, ws = hermgauss(40)
        values = hermite_values(12, xs)
        gram = (values * ws[:, None]).T @ values
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-12)

    def test_hermite_recurrence_start(self):
        xi = np.array([0.0, 1.0])
        values = hermite_values(1, xi)
        np.testing.assert_allclose(values[:, 0], math.pi ** -0.25)
        np.testing.assert_allclose(values[:, 1], math.sqrt(2) * xi * math.pi ** -0.25)


class TestGaussHermiteCache:
    @pytest.mark.parametrize("order", [8, 128, 200, 264])
    def test_cached_rule_is_hermgauss(self, order):
        xi, weights = motion._gauss_hermite(order)
        expected_xi, expected_weights = hermgauss(order)
        assert xi.tobytes() == expected_xi.tobytes()
        assert weights.tobytes() == expected_weights.tobytes()
        assert motion._gauss_hermite(order)[0] is xi

    def test_cached_rule_is_read_only(self):
        xi, weights = motion._gauss_hermite(40)
        assert not xi.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            xi[0] = 0.0
        with pytest.raises(ValueError):
            weights *= 2.0


class TestCollisionThreshold:
    def test_formula(self, cfg_rr):
        c4 = max(cfg_rr.c4_pair)
        m_a = cfg_rr.atom.mass
        w2 = cfg_rr.atom_trap.axial**2
        expected = 1.2 * (20 * c4 / (m_a * w2)) ** (1 / 6)
        assert axial_collision_threshold(cfg_rr) == pytest.approx(expected, rel=1e-14)

    def test_reference_value(self, cfg_rr):
        assert 2 * axial_collision_threshold(cfg_rr) == pytest.approx(11.01e-6, rel=1e-3)

    def test_no_interaction_means_no_threshold(self, cfg_gg):
        bare = dataclasses.replace(
            cfg_gg, coefficients=InteractionCoefficients(c4_ground=0.0))
        assert axial_collision_threshold(bare) == 0.0


class TestHamiltonianMatrix:
    def test_free_case_is_diagonal(self, cfg_gg):
        free = dataclasses.replace(
            cfg_gg, coefficients=InteractionCoefficients(c4_ground=0.0))
        n = 4
        h = axial_hamiltonian_matrix(free, free.half_separation_z0, n)
        offset = free.ion_mode.bare_energy(free.ion_trap) \
            + 2 * cst.HBAR * free.atom_trap.radial
        w = free.atom_trap.axial
        expected = np.diag([
            offset + cst.HBAR * w * (n1 + n2 + 1)
            for n1 in range(n + 1) for n2 in range(n + 1)
        ])
        np.testing.assert_allclose(h, expected, atol=1e-40)

    def test_matrix_is_exactly_symmetric(self, cfg_rr):
        h = axial_hamiltonian_matrix(cfg_rr, cfg_rr.half_separation_z0, 12)
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_below_collision_threshold_raises(self, cfg_rr):
        with pytest.raises(InstabilityError):
            axial_hamiltonian_matrix(cfg_rr, 5.0e-6, 8)

    def test_basis_bounds(self, cfg_rr):
        with pytest.raises(ConfigError):
            axial_hamiltonian_matrix(cfg_rr, cfg_rr.half_separation_z0, -1)
        with pytest.raises(ConfigError):
            axial_hamiltonian_matrix(cfg_rr, cfg_rr.half_separation_z0, 61)

    @pytest.mark.parametrize("pair", ["rr", "rg", "gg"])
    def test_interaction_matches_the_former_formula(self, pair):
        config = reference_config(pair)
        z0 = config.half_separation_z0
        a_z = math.sqrt(cst.HBAR / (config.atom.mass * config.atom_trap.axial))
        xi, _ = hermgauss(4 * 34 + _QUAD_MARGIN + 16)
        z1, z2 = (z0 + a_z * xi)[:, None], (-z0 + a_z * xi)[None, :]
        np.testing.assert_allclose(axial_interaction(z1, z2, config),
                                   former_interaction(z1, z2, config), rtol=1e-13, atol=0.0)


def former_interaction(z1, z2, config):
    """The on-axis W(z1, z2) as the motion module once wrote it out."""
    c4_1, c4_2 = config.c4_pair
    m_i = config.ion.mass
    w_iz_sq = config.ion_trap.axial**2
    zeta0 = (4.0 / (m_i * w_iz_sq)) * (c4_1 * z1 / np.abs(z1) ** 6 + c4_2 * z2 / np.abs(z2) ** 6)
    v = -0.5 * m_i * w_iz_sq * zeta0 * zeta0
    return v - c4_1 / z1**4 - c4_2 / z2**4 - config.c6_pair / (z1 - z2) ** 6


class TestEigensolver:
    def test_against_numpy_on_a_random_matrix(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(30, 30))
        a = 0.5 * (a + a.T)
        values, vectors = symmetric_eigensolve(a)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a), rtol=1e-12, atol=1e-12)
        # deterministic sign: the largest-magnitude component is positive
        for k in range(vectors.shape[1]):
            lead = np.argmax(np.abs(vectors[:, k]))
            assert vectors[lead, k] > 0.0

    def test_rejects_asymmetric_input(self):
        with pytest.raises(AccuracyError):
            symmetric_eigensolve(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_non_square_and_oversized_input(self):
        with pytest.raises(ConfigError):
            symmetric_eigensolve(np.zeros((2, 3)))
        with pytest.raises(ConfigError, match="4000"):
            symmetric_eigensolve(np.broadcast_to(0.0, (4001, 4001)))

    def test_rejects_non_finite_input(self):
        with pytest.raises(AccuracyError, match="finite"):
            symmetric_eigensolve(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestGroundStates:
    def test_reported_convergence(self, cfg_rr):
        z0 = 6.0e-6
        state = basis_ground_state(cfg_rr.with_half_separation(z0), z0, n_max=30)
        assert state.residual < 1e-6
        assert state.n_max >= 30

    def test_ramp_extends_a_small_basis(self, cfg_rr):
        z0 = 6.0e-6
        state = basis_ground_state(cfg_rr.with_half_separation(z0), z0, n_max=1)
        assert state.n_max > 1
        assert state.residual < 1e-6

    def test_exchange_symmetry_of_coefficients(self, cfg_rr):
        # mirror exchange z1 <-> -z2 flips both local coordinates, so the
        # coefficient matrix is checkerboard-symmetric: c[n1, n2] =
        # (-1)^(n1 + n2) c[n2, n1]
        z0 = 7.0e-6
        state = basis_ground_state(cfg_rr.with_half_separation(z0), z0, n_max=20)
        c = state.coefficients
        n = np.arange(c.shape[0])
        signs = (-1.0) ** (n[:, None] + n[None, :])
        assert np.max(np.abs(c - signs * c.T)) < 1e-10 * np.max(np.abs(c))

    def test_overlap_with_gaussian_at_20um(self, cfg_rr):
        z0 = 10.0e-6
        cfg = cfg_rr.with_half_separation(z0)
        state = basis_ground_state(cfg, z0, n_max=30)
        gauss = gaussian_ground_state(cfg, z0)
        z1, z2 = density_grids(cfg, state, gauss)
        assert state_overlap(state, gauss, z1, z2) >= 0.999

    def test_densities_normalized(self, cfg_rr):
        z0 = 8.0e-6
        cfg = cfg_rr
        state = basis_ground_state(cfg, z0, n_max=30)
        gauss = gaussian_ground_state(cfg, z0)
        z1, z2 = density_grids(cfg, state, gauss)
        for psi in (state, gauss, bare_product_state(cfg, z0)):
            density = pair_density(psi, z1, z2)
            norm = np.trapezoid(np.trapezoid(density, z2, axis=1), z1)
            assert norm == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_needs_stability(self, cfg_rr):
        with pytest.raises(InstabilityError):
            gaussian_ground_state(cfg_rr, 4.0e-6)

    def test_undersized_grid_is_rejected(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        state = basis_ground_state(cfg_rr, z0, n_max=20)
        narrow = np.linspace(z0 - 1e-8, z0 + 1e-8, 31)
        with pytest.raises(AccuracyError):
            pair_density(state, narrow, -narrow)

    def test_identical_gaussians_overlap_to_unity(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        gauss = gaussian_ground_state(cfg_rr, z0)
        reach = 8.0 * max(gauss.widths)
        z1 = np.linspace(gauss.center[0] - reach, gauss.center[0] + reach, 161)
        z2 = np.linspace(gauss.center[1] - reach, gauss.center[1] + reach, 161)
        assert state_overlap(gauss, gauss, z1, z2) == pytest.approx(1.0, abs=1e-10)


def sa_matvec_counts(monkeypatch):
    """The list to which every lowest-pair ("SA") Lanczos solve appends its
    number of operator applications."""
    solve = motion._extreme_pair
    counts = []

    def counting(apply, n, which, tol, v0=None):
        count = [0]

        def counted(c):
            count[0] += 1
            return apply(c)

        result = solve(counted, n, which, tol, v0)
        if which == "SA":
            counts.append(count[0])
        return result

    monkeypatch.setattr(motion, "_extreme_pair", counting)
    return counts


def entrywise_drift(config, z0, n_max, potential_fn):
    """The dense gate's measure: max|B1 - B2| / max|B2| between orders
    4n+8 and 4n+24 of ``_quadrature_block``."""
    order = 4 * n_max + _QUAD_MARGIN
    coarse = _quadrature_block(config, z0, n_max, order, potential_fn)
    fine = _quadrature_block(config, z0, n_max, order + 16, potential_fn)
    return np.max(np.abs(coarse - fine)) / np.max(np.abs(fine))


def gaussian_bump(config, width):
    """hbar w_az exp(-(xi1^2 + xi2^2) / (2 width^2)) in local oscillator units:
    smooth, but not a polynomial, so its quadrature drift is resolvable."""
    z0 = config.half_separation_z0
    a_z = math.sqrt(cst.HBAR / (config.atom.mass * config.atom_trap.axial))
    unit = cst.HBAR * config.atom_trap.axial

    def potential(z1, z2):
        r_sq = ((z1 - z0) / a_z) ** 2 + ((z2 + z0) / a_z) ** 2
        return unit * np.exp(-r_sq / (2.0 * width**2))

    return potential


def kink(config):
    """hbar w_az (|xi1| + |xi2|) in local oscillator units: not smooth, so
    no quadrature order used here resolves it."""
    z0 = config.half_separation_z0
    a_z = math.sqrt(cst.HBAR / (config.atom.mass * config.atom_trap.axial))
    unit = cst.HBAR * config.atom_trap.axial

    def potential(z1, z2):
        return unit * (np.abs(z1 - z0) + np.abs(z2 + z0)) / a_z

    return potential


SOLVER_CASES = [
    (pair, n_max, separation_um)
    for pair in ("rr", "rg", "gg")
    for n_max in (1, 4, 12, 30)
    for separation_um in (12, 16, 24)
]


class TestMatrixFreeSolver:
    @pytest.mark.parametrize("pair, n_max, separation_um", SOLVER_CASES + [("rr", 0, 16)])
    def test_matches_dense_oracle(self, pair, n_max, separation_um):
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        energy, vector, _ = lowest_pair(config, z0, n_max)
        values, vectors = symmetric_eigensolve(axial_hamiltonian_matrix(config, z0, n_max))
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(energy - values[0]) <= 1e-12 * unit
        assert np.max(np.abs(vector - vectors[:, 0])) <= 1e-10

    @pytest.mark.parametrize("pair, n_max, separation_um", SOLVER_CASES)
    def test_quadrature_measure_bounds_the_entrywise_one(self, pair, n_max, separation_um):
        # ||D||_2 / max|diag B| >= max|D_ij| / max|B_ij| in exact arithmetic;
        # on these potentials both are rounding noise, hence the 2 eps slack
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        _, _, drift = lowest_pair(config, z0, n_max)
        old = entrywise_drift(config, z0, n_max, partial(axial_interaction, config=config))
        assert drift >= old - 2.0 * np.finfo(float).eps
        assert drift < 1e-12

    @pytest.mark.parametrize("width, n_max", [(0.7, 8), (1.0, 4), (1.5, 2)])
    def test_resolved_drift_bounds_the_entrywise_one(self, cfg_rr, width, n_max):
        z0 = cfg_rr.half_separation_z0
        bump = gaussian_bump(cfg_rr, width)
        _, _, drift = lowest_pair(cfg_rr, z0, n_max, potential_fn=bump)
        old = entrywise_drift(cfg_rr, z0, n_max, bump)
        assert 1e-13 < old <= drift < 1e-8

    def test_gate_rejects_what_the_entrywise_gate_passes(self, cfg_rr):
        # entrywise drift 9.6e-9 passes the dense gate; ||D||_2 does not
        z0 = cfg_rr.half_separation_z0
        bump = gaussian_bump(cfg_rr, 1.0)
        assert entrywise_drift(cfg_rr, z0, 2, bump) < 1e-8
        axial_hamiltonian_matrix(cfg_rr, z0, 2, potential_fn=bump)
        with pytest.raises(AccuracyError, match="quadrature"):
            lowest_pair(cfg_rr, z0, 2, potential_fn=bump)

    def test_unresolvable_potential_is_rejected(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        with pytest.raises(AccuracyError, match="quadrature"):
            lowest_pair(cfg_rr, z0, 4, potential_fn=kink(cfg_rr))

    def test_gate_keeps_the_exact_drift_entries(self, cfg_rr, monkeypatch):
        # a Lanczos estimate that misses ||D||_2 altogether still leaves
        # the exact entries diag D and D e_00 in the gate
        solve = motion._extreme_pair

        def blind(apply, n, which, tol):
            return (0.0, None) if which == "LM" else solve(apply, n, which, tol)

        monkeypatch.setattr(motion, "_extreme_pair", blind)
        z0 = cfg_rr.half_separation_z0
        with pytest.raises(AccuracyError, match="quadrature"):
            lowest_pair(cfg_rr, z0, 4, potential_fn=kink(cfg_rr))

    def test_non_finite_potential_is_rejected(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        with pytest.raises(AccuracyError, match="not finite"):
            lowest_pair(cfg_rr, z0, 4,
                        potential_fn=lambda z1, z2: np.full(np.broadcast(z1, z2).shape, np.nan))

    def test_injected_potential_folds_no_constants(self, cfg_rr):
        # a stiffer harmonic trap per atom: E = hbar sqrt(w^2 + dw^2) exactly
        z0 = cfg_rr.half_separation_z0
        m_a = cfg_rr.atom.mass
        w = cfg_rr.atom_trap.axial
        dw_sq = 0.1 * w**2

        def stiffening(z1, z2):
            return 0.5 * m_a * dw_sq * ((z1 - z0) ** 2 + (z2 + z0) ** 2)

        energy, _, _ = lowest_pair(cfg_rr, z0, 12, potential_fn=stiffening)
        assert energy == pytest.approx(cst.HBAR * math.sqrt(w**2 + dw_sq), rel=1e-9)

    @pytest.mark.parametrize("n_max", [1, 4, 12])
    def test_odd_potential_passes_the_gate(self, cfg_rr, n_max):
        # a linear tilt of atom 1: both orders integrate it exactly, and
        # its diagonal matrix elements vanish, so the gate must not be
        # scaled by max|diag B| alone
        z0 = cfg_rr.half_separation_z0
        a_z = math.sqrt(cst.HBAR / (cfg_rr.atom.mass * cfg_rr.atom_trap.axial))
        unit = cst.HBAR * cfg_rr.atom_trap.axial

        def tilt(z1, z2):
            return 0.3 * unit * (z1 - z0) / a_z + 0.0 * z2

        energy, vector, drift = lowest_pair(cfg_rr, z0, n_max, potential_fn=tilt)
        values, vectors = symmetric_eigensolve(
            axial_hamiltonian_matrix(cfg_rr, z0, n_max, potential_fn=tilt))
        assert abs(energy - values[0]) <= 1e-12 * unit
        assert np.max(np.abs(vector - vectors[:, 0])) <= 1e-10
        assert drift < 1e-12

    def test_repeated_solves_are_bitwise_identical(self, cfg_rg):
        z0 = 6.0e-6
        config = cfg_rg.with_half_separation(z0)
        first = basis_ground_state(config, z0, n_max=20)
        second = basis_ground_state(config, z0, n_max=20)
        assert first.energy == second.energy
        assert np.array_equal(first.coefficients, second.coefficients)

    @pytest.mark.parametrize("n_max, separation_um", [(0, 16), (4, 16), (30, 12),
                                                      (30, 16), (30, 24)])
    def test_warm_started_check_matches_the_cold_one(self, n_max, separation_um):
        z0 = 0.5e-6 * separation_um
        config = reference_config("rr", z0=z0)
        n, big = n_max + 1, n_max + 1 + motion._CONVERGENCE_STEP
        _, vector, _ = lowest_pair(config, z0, n_max)
        start = np.zeros((big, big))
        start[:n, :n] = vector.reshape(n, n)
        warm_energy, warm_vector, _ = lowest_pair(config, z0, big - 1, start=start.ravel())
        cold_energy, cold_vector, _ = lowest_pair(config, z0, big - 1)
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(warm_energy - cold_energy) <= 1e-12 * unit
        assert np.max(np.abs(warm_vector - cold_vector)) <= 1e-10

    def test_warm_started_check_needs_fewer_matvecs(self, monkeypatch):
        # 2z0 = 16 um, n_max 30: the check solve at 34 from the padded
        # solution at 30 against the same solve from all ones
        counts = sa_matvec_counts(monkeypatch)
        z0 = 8.0e-6
        config = reference_config("rr", z0=z0)
        basis_ground_state(config, z0, n_max=30)
        lowest_pair(config, z0, 34)
        _, warm, cold = counts
        assert warm < cold

    @pytest.mark.parametrize("pair", ["rr", "rg"])
    @pytest.mark.parametrize("n_max, separation_um", [(30, 12), (30, 16), (30, 24),
                                                      (40, 12)])
    def test_projected_start_matches_the_all_ones_start(self, pair, n_max, separation_um):
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        start = motion._projection(gaussian_ground_state(config, z0), config, z0, n_max)
        projected_energy, projected_vector, _ = lowest_pair(config, z0, n_max, start=start)
        ones_energy, ones_vector, _ = lowest_pair(config, z0, n_max)
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(projected_energy - ones_energy) <= 1e-12 * unit
        assert np.max(np.abs(projected_vector - ones_vector)) <= 1e-10

    def test_projected_start_needs_fewer_matvecs(self, monkeypatch):
        # 2z0 = 16 um, n_max 30: the cold solve from the projected Gaussian
        # against the same solve from all ones
        counts = sa_matvec_counts(monkeypatch)
        z0 = 8.0e-6
        config = reference_config("rr", z0=z0)
        basis_ground_state(config, z0, n_max=30)
        lowest_pair(config, z0, 30)
        projected, _, ones = counts
        assert projected < ones

    @pytest.mark.parametrize("n_max", [1, 30, 56, 60])
    def test_bare_product_state_projects_onto_e00(self, cfg_rr, n_max):
        # n_max 60 projects on the order-248 rule, where w exp(xi^2 / 2)
        # spans the widest range
        z0 = cfg_rr.half_separation_z0
        start = motion._projection(bare_product_state(cfg_rr, z0), cfg_rr, z0, n_max)
        assert start[0] == 1.0
        assert np.max(np.abs(start[1:])) <= 1e-12

    def test_unstable_quadratic_limit_starts_from_the_bare_product(self, monkeypatch):
        # Not reached on the reference systems: at n = 30, 45 and 60 the
        # collision threshold z0 (5.51, 8.84 and 12.4 um), below which
        # lowest_pair refuses, lies above the z0 where the quadratic limit
        # turns unstable (4.59, 7.37 and 10.3 um).
        z0 = 6.0e-6
        config = reference_config("rr", z0=z0)
        expected = basis_ground_state(config, z0, n_max=20)
        solve = motion.lowest_pair
        starts = []

        def recording(config, z0, n_max, potential_fn=None, start=None):
            starts.append(start)
            return solve(config, z0, n_max, potential_fn, start)

        def unstable(config, z0):
            raise InstabilityError("unstable")

        monkeypatch.setattr(motion, "lowest_pair", recording)
        monkeypatch.setattr(motion, "gaussian_ground_state", unstable)
        state = basis_ground_state(config, z0, n_max=20)
        bare = motion._projection(bare_product_state(config, z0), config, z0, 20)
        assert np.array_equal(starts[0], bare)
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(state.energy - expected.energy) <= 1e-12 * unit
        assert np.max(np.abs(state.coefficients - expected.coefficients)) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_basis_passes_both_gates(self):
        # n_max 60 is _MAX_BASIS, the order-264 rule; the ground state at
        # n_max 56 checks at 60
        z0 = 6.0e-6
        config = reference_config("rr", z0=z0)
        energy, _, drift = lowest_pair(config, z0, 60)
        state = basis_ground_state(config, z0, n_max=56)
        assert state.n_max == 56
        assert state.residual < 1e-6
        assert drift < 1e-8
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(state.energy - energy) <= 1e-6 * unit

    def test_sign_convention(self, cfg_rg):
        z0 = cfg_rg.half_separation_z0
        _, vector, _ = lowest_pair(cfg_rg, z0, 12)
        assert vector[np.argmax(np.abs(vector))] > 0.0
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)

    def test_basis_cap_is_a_config_error(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        with pytest.raises(ConfigError, match="56"):
            basis_ground_state(cfg_rr, z0, n_max=57)
        with pytest.raises(ConfigError):
            basis_ground_state(cfg_rr, z0, n_max=-1)
        with pytest.raises(ConfigError):
            lowest_pair(cfg_rr, z0, 61)

    def test_below_collision_threshold_raises(self, cfg_rr):
        with pytest.raises(InstabilityError):
            lowest_pair(cfg_rr, 5.0e-6, 8)

    @pytest.mark.parametrize("z0, error", [(0.0, InstabilityError), (5.0e-6, InstabilityError),
                                           (float("nan"), ConfigError),
                                           (float("inf"), ConfigError), (5e293, ConfigError)])
    def test_refused_half_separations_keep_their_errors(self, cfg_rr, z0, error):
        # whatever the start (the Gaussian, the bare product, or all ones
        # where neither projects to finite numbers), lowest_pair reports
        # the fault
        with pytest.raises(error):
            basis_ground_state(cfg_rr, z0, n_max=4)

    def test_import_does_not_load_the_sparse_solver(self):
        src = str(Path(ionbridge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, ionbridge; print('scipy.sparse.linalg' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout.strip() == "False"
