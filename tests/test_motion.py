"""Two-atom axial motional states in the quasi-1D picture."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

import oracles
from ionbridge import (
    AccuracyError,
    ConfigError,
    InstabilityError,
    InteractionCoefficients,
    axial_collision_threshold,
    bare_product_state,
    basis_ground_state,
    constants as cst,
    effective_frequencies,
    gaussian_ground_state,
    pair_density,
    phonon_spectrum,
    reference_config,
    state_overlap,
)
from ionbridge import motion
from ionbridge.motion import (
    _QUAD_MARGIN,
    _dense_block,
    axial_hamiltonian_matrix,
    hermite_values,
    lowest_pair,
    symmetric_eigensolve,
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

    @pytest.mark.parametrize("n_max, order", [(0, 8), (30, 144), (60, 264)])
    def test_cached_table_is_hermite_values(self, n_max, order):
        table = motion._hermite_table(n_max, order)
        expected = hermite_values(n_max, hermgauss(order)[0])
        assert table.tobytes() == expected.tobytes()
        assert motion._hermite_table(n_max, order) is table
        assert not table.flags.writeable

    def test_separations_share_the_tables(self):
        # a basis size reads the tables of (n+4, 4n+24) and (n+4, 4n+40);
        # a second separation rebuilds neither
        motion._hermite_table.cache_clear()
        for separation_um in (16, 24):
            z0 = 0.5e-6 * separation_um
            assert basis_ground_state(reference_config("rr", z0=z0), z0, n_max=30).n_max == 30
        info = motion._hermite_table.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        assert info.maxsize == motion._HERMITE_TABLES


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

    def test_non_finite_grid_is_rejected(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        gauss = gaussian_ground_state(cfg_rr, z0)
        z1 = np.full(81, np.nan)
        z2 = np.linspace(-z0 - 1e-6, -z0 + 1e-6, 81)
        with pytest.raises(AccuracyError, match="nan"):
            pair_density(gauss, z1, z2)
        with pytest.raises(AccuracyError, match="not finite"):
            state_overlap(gauss, gauss, z1, z2)

    @pytest.mark.parametrize("z0", [0.0, -8e-6, float("nan"), float("inf")])
    def test_bare_product_state_needs_a_positive_finite_half_separation(self, cfg_rr, z0):
        with pytest.raises(ConfigError, match="positive and finite"):
            bare_product_state(cfg_rr, z0)

    def test_identical_gaussians_overlap_to_unity(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        gauss = gaussian_ground_state(cfg_rr, z0)
        reach = 8.0 * max(gauss.widths)
        z1 = np.linspace(gauss.center[0] - reach, gauss.center[0] + reach, 161)
        z2 = np.linspace(gauss.center[1] - reach, gauss.center[1] + reach, 161)
        assert state_overlap(gauss, gauss, z1, z2) == pytest.approx(1.0, abs=1e-10)


class TestClosedFormGaussian:
    """The Gaussian's normal modes come from the closed-form rotation of the
    axial sector; here they are checked against numpy's eigh of the axial
    block in atom coordinates."""

    @pytest.mark.parametrize("pair", ["rr", "rg"])
    @pytest.mark.parametrize("separation_um", [9.3, 12, 16, 24, 40])
    def test_modes_match_eigh_of_the_atom_block(self, pair, separation_um):
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        fr = effective_frequencies(config, z0)
        block = np.array([[fr.omega_bar_z1_sq, fr.omega_zz_sq],
                          [fr.omega_zz_sq, fr.omega_bar_z2_sq]])
        values, vectors = np.linalg.eigh(block)
        lead = np.argmax(np.abs(vectors), axis=0)
        vectors = vectors * np.sign(vectors[lead, [0, 1]])
        gauss = gaussian_ground_state(config, z0)
        widths = [math.sqrt(cst.HBAR / (config.atom.mass * math.sqrt(v))) for v in values]
        np.testing.assert_allclose(gauss.widths, widths, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(gauss.normal_axes - vectors)) <= 1e-13
        if pair == "rg":
            # the labels follow the bare trap here, not the rotation: the
            # "com" branch is the upper one, so pairing the axes by label
            # would swap them
            spectrum = phonon_spectrum(config, z0)
            assert spectrum.branch("axial", "com").omega_sq == pytest.approx(values[1],
                                                                            rel=1e-15)


def lanczos_counts(monkeypatch):
    """A dict of one list, under "SA" (the lowest pair, the one mode the
    solver runs), to which every Lanczos solve appends its number of
    operator applications."""
    solve = motion._extreme_pair
    counts = {"SA": []}

    def counting(apply, n, v0=None):
        count = [0]

        def counted(c):
            count[0] += 1
            return apply(c)

        result = solve(counted, n, v0)
        counts["SA"].append(count[0])
        return result

    monkeypatch.setattr(motion, "_extreme_pair", counting)
    return counts


def sa_matvec_counts(monkeypatch):
    """The list of lowest-pair applications of ``lanczos_counts``."""
    return lanczos_counts(monkeypatch)["SA"]


def start_stacks(config, z0, n_max):
    """The factor stacks A and B from which basis_ground_state builds the
    start at n_max: the leading (n_max + 1)-blocks of its operator's,
    over the n_max + 4 basis."""
    _, a, b = motion._pair_solver(config, z0, n_max + motion._CONVERGENCE_STEP, None)
    n = n_max + 1
    return a[:, :n, :n], b[:, :n, :n]


def unit_lead_positive(v):
    """``v`` scaled to unit norm with its largest-magnitude component positive."""
    v = v / np.linalg.norm(v)
    return v * np.sign(v[np.argmax(np.abs(v))])


def entrywise_drift(config, z0, n_max, potential_fn):
    """The dense gate's measure: max|B1 - B2| / max|B2| between the blocks
    of orders 4n+8 and 4n+24."""
    order = 4 * n_max + _QUAD_MARGIN
    coarse = motion._quadrature(config, z0, n_max, order, potential_fn)
    fine = motion._quadrature(config, z0, n_max, order + 16, potential_fn)
    coarse, fine = _dense_block(coarse.q, coarse.grid), _dense_block(fine.q, fine.grid)
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
        # the quadrature gate raises before any Lanczos runs: a Lanczos
        # that returns no vector at all is never called
        def blind(apply, n, v0=None):
            return 0.0, None

        monkeypatch.setattr(motion, "_extreme_pair", blind)
        z0 = cfg_rr.half_separation_z0
        with pytest.raises(AccuracyError, match="quadrature"):
            lowest_pair(cfg_rr, z0, 4, potential_fn=kink(cfg_rr))

    def test_non_finite_potential_is_rejected(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        for solver in (lowest_pair, axial_hamiltonian_matrix):
            with pytest.raises(AccuracyError, match="not finite"):
                solver(cfg_rr, z0, 4,
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

    # The Lanczos start of basis_ground_state is the pair Hamiltonian
    # projected onto products of self-consistent single-atom orbitals
    # (motion._mean_field_start): 11.2 um lies just beyond the collision
    # threshold, where the basis ramps to 50.
    @pytest.mark.parametrize("pair", ["rr", "rg", "gg"])
    @pytest.mark.parametrize("n_max, separation_um", [(30, 11.2), (30, 12), (30, 16),
                                                      (30, 24), (40, 12)])
    def test_projected_start_matches_the_all_ones_start(self, pair, n_max, separation_um):
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        start, _ = motion._mean_field_start(*start_stacks(config, z0, n_max))
        projected_energy, projected_vector, _ = lowest_pair(config, z0, n_max, start=start)
        ones_energy, ones_vector, _ = lowest_pair(config, z0, n_max)
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(projected_energy - ones_energy) <= 1e-12 * unit
        assert np.max(np.abs(projected_vector - ones_vector)) <= 1e-10

    def test_projected_start_needs_fewer_matvecs(self, monkeypatch):
        # 2z0 = 16 um, n_max 30: the cold solve from the mean-field start
        # against the same solve from all ones
        counts = sa_matvec_counts(monkeypatch)
        z0 = 8.0e-6
        config = reference_config("rr", z0=z0)
        basis_ground_state(config, z0, n_max=30)
        lowest_pair(config, z0, 30)
        projected, _, ones = counts
        assert projected < ones

    def test_benchmark_jobs_keep_their_application_budget(self, monkeypatch):
        # the four benchmark density jobs take 38/10/4/32 lowest-pair
        # applications (solve and check) on a 2-core OpenBLAS host from
        # starts built on the factor stacks (41/14/4/31 from starts built
        # on the node grid, 39/17/5/32 with a cross per solve, 42/15/5/35
        # through the grid action); the quadrature gate is a bound, with
        # no Lanczos, and each basis size's one cross has rank 6 or 7
        counts = lanczos_counts(monkeypatch)
        cross = motion._cross
        ranks = []

        def recording(w):
            result = cross(w)
            ranks.append(result[0].size)
            return result

        monkeypatch.setattr(motion, "_cross", recording)
        for separation_um, n_max in [(12, 30), (16, 30), (24, 30), (12, 40)]:
            z0 = 0.5e-6 * separation_um
            basis_ground_state(reference_config("rr", z0=z0), z0, n_max=n_max)
        assert len(counts["SA"]) == 8
        assert len(ranks) == 4
        assert sum(counts["SA"]) <= 97
        assert max(ranks) <= 9

    @pytest.mark.parametrize("pair", ["rr", "rg"])
    @pytest.mark.parametrize("n_max, separation_um", [(8, 12), (12, 12), (8, 16), (12, 16)])
    def test_ground_state_solves_the_leading_block(self, pair, n_max, separation_um):
        # the solve at n runs on the leading (n + 1)^2 block of the n + 4
        # operator: indices n1, n2 <= n of the flat n1 (n + 5) + n2 layout.
        # By Cauchy interlacing its energy lies above the n + 4 one (at
        # 2z0 = 12 um both n_max ramp to 50)
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        state = basis_ground_state(config, z0, n_max=n_max)
        n, big = state.n_max, state.n_max + motion._CONVERGENCE_STEP
        kept = (np.arange(n + 1)[:, None] * (big + 1) + np.arange(n + 1)).ravel()
        block = axial_hamiltonian_matrix(config, z0, big)[np.ix_(kept, kept)]
        unit = cst.HBAR * config.atom_trap.axial
        assert abs(state.energy - np.linalg.eigvalsh(block)[0]) <= 1e-12 * unit
        assert state.energy >= lowest_pair(config, z0, big)[0] - 1e-12 * unit

    @pytest.mark.parametrize("n_max", [1, 30, 56, 60])
    def test_bare_product_state_projects_onto_e00(self, n_max):
        # without an interaction the mean-field start is the bare product
        # state e_00, from zero stacks of rank 0 (the cross of a zero grid)
        # or of any other rank; n_max 60 is _MAX_BASIS
        for rank in (0, 2):
            zero = np.zeros((rank, n_max + 1, n_max + 1))
            start, orbital = motion._mean_field_start(zero, zero)
            assert abs(start[0]) == 1.0
            assert np.max(np.abs(start[1:])) == 0.0
            assert np.array_equal(np.abs(orbital), np.eye(n_max + 1)[0])

    @pytest.mark.parametrize("pair", ["rr", "rg", "gg"])
    @pytest.mark.parametrize("n_max, separation_um", [(n_max, separation_um)
                                                      for n_max in (30, 40)
                                                      for separation_um in (11.2, 12, 16, 24)])
    def test_factor_start_matches_the_node_grid_start(self, pair, n_max, separation_um):
        # both starts of a basis size, at n and the check's at n + 4 seeded
        # with the orbital at n, from the operator's factor stacks and from
        # its order-(4n + 40) node grid through oracles.mean_field_start
        z0 = 0.5e-6 * separation_um
        config = reference_config(pair, z0=z0)
        n, big = n_max + 1, n_max + motion._CONVERGENCE_STEP
        _, a, b = motion._pair_solver(config, z0, big, None)
        start, orbital = motion._mean_field_start(a[:, :n, :n], b[:, :n, :n])
        check, _ = motion._mean_field_start(a, b, orbital)
        fine = motion._quadrature(config, z0, big, 4 * big + _QUAD_MARGIN + 16,
                                  partial(axial_interaction, config=config))
        expected, nodes = oracles.mean_field_start(fine.q[:, :n], fine.grid)
        expected_check, _ = oracles.mean_field_start(fine.q, fine.grid, nodes)
        for got, want in ((start, expected), (check, expected_check)):
            got, want = unit_lead_positive(got), unit_lead_positive(want)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_unstable_quadratic_limit_starts_from_the_bare_product(self, monkeypatch):
        # the start no longer depends on the quadratic limit: its Hartree
        # iterations begin from the bare product state, so a quadratic
        # limit that is unstable leaves the ground state bit for bit
        z0 = 6.0e-6
        config = reference_config("rr", z0=z0)
        expected = basis_ground_state(config, z0, n_max=20)

        def unstable(config, z0):
            raise InstabilityError("unstable")

        monkeypatch.setattr(motion, "gaussian_ground_state", unstable)
        state = basis_ground_state(config, z0, n_max=20)
        assert state.energy == expected.energy
        assert np.array_equal(state.coefficients, expected.coefficients)

    def test_check_start_reuses_the_orbital_at_n_max(self, monkeypatch):
        # the check at n + 4 begins its Hartree iterations from atom 2's
        # orbital at n, n + 1 coefficients over the leading blocks of the
        # same stacks
        z0 = 8.0e-6
        config = reference_config("rg", z0=z0)
        build = motion._mean_field_start
        calls = []

        def recording(a, b, orbital=None):
            result = build(a, b, orbital)
            calls.append((a.shape, b.shape, orbital, result[1]))
            return result

        monkeypatch.setattr(motion, "_mean_field_start", recording)
        basis_ground_state(config, z0, n_max=30)
        (first_a, first_b, first_orbital, first_out), (check_a, check_b, check_orbital, _) = calls
        assert first_a == first_b and check_a == check_b
        assert first_a[0] == check_a[0]
        assert (first_a[1:], check_a[1:]) == ((31, 31), (35, 35))
        assert first_orbital is None and check_orbital is first_out
        assert first_out.shape == (31,)

    @pytest.mark.parametrize("bad", ["overflow", "zero"])
    def test_unusable_start_falls_back_to_all_ones(self, cfg_rg, bad, monkeypatch):
        z0 = cfg_rg.half_separation_z0
        a, b = start_stacks(cfg_rg, z0, 12)
        if bad == "overflow":
            a, b = np.full_like(a, 1e308), np.full_like(b, 1e308)
        else:
            eigh = np.linalg.eigh

            def zero_vectors(a):
                values, vectors = eigh(a)
                return values, 0.0 * vectors

            monkeypatch.setattr(np.linalg, "eigh", zero_vectors)
        start, _ = motion._mean_field_start(a, b)
        assert start is None

    def test_all_ones_fallback_reaches_the_same_ground_state(self, cfg_rg, monkeypatch):
        z0 = cfg_rg.half_separation_z0
        expected = basis_ground_state(cfg_rg, z0, n_max=20)
        build = motion._mean_field_start
        monkeypatch.setattr(motion, "_mean_field_start",
                            lambda a, b, orbital=None: (None, build(a, b, orbital)[1]))
        state = basis_ground_state(cfg_rg, z0, n_max=20)
        unit = cst.HBAR * cfg_rg.atom_trap.axial
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

    @pytest.mark.parametrize("n_max, at_threshold, error", [(-1, False, ConfigError),
                                                            (61, False, ConfigError),
                                                            (8, True, InstabilityError)])
    def test_both_solvers_refuse_alike(self, cfg_rr, n_max, at_threshold, error):
        z0 = axial_collision_threshold(cfg_rr) if at_threshold else cfg_rr.half_separation_z0
        messages = []
        for solver in (axial_hamiltonian_matrix, lowest_pair):
            with pytest.raises(error) as caught:
                solver(cfg_rr, z0, n_max)
            assert type(caught.value) is error
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_neither_solver_folds_constants_into_an_injected_potential(self, cfg_rr):
        # a zero interaction leaves the bare axial ladder hbar w_az (n1 + n2 + 1)
        z0 = cfg_rr.half_separation_z0
        unit = cst.HBAR * cfg_rr.atom_trap.axial

        def zero(z1, z2):
            return np.zeros(np.broadcast(z1, z2).shape)

        h = axial_hamiltonian_matrix(cfg_rr, z0, 3, potential_fn=zero)
        levels = np.add.outer(np.arange(4), np.arange(4)).ravel() + 1.0
        np.testing.assert_array_equal(h, np.diag(unit * levels))
        energy, _, _ = lowest_pair(cfg_rr, z0, 3, potential_fn=zero)
        assert energy == pytest.approx(unit, rel=1e-12)

    def test_constant_potential_may_return_a_scalar(self, cfg_rr):
        # a constant shifts every level; the grids and the cross lines
        # broadcast it to their shapes
        unit = cst.HBAR * cfg_rr.atom_trap.axial
        energy, _, drift = lowest_pair(cfg_rr, cfg_rr.half_separation_z0, 3,
                                       potential_fn=lambda z1, z2: 0.5 * unit)
        assert energy == pytest.approx(1.5 * unit, rel=1e-12)
        assert drift < 1e-12

    @pytest.mark.parametrize("z0, error", [(0.0, InstabilityError), (5.0e-6, InstabilityError),
                                           (float("nan"), ConfigError),
                                           (float("inf"), ConfigError), (5e293, ConfigError)])
    def test_refused_half_separations_keep_their_errors(self, cfg_rr, z0, error):
        # whatever the start (the Gaussian, the bare product, or all ones
        # where neither projects to finite numbers), lowest_pair reports
        # the fault
        with pytest.raises(error):
            basis_ground_state(cfg_rr, z0, n_max=4)


def tilt(config):
    """0.3 hbar w_az xi1: atom 1 alone, in local oscillator units."""
    z0 = config.half_separation_z0
    a_z = math.sqrt(cst.HBAR / (config.atom.mass * config.atom_trap.axial))
    unit = cst.HBAR * config.atom_trap.axial
    return lambda z1, z2: 0.3 * unit * (z1 - z0) / a_z + 0.0 * z2


def stiffening(config):
    """A stiffer harmonic trap per atom: a sum of two single-atom terms."""
    z0 = config.half_separation_z0
    dw_sq = 0.1 * config.atom_trap.axial ** 2
    return lambda z1, z2: 0.5 * config.atom.mass * dw_sq * ((z1 - z0) ** 2 + (z2 + z0) ** 2)


def zero(config):
    """No interaction, as an array of the broadcast shape."""
    return lambda z1, z2: np.zeros(np.broadcast(z1, z2).shape)


def separated(config, z0, n_max, order, potential_fn):
    """The quadrature rule of that order, the cross of its grid, and the
    cross functions and separation error there."""
    quadrature = motion._quadrature(config, z0, n_max, order, potential_fn)
    cross = motion._cross(quadrature.potential)
    unit = cst.HBAR * config.atom_trap.axial
    return (quadrature, cross) + motion._cross_functions(quadrature, quadrature, cross,
                                                         potential_fn, unit)


BENCHMARK_GRIDS = [
    # (2z0 um, basis, order) of the four benchmark density jobs: the fine
    # grid of lowest_pair at n_max, and that of basis_ground_state's one
    # operator, over the n_max + 4 basis at order 4n + 40
    (separation_um, n_max + step, 4 * n_max + _QUAD_MARGIN + 16 + 4 * step)
    for separation_um, n_max in [(12, 30), (16, 30), (24, 30), (12, 40)]
    for step in (0, 4)
]


class TestSeparatedInteraction:
    @pytest.mark.parametrize("pair", ["rr", "rg", "gg"])
    @pytest.mark.parametrize("n_max", [1, 4, 12])
    def test_bound_covers_the_dense_drift(self, pair, n_max):
        # U >= ||D||_2 in exact arithmetic, with D from the dense blocks
        z0 = 6.0e-6
        config = reference_config(pair, z0=z0)
        self.assert_bound_covers_the_drift(config, z0, n_max,
                                           partial(axial_interaction, config=config))

    @pytest.mark.parametrize("width, n_max", [(0.7, 8), (1.0, 4), (1.5, 2)])
    def test_bound_covers_a_resolved_drift(self, cfg_rr, width, n_max):
        self.assert_bound_covers_the_drift(cfg_rr, cfg_rr.half_separation_z0, n_max,
                                           gaussian_bump(cfg_rr, width))

    @staticmethod
    def assert_bound_covers_the_drift(config, z0, n_max, potential_fn):
        order = 4 * n_max + _QUAD_MARGIN
        coarse = motion._quadrature(config, z0, n_max, order, potential_fn)
        fine = motion._quadrature(config, z0, n_max, order + 16, potential_fn)
        coarse, fine = _dense_block(coarse.q, coarse.grid), _dense_block(fine.q, fine.grid)
        scale = max(np.max(np.abs(np.diag(fine))), np.max(np.abs(fine[:, 0])))
        norm = np.max(np.abs(np.linalg.eigvalsh(coarse - fine)))
        _, _, drift = lowest_pair(config, z0, n_max, potential_fn=potential_fn)
        assert drift * scale >= norm

    @pytest.mark.parametrize("separation_um, n_max, order", BENCHMARK_GRIDS)
    def test_separated_action_matches_the_grid_action(self, separation_um, n_max, order):
        # the solver's factors, the cross's own x_k and y_k, are off by at
        # most e_hi ||C||_F in exact arithmetic; rounding adds about
        # eps max|W| per rank-one term
        z0 = 0.5e-6 * separation_um
        config = reference_config("rr", z0=z0)
        quadrature = motion._quadrature(config, z0, n_max, order,
                                        partial(axial_interaction, config=config))
        rows, _, x, y = motion._cross(quadrature.potential)
        error = np.max(np.abs(quadrature.potential - x @ y.T))
        a, b = motion._stack(quadrature, x), motion._stack(quadrature, y)
        c = np.random.default_rng(order).normal(size=(n_max + 1, n_max + 1))
        action = sum(a_k @ c @ b_k for a_k, b_k in zip(a, b))
        expected = oracles.block_action(quadrature.q, quadrature.grid, c)
        rounding = rows.size * np.finfo(float).eps * np.max(np.abs(quadrature.potential))
        assert np.linalg.norm(action - expected) <= (error + rounding) * np.linalg.norm(c)

    @pytest.mark.parametrize("potential, rank", [(zero, 0), (tilt, 1), (gaussian_bump, 1),
                                                 (kink, 2), (stiffening, 2)])
    def test_rank_of_separable_potentials(self, cfg_rr, potential, rank):
        potential_fn = (partial(potential, width=1.0) if potential is gaussian_bump
                        else potential)(cfg_rr)
        *_, (rows, _, _, _), _, _, error = separated(cfg_rr, cfg_rr.half_separation_z0, 4, 40,
                                                     potential_fn)
        assert rows.size == rank
        if rank == 0:
            assert error == 0.0

    @pytest.mark.parametrize("separation_um, n_max, order", BENCHMARK_GRIDS)
    def test_recurrence_reproduces_the_cross_factors(self, separation_um, n_max, order):
        # at the pivot order the LU recurrence and the elimination form the
        # same columns x_k and rows p_k y_k, up to one rounding per term
        z0 = 0.5e-6 * separation_um
        config = reference_config("rr", z0=z0)
        quadrature, (rows, _, x_cross, y_cross), x, y, error = separated(
            config, z0, n_max, order, partial(axial_interaction, config=config))
        pivots = x_cross[rows, np.arange(rows.size)]
        rounding = rows.size * np.finfo(float).eps * np.max(np.abs(quadrature.potential))
        assert np.max(np.abs(x - x_cross)) <= rounding
        assert np.max(np.abs((y - y_cross) * pivots)) <= rounding
        assert error <= 4.0 * np.finfo(float).eps * np.max(np.abs(quadrature.potential))


def random_symmetric(n, seed):
    """A random symmetric operator on (n, n) matrices and its dense matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n * n, n * n))
    a = a + a.T
    return (lambda c: (a @ c.ravel()).reshape(n, n)), a


class TestLanczos:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_the_dense_eigenpair(self, n):
        # dimensions 1 and 4 (n_max 0 and 1, solved densely before) end with
        # an invariant Krylov space; the dimension n^2 is never 2
        apply, a = random_symmetric(n, seed=n)
        values, vectors = np.linalg.eigh(a)
        theta, vector = motion._extreme_pair(apply, n)
        assert abs(theta - values[0]) <= 1e-12 * np.max(np.abs(values))
        assert abs(abs(vector @ vectors[:, 0]) - 1.0) <= 1e-12

    def test_exact_eigenvector_start_stops_at_the_first_step(self):
        levels = np.array([[3.0, 1.0], [4.0, 2.0]])
        calls = []

        def diagonal(c):
            calls.append(1)
            return levels * c

        start = np.zeros(4)
        start[1] = 2.0
        theta, vector = motion._extreme_pair(diagonal, 2, start)
        assert len(calls) == 1
        assert theta == 1.0
        assert np.array_equal(vector, [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_output_is_an_accuracy_error(self, bad):
        apply, _ = random_symmetric(4, seed=1)
        calls = []

        def failing(c):
            calls.append(1)
            out = apply(c)
            if len(calls) == 3:
                out[1, 2] = bad
            return out

        with pytest.raises(AccuracyError, match="not finite"):
            motion._extreme_pair(failing, 4)

    def test_step_cap_is_an_accuracy_error(self, monkeypatch):
        # a random operator of dimension 400 needs far more than 16 steps
        apply, _ = random_symmetric(20, seed=2)
        monkeypatch.setattr(motion, "_LANCZOS_STEPS", 16)
        with pytest.raises(AccuracyError, match="not converged in 16 steps"):
            motion._extreme_pair(apply, 20)

    @pytest.mark.parametrize("n_max, separation_um", [(30, 12), (30, 16), (30, 24), (40, 12)])
    def test_arpack_agrees_on_the_benchmark_jobs(self, n_max, separation_um, monkeypatch):
        z0 = 0.5e-6 * separation_um
        config = reference_config("rr", z0=z0)
        lanczos = basis_ground_state(config, z0, n_max=n_max)
        monkeypatch.setattr(motion, "_extreme_pair", oracles.arpack_pair)
        arpack = basis_ground_state(config, z0, n_max=n_max)
        unit = cst.HBAR * config.atom_trap.axial
        assert lanczos.n_max == arpack.n_max == n_max
        assert abs(lanczos.energy - arpack.energy) <= 1e-12 * unit
        assert np.max(np.abs(lanczos.coefficients - arpack.coefficients)) <= 1e-10
