"""Gauge connection structure, oracle comparison, and loop transport."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

import oracles
from ionbridge import (
    AtomPairGeometry,
    ConfigError,
    GaugeConnection,
    IonModeIndex,
    LoopPath,
    SingularGeometryError,
    Species,
    TrapFrequencies,
    berry_phase,
    cartesian_modes,
    connection_matrix,
    connection_records,
    constants as cst,
    displacement_jacobian,
    gauge_hermiticity_check,
    ion_displacement,
    square_loop,
    wilson_loop,
)
from ionbridge.gauge import _jacobian, _ladder_derivatives
from ionbridge.motion import hermite_values


def quantum_numbers(mode):
    return (mode.n1, mode.n2, mode.n3)


def selection_allowed(bra, ket):
    steps = sorted(abs(b - k) for b, k in zip(quantum_numbers(bra), quantum_numbers(ket)))
    return steps == [0, 0, 1]


def displaced_overlap_1d(n_bra, n_ket, d_bra, d_ket, length, order=80):
    """<phi_bra(x - d_bra)|phi_ket(x - d_ket)> by Gauss-Hermite quadrature."""
    xs, ws = hermgauss(order)
    mid = 0.5 * (d_bra + d_ket) / length
    xi = xs + mid
    u_bra = xi - d_bra / length
    u_ket = xi - d_ket / length
    p_bra = hermite_values(n_bra, u_bra)[:, n_bra]
    p_ket = hermite_values(n_ket, u_ket)[:, n_ket]
    integrand = p_bra * p_ket * np.exp(-0.5 * u_bra**2 - 0.5 * u_ket**2 + xs**2)
    return float(np.sum(ws * integrand))


def displacement_element(m, n, alpha):
    """<m|D(alpha)|n> for real alpha (Cahill and Glauber, Phys. Rev. 177, 1857 (1969))."""
    lo, hi = min(m, n), max(m, n)
    sign = 1.0 if m >= n else (-1.0) ** (hi - lo)
    return (sign * math.sqrt(math.factorial(lo) / math.factorial(hi)) * alpha ** (hi - lo)
            * math.exp(-0.5 * alpha**2) * eval_genlaguerre(lo, hi - lo, alpha**2))


def open_path(config, end1=(0.5e-6, 1.0e-6, -2.5e-6)):
    """Three waypoints from the trap centers; atom 1 ends at ``end1`` from its center."""
    z0 = config.half_separation_z0
    return LoopPath(np.array([
        [[0.0, 0.0, z0], [0.0, 0.0, -z0]],
        [[1.5e-6, -0.5e-6, z0 - 1.0e-6], [0.3e-6, 0.0, -z0 + 0.5e-6]],
        [np.add(end1, [0.0, 0.0, z0]), [-0.4e-6, 0.6e-6, -z0 - 1.0e-6]],
    ]))


def oracle_gauge_element(bra, ket, atom_index, geometry, config, axis, delta=1e-9):
    """i hbar <ket| d/dr |bra> from displaced-state overlaps, no ladder algebra."""
    m_i = config.ion.mass
    lengths = [
        np.sqrt(cst.HBAR / (m_i * w))
        for w in (config.ion_trap.radial, config.ion_trap.radial, config.ion_trap.axial)
    ]

    def displacement_of(shift):
        r1, r2 = geometry.r1.copy(), geometry.r2.copy()
        if atom_index == 1:
            r1 = r1 + shift
        else:
            r2 = r2 + shift
        return ion_displacement(AtomPairGeometry(r1, r2), config).as_array()

    step = np.zeros(3)
    step[axis] = delta
    d_center = displacement_of(np.zeros(3))
    bra_q, ket_q = quantum_numbers(bra), quantum_numbers(ket)

    def overlap(d_bra):
        value = 1.0
        for a in range(3):
            value *= displaced_overlap_1d(bra_q[a], ket_q[a], d_bra[a], d_center[a],
                                          lengths[a])
        return value

    derivative = (overlap(displacement_of(step)) - overlap(displacement_of(-step))) \
        / (2.0 * delta)
    return 1j * cst.HBAR * derivative


class TestConnectionStructure:
    @pytest.fixture
    def geom(self, cfg_rr):
        return AtomPairGeometry.at_trap_centers(cfg_rr)

    def test_jacobian_matches_finite_differences(self, cfg_rg, geom):
        jac = displacement_jacobian(1, geom, cfg_rg)
        h = 1e-10
        for b in range(3):
            shift = np.zeros(3)
            shift[b] = h
            plus = ion_displacement(
                AtomPairGeometry(geom.r1 + shift, geom.r2), cfg_rg).as_array()
            minus = ion_displacement(
                AtomPairGeometry(geom.r1 - shift, geom.r2), cfg_rg).as_array()
            np.testing.assert_allclose(jac[:, b], (plus - minus) / (2 * h),
                                       rtol=1e-5, atol=1e-12)

    def test_ion_length_out_of_the_float_range_is_a_config_error(self, cfg_rr, geom):
        # m_i * omega overflows, so hbar / (m_i * omega) is 0
        heavy = dataclasses.replace(cfg_rr, ion=Species("heavy", 1e160),
                                    ion_trap=TrapFrequencies(1e150, 1e150))
        with pytest.raises(ConfigError, match="oscillator lengths"):
            connection_matrix(cartesian_modes(1), 1, geom, heavy)

    def test_diagonal_vanishes(self, cfg_rr, geom):
        modes = cartesian_modes(2)
        conn = connection_matrix(modes, 1, geom, cfg_rr)
        for i in range(len(modes)):
            assert np.max(np.abs(conn[i, i])) == 0.0

    def test_selection_rule_is_exact(self, cfg_rr, geom):
        modes = cartesian_modes(2)
        conn = connection_matrix(modes, 2, geom, cfg_rr)
        for i, bra in enumerate(modes):
            for k, ket in enumerate(modes):
                if not selection_allowed(bra, ket):
                    assert np.max(np.abs(conn[i, k])) == 0.0

    def test_hermitian_and_purely_imaginary(self, cfg_rr, geom):
        modes = cartesian_modes(3)
        assert gauge_hermiticity_check(modes, geom, cfg_rr) == 0.0
        conn = connection_matrix(modes, 1, geom, cfg_rr)
        assert np.max(np.abs(conn.real)) == 0.0

    def test_element_scales_linearly_with_c4(self, cfg_rr, geom):
        doubled = dataclasses.replace(
            cfg_rr, coefficients=dataclasses.replace(cfg_rr.coefficients,
                                                     c4_ground=2 * cfg_rr.coefficients.c4_ground))
        bra = IonModeIndex.cartesian(0, 0, 0)
        ket = IonModeIndex.cartesian(0, 0, 1)
        base = oracles.gauge_element(bra, ket, 1, geom, cfg_rr)
        twice = oracles.gauge_element(bra, ket, 1, geom, doubled)
        np.testing.assert_allclose(twice, 2 * base, rtol=1e-12)

    def test_cylindrical_modes_rejected(self, cfg_rr, geom):
        with pytest.raises(ConfigError):
            oracles.gauge_element(IonModeIndex.cylindrical(0, 0, 0),
                                  IonModeIndex.cylindrical(0, 0, 1), 1, geom, cfg_rr)

    @pytest.mark.parametrize("modes, message", [
        (cartesian_modes(1) + cartesian_modes(0), "distinct"),  # D antisymmetric only then
        ([], "at least one"),
    ])
    def test_repeated_or_no_modes_rejected(self, cfg_rr, geom, modes, message):
        with pytest.raises(ConfigError, match=message):
            connection_matrix(modes, 1, geom, cfg_rr)
        with pytest.raises(ConfigError, match=message):
            connection_records(modes, geom, cfg_rr)
        with pytest.raises(ConfigError, match=message):
            gauge_hermiticity_check(modes, geom, cfg_rr)
        with pytest.raises(ConfigError, match=message):
            wilson_loop(open_path(cfg_rr), modes, cfg_rr)

    @pytest.mark.parametrize("max_n", [0, 1, 2, 3])
    def test_ladder_derivatives_are_exactly_antisymmetric(self, cfg_rr, max_n):
        # the structural zero that gauge_hermiticity_check reports
        modes = cartesian_modes(max_n)
        shuffled = [modes[k] for k in np.random.default_rng(max_n).permutation(len(modes))]
        for mode_list in (modes, shuffled):
            d = _ladder_derivatives(mode_list, cfg_rr)
            assert np.array_equal(d, -d.transpose(0, 2, 1))

    def test_element_consistent_with_matrix_slice(self, cfg_rr, geom):
        modes = cartesian_modes(1)
        conn = connection_matrix(modes, 1, geom, cfg_rr)
        for i, bra in enumerate(modes):
            for k, ket in enumerate(modes):
                if i == k:
                    continue
                single = oracles.gauge_element(bra, ket, 1, geom, cfg_rr)
                np.testing.assert_array_equal(single, conn[i, k])

    def test_records_are_immutable_named_tuples(self, cfg_rr, geom):
        records = connection_records(cartesian_modes(1), geom, cfg_rr)
        assert GaugeConnection._fields == ("bra_mode", "ket_mode", "atom_index", "value")
        for record in records:
            assert type(record) is GaugeConnection
            assert tuple(record) == (record.bra_mode, record.ket_mode,
                                     record.atom_index, record.value)
        for field in GaugeConnection._fields:
            with pytest.raises(AttributeError):
                setattr(records[0], field, None)

    def test_records_are_the_matrix_elements_row_major(self, cfg_rg):
        geom = AtomPairGeometry.at_trap_centers(cfg_rg)
        modes = cartesian_modes(2)
        records = connection_records(modes, geom, cfg_rg)
        assert len(records) == 2 * len(modes) ** 2
        for atom_index in (1, 2):
            conn = connection_matrix(modes, atom_index, geom, cfg_rg)
            block = records[(atom_index - 1) * len(modes) ** 2:atom_index * len(modes) ** 2]
            expected = [(bra, ket, i, k) for i, bra in enumerate(modes)
                        for k, ket in enumerate(modes)]
            for record, (bra, ket, i, k) in zip(block, expected):
                assert record.bra_mode == bra and record.ket_mode == ket
                assert record.atom_index == atom_index
                np.testing.assert_array_equal(record.value, conn[i, k])


class TestOracleComparison:
    def test_elements_match_quadrature_derivative(self, cfg_rr):
        # off-center geometry so every Jacobian entry is exercised
        geom = AtomPairGeometry(np.array([0.4e-6, -0.3e-6, 7.8e-6]),
                                np.array([0.2e-6, 0.1e-6, -8.1e-6]))
        m000 = IonModeIndex.cartesian(0, 0, 0)
        kets = [IonModeIndex.cartesian(*t)
                for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        scale = max(
            np.max(np.abs(oracles.gauge_element(m000, ket, atom, geom, cfg_rr)))
            for ket in kets for atom in (1, 2)
        )
        for atom in (1, 2):
            for ket in kets:
                analytic = oracles.gauge_element(m000, ket, atom, geom, cfg_rr)
                for axis in range(3):
                    numeric = oracle_gauge_element(m000, ket, atom, geom, cfg_rr, axis)
                    assert abs(numeric - analytic[axis]) <= 1e-6 * max(
                        abs(analytic[axis]), 1e-3 * scale)


class TestLoops:
    def test_waypoint_validation(self):
        with pytest.raises(ConfigError):
            LoopPath(np.zeros((1, 2, 3)))
        open_path = np.array([
            [[0.0, 0.0, 8e-6], [0.0, 0.0, -8e-6]],
            [[1e-6, 0.0, 8e-6], [0.0, 0.0, -8e-6]],
        ])
        LoopPath(open_path)  # fine as an open path

    @pytest.mark.parametrize("end1, error, message", [
        ([1e39, 0.0, 8e-6], ConfigError, "1e38 m"),
        ([np.nan, 0.0, 8e-6], ConfigError, "1e38 m"),
        ([1e-6, 0.0, -8e-6], SingularGeometryError, "coincident atoms"),
    ])
    def test_the_path_is_checked_when_it_is_built(self, end1, error, message):
        r2 = [1e-6, 0.0, -8e-6]
        with pytest.raises(error, match=message):
            LoopPath(np.array([[[0.0, 0.0, 8e-6], r2], [end1, r2]]))

    def test_closed_when_the_path_ends_where_it_starts(self, cfg_rr):
        assert square_loop(cfg_rr).closed is True
        assert open_path(cfg_rr).closed is False

    def test_segments_cover_the_path(self, cfg_rr):
        loop = square_loop(cfg_rr, side=2e-6)
        for subdivide in (1, 3):
            deltas = [d for _, d in oracles.segments(loop, subdivide)]
            np.testing.assert_allclose(np.sum(deltas, axis=0), np.zeros((2, 3)),
                                       atol=1e-18)

    def test_berry_phase_vanishes(self, cfg_rr):
        loop = square_loop(cfg_rr, side=1e-6)
        for mode in (IonModeIndex.cartesian(0, 0, 0), IonModeIndex.cartesian(1, 0, 1)):
            assert abs(berry_phase(loop, mode, cfg_rr)) <= 1e-8

    def test_berry_phase_matches_the_per_segment_sum(self, cfg_rr):
        # the line integral of the diagonal element, one geometry per segment
        loop = square_loop(cfg_rr, side=1e-6)
        for mode in cartesian_modes(1):
            for subdivide in (1, 2):
                total = 0.0j
                for mid, delta in oracles.segments(loop, subdivide):
                    geom = AtomPairGeometry(mid[0], mid[1])
                    for atom in (1, 2):
                        element = oracles.gauge_element(mode, mode, atom, geom, cfg_rr)
                        total += np.dot(element, delta[atom - 1])
                integral = oracles.diagonal_integral(loop, mode, cfg_rr, subdivide)
                assert integral == total.real / cst.HBAR

    @pytest.mark.parametrize("side", [0.2e-6, 1e-6, 4e-6])
    def test_berry_phase_is_the_line_integral(self, cfg_rg, side):
        # the exact zero the integral sums to, +0.0 and never -0.0
        loop = square_loop(cfg_rg, side=side)
        for mode in cartesian_modes(2):
            phase = berry_phase(loop, mode, cfg_rg)
            assert phase == oracles.diagonal_integral(loop, mode, cfg_rg, 2) == 0.0
            assert np.copysign(1.0, phase) == 1.0

    def test_berry_phase_rejects_cylindrical_modes(self, cfg_rr):
        with pytest.raises(ConfigError, match="Cartesian"):
            berry_phase(square_loop(cfg_rr), IonModeIndex.cylindrical(0, 0, 0), cfg_rr)

    def test_twice_subdivided_midpoint_on_the_ion_is_singular(self):
        # each leg's own midpoint is clear of the ion; its first half's is not
        r2 = [0.0, 0.0, -8e-6]
        waypoints = np.array([[[-1e-6, 0.0, 0.0], r2], [[3e-6, 0.0, 0.0], r2],
                              [[-1e-6, 0.0, 0.0], r2]])
        mids = 0.5 * (waypoints[:-1] + waypoints[1:])
        assert np.all(np.linalg.norm(mids[:, 0], axis=1) > 0.0)
        with pytest.raises(SingularGeometryError, match="ion-trap center"):
            LoopPath(waypoints)

    def test_batched_jacobian_matches_each_geometry(self, cfg_rg):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(6, 3)) * 1e-6 + [0.0, 0.0, 8e-6]
        r2 = np.array([0.0, 0.0, -8e-6])
        for atom, c4 in ((1, cfg_rg.c4_pair[0]), (2, cfg_rg.c4_pair[1])):
            batch = _jacobian(points, c4, cfg_rg)
            for point, jac in zip(points, batch):
                geom = AtomPairGeometry(point, r2) if atom == 1 else AtomPairGeometry(r2, point)
                np.testing.assert_array_equal(jac, displacement_jacobian(atom, geom, cfg_rg))

    def test_loop_through_the_ion_is_singular(self):
        # atom 1 crosses the ion-trap center: a segment midpoint lands on it
        r2 = [0.0, 0.0, -8e-6]
        with pytest.raises(SingularGeometryError, match="ion-trap center"):
            LoopPath(np.array([[[-1e-6, 0.0, 0.0], r2], [[1e-6, 0.0, 0.0], r2],
                               [[-1e-6, 0.0, 0.0], r2]]))
        # an open path that ends on the ion-trap center
        with pytest.raises(SingularGeometryError, match="ion-trap center"):
            LoopPath(np.array([[[1e-6, 0.0, 0.0], r2], [[0.0, 0.0, 0.0], r2]]))

    def test_a_crossing_anywhere_on_a_leg_is_singular(self):
        # atom 1 crosses the ion-trap center at 1/6 of the leg, where no quarter point
        # lands; test_twice_subdivided_midpoint_on_the_ion_is_singular has the loop to 3 um
        r2 = [0.0, 0.0, -8e-6]
        with pytest.raises(SingularGeometryError, match="ion-trap center on the leg from "
                                                        "waypoint 0 to 1"):
            LoopPath(np.array([[[-1e-6, 0.0, 0.0], r2], [[5e-6, 0.0, 0.0], r2],
                               [[-1e-6, 0.0, 0.0], r2]]))

    def test_a_crossing_is_refused_whatever_the_rounding(self):
        # in a skew direction the computed closest point misses the center by rounding
        rng = np.random.default_rng(11)
        r2 = [0.0, 0.0, -8e-6]
        for _ in range(50):
            direction = rng.normal(size=3)
            direction *= 1e-6 / np.linalg.norm(direction)
            fraction = rng.uniform(0.05, 0.95)
            with pytest.raises(SingularGeometryError, match="ion-trap center"):
                LoopPath(np.array([[-fraction * direction, r2],
                                   [(5.0 - fraction) * direction, r2]]))

    def test_atoms_passing_through_each_other_are_singular(self):
        # r1 - r2 runs from (-1, 0, 0) um to (5, 0, 0) um on the second leg
        r2 = [0.0, 0.0, 8e-6]
        with pytest.raises(SingularGeometryError, match="coincident atoms on the leg from "
                                                        "waypoint 1 to 2"):
            LoopPath(np.array([[[1e-6, 0.0, 7e-6], r2], [[-1e-6, 0.0, 8e-6], r2],
                               [[5e-6, 0.0, 8e-6], r2]]))

    def test_a_leg_one_nanometer_off_the_center_is_kept(self):
        r2 = [0.0, 0.0, -8e-6]
        waypoints = np.array([[[-1e-6, 1e-9, 0.0], r2], [[5e-6, 1e-9, 0.0], r2],
                              [[5e-6, 1e-9, 3e-6], r2], [[-1e-6, 1e-9, 0.0], r2]])
        assert LoopPath(waypoints).closed is True

    def test_berry_phase_needs_closed_loop(self, cfg_rr):
        path = LoopPath(np.array([
            [[0.0, 0.0, 8e-6], [0.0, 0.0, -8e-6]],
            [[1e-6, 0.0, 8e-6], [0.0, 0.0, -8e-6]],
        ]))
        with pytest.raises(ConfigError):
            berry_phase(path, IonModeIndex.cartesian(0, 0, 0), cfg_rr)

    @pytest.mark.parametrize("max_n", [1, 2])
    def test_wilson_loop_is_the_limit_of_the_path_ordered_product(self, cfg_rr, max_n):
        path = open_path(cfg_rr)
        modes = cartesian_modes(max_n)
        w = wilson_loop(path, modes, cfg_rr)
        errors = [np.max(np.abs(oracles.path_ordered_transport(path, modes, cfg_rr, sub) - w))
                  for sub in (8, 16, 32, 64)]
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.5 < ratios) & (ratios < 4.5)), ratios
        assert np.max(np.abs(oracles.path_ordered_transport(path, modes, cfg_rr, 512) - w)) \
            <= 1e-8

    def test_wilson_loop_unitary_and_resolved(self, cfg_rr):
        # a real orthogonal transport that is already the converged product
        for max_n in (1, 2):
            w = wilson_loop(open_path(cfg_rr), cartesian_modes(max_n), cfg_rr)
            assert w.dtype == np.float64
            np.testing.assert_allclose(w.T @ w, np.eye(len(w)), rtol=0.0, atol=1e-14)
            assert np.max(np.abs(w - np.eye(len(w)))) > 1e-2

    def test_wilson_loop_matches_the_displacement_operator(self, cfg_rr):
        # alpha_z is about -0.11: the n <= 2 block of a max_n 4 box is off by 1.4e-7
        path = open_path(cfg_rr, end1=(1.0e-6, 1.0e-6, 4e-6 - cfg_rr.half_separation_z0))
        first, last = (AtomPairGeometry(*path.waypoints[k]) for k in (0, -1))
        shift = (ion_displacement(last, cfg_rr).as_array()
                 - ion_displacement(first, cfg_rr).as_array())
        omegas = (cfg_rr.ion_trap.radial, cfg_rr.ion_trap.radial, cfg_rr.ion_trap.axial)
        lengths = np.sqrt(cst.HBAR / (cfg_rr.ion.mass * np.array(omegas)))
        alpha = -shift / (math.sqrt(2.0) * lengths)
        modes = cartesian_modes(8)
        w = wilson_loop(path, modes, cfg_rr)
        low = [i for i, mode in enumerate(modes) if max(quantum_numbers(mode)) <= 2]
        expected = [[math.prod(displacement_element(m, n, a) for m, n, a in
                               zip(quantum_numbers(modes[i]), quantum_numbers(modes[j]), alpha))
                     for j in low] for i in low]
        np.testing.assert_allclose(w[np.ix_(low, low)], expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("max_n", [1, 2, 3, 6])
    @pytest.mark.parametrize("end_z, atol", [(6e-6, 1e-14), (3e-6, 1e-14), (1.5e-6, 1e-12)])
    def test_wilson_loop_matches_expm(self, cfg_rr, max_n, end_z, atol):
        # atom 1 ends 1.5 um from the ion: the ion moves 0.9 um, alpha_z is
        # about 18, and scipy's expm is itself off by up to 3e-13 there
        z0 = cfg_rr.half_separation_z0
        path = LoopPath(np.array([[[0.0, 0.0, z0], [0.0, 0.0, -z0]],
                                  [[0.3e-6, 0.2e-6, end_z], [0.0, 0.0, -z0]]]))
        first, last = (AtomPairGeometry(*path.waypoints[k]) for k in (0, -1))
        shift = (ion_displacement(last, cfg_rr).as_array()
                 - ion_displacement(first, cfg_rr).as_array())
        modes = cartesian_modes(max_n)
        expected = expm(-np.einsum("a,aij->ji", shift, _ladder_derivatives(modes, cfg_rr)))
        np.testing.assert_allclose(wilson_loop(path, modes, cfg_rr), expected,
                                   rtol=0.0, atol=atol)

    def test_wilson_loop_near_identity_for_small_loops(self, cfg_rr):
        # the transport depends only on the endpoints, so every closed loop is exact
        for side in (0.2e-6, 1e-6, 4e-6):
            for max_n in (1, 2):
                w = wilson_loop(square_loop(cfg_rr, side=side), cartesian_modes(max_n), cfg_rr)
                assert np.array_equal(w, np.eye(len(w)))

    def test_wilson_loop_follows_the_mode_order(self, cfg_rr):
        path = open_path(cfg_rr)
        modes = cartesian_modes(2)
        order = np.random.default_rng(3).permutation(len(modes))
        w = wilson_loop(path, modes, cfg_rr)
        permuted = wilson_loop(path, [modes[k] for k in order], cfg_rr)
        np.testing.assert_allclose(permuted, w[np.ix_(order, order)], rtol=0.0, atol=1e-15)

    def test_wilson_loop_needs_a_product_mode_set(self, cfg_rr):
        path = open_path(cfg_rr)
        # {0,1} x {0,1} x {0,2} is a product set; the others are not
        wilson_loop(path, [IonModeIndex.cartesian(x, y, z)
                           for x in (0, 1) for y in (0, 1) for z in (0, 2)], cfg_rr)
        for triples in ([(0, 0, 0), (1, 0, 0), (0, 0, 1)], [(0, 0, 0), (0, 0, 0)]):
            with pytest.raises(ConfigError):
                wilson_loop(path, [IonModeIndex.cartesian(*t) for t in triples], cfg_rr)
        with pytest.raises(ConfigError, match="Cartesian"):
            wilson_loop(path, [IonModeIndex.cylindrical(0, 0, 0)], cfg_rr)
