"""Ion displacement, adiabatic eigenvalues, and the effective potential."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from ionbridge import (
    AtomPairGeometry,
    ConfigError,
    SingularGeometryError,
    axial_bo_curve,
    axial_interaction,
    bo_eigenvalue,
    bo_energy,
    characteristic_scales,
    constants as cst,
    effective_potential_U,
    ion_displacement,
    reference_config,
)
from ionbridge.motion import _QUAD_MARGIN, _gauss_hermite


def scaled_c4(config, factor):
    co = dataclasses.replace(config.coefficients,
                             c4_ground=factor * config.coefficients.c4_ground)
    return dataclasses.replace(config, coefficients=co)


class TestGeometry:
    def test_atom_on_ion_rejected(self):
        with pytest.raises(SingularGeometryError):
            AtomPairGeometry.on_axis(0.0, -8e-6)

    def test_coincident_atoms_rejected(self):
        with pytest.raises(SingularGeometryError):
            AtomPairGeometry.on_axis(5e-6, 5e-6)

    def test_eighth_power_overflow_rejected(self):
        # |r|^6 is finite at 2**128 m, but the gauge Jacobian's |r|^8 is not
        with pytest.raises(ConfigError, match="float range"):
            AtomPairGeometry.on_axis(2.0**128, -8e-6)
        with pytest.raises(ConfigError, match="float range"):
            AtomPairGeometry.on_axis(1e200, -1e200)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigError):
            AtomPairGeometry(np.zeros(2), np.zeros(3))

    def test_trap_centers(self, cfg_rr):
        geom = AtomPairGeometry.at_trap_centers(cfg_rr)
        np.testing.assert_array_equal(geom.r1, [0.0, 0.0, 8e-6])
        np.testing.assert_array_equal(geom.r2, [0.0, 0.0, -8e-6])


class TestIonDisplacement:
    def test_symmetric_pair_has_no_displacement(self, cfg_rr):
        d = ion_displacement(AtomPairGeometry.at_trap_centers(cfg_rr), cfg_rr)
        assert d.as_array().tolist() == [0.0, 0.0, 0.0]

    def test_off_axis_components_match_direct_formula(self, cfg_rg):
        r1 = np.array([0.3e-6, -0.2e-6, 7.5e-6])
        r2 = np.array([-0.1e-6, 0.4e-6, -8.2e-6])
        geom = AtomPairGeometry(r1, r2)
        d = ion_displacement(geom, cfg_rg)

        c4_1, c4_2 = cfg_rg.c4_pair
        m_i = cfg_rg.ion.mass
        pull = c4_1 * r1 / np.linalg.norm(r1) ** 6 + c4_2 * r2 / np.linalg.norm(r2) ** 6
        assert d.x0 == pytest.approx(4 * pull[0] / (m_i * cfg_rg.ion_trap.radial**2), rel=1e-12)
        assert d.y0 == pytest.approx(4 * pull[1] / (m_i * cfg_rg.ion_trap.radial**2), rel=1e-12)
        assert d.zeta0 == pytest.approx(4 * pull[2] / (m_i * cfg_rg.ion_trap.axial**2), rel=1e-12)

    def test_rg_pair_pulls_toward_rydberg_atom(self, cfg_rg):
        d = ion_displacement(AtomPairGeometry.at_trap_centers(cfg_rg), cfg_rg)
        assert d.zeta0 > 0.0  # atom 1 (+z0) holds the Rydberg state

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_displacement_linear_in_c4(self, factor):
        cfg = reference_config("rr")
        geom = AtomPairGeometry(np.array([0.2e-6, 0.0, 7e-6]),
                                np.array([0.0, -0.3e-6, -9e-6]))
        base = ion_displacement(geom, cfg).as_array()
        scaled = ion_displacement(geom, scaled_c4(cfg, factor)).as_array()
        np.testing.assert_allclose(scaled, factor * base, rtol=1e-12)


class TestBoEigenvalue:
    def test_manual_assembly(self, cfg_rg):
        geom = AtomPairGeometry(np.array([0.2e-6, 0.1e-6, 7e-6]),
                                np.array([-0.3e-6, 0.0, -8.5e-6]))
        c4_1, c4_2 = cfg_rg.c4_pair
        m_i = cfg_rg.ion.mass
        d = ion_displacement(geom, cfg_rg)
        r1 = np.linalg.norm(geom.r1)
        r2 = np.linalg.norm(geom.r2)
        expected = cfg_rg.ion_mode.bare_energy(cfg_rg.ion_trap)
        expected -= 0.5 * m_i * cfg_rg.ion_trap.radial**2 * (d.x0**2 + d.y0**2)
        expected -= 0.5 * m_i * cfg_rg.ion_trap.axial**2 * d.zeta0**2
        expected -= c4_1 / r1**4 + c4_2 / r2**4
        expected -= cfg_rg.c6_pair / np.linalg.norm(geom.r1 - geom.r2) ** 6
        assert bo_eigenvalue(geom, cfg_rg.ion_mode, cfg_rg) == pytest.approx(expected, rel=1e-13)

    def test_repulsive_c6_raises_rr_curve(self, cfg_rr):
        geom = AtomPairGeometry.on_axis(5e-6, -5e-6)
        without = dataclasses.replace(
            cfg_rr, coefficients=dataclasses.replace(cfg_rr.coefficients,
                                                     c6_rydberg_anchor=0.0))
        lift = bo_eigenvalue(geom, cfg_rr.ion_mode, cfg_rr) \
            - bo_eigenvalue(geom, cfg_rr.ion_mode, without)
        assert lift == pytest.approx(cst.PLANCK * 26.61, rel=1e-10)

    def test_excited_mode_offsets_by_bare_gap(self, cfg_rr):
        from ionbridge import IonModeIndex

        geom = AtomPairGeometry.on_axis(7e-6, -9e-6)
        ground = bo_eigenvalue(geom, IonModeIndex.cylindrical(0, 0, 0), cfg_rr)
        excited = bo_eigenvalue(geom, IonModeIndex.cylindrical(0, 0, 2), cfg_rr)
        assert excited - ground == pytest.approx(
            2 * cst.HBAR * cfg_rr.ion_trap.axial, rel=1e-9)


class TestOracleMinimization:
    def test_ion_on_atom_is_singular(self, cfg_rr):
        geom = AtomPairGeometry.at_trap_centers(cfg_rr)
        with pytest.raises(SingularGeometryError):
            oracles.exact_ion_potential(geom.r1, geom, cfg_rr)

    def test_displacement_matches_minimizer(self, cfg_rg):
        geom = AtomPairGeometry.at_trap_centers(cfg_rg)
        d = ion_displacement(geom, cfg_rg).as_array()
        energy, pos = oracles.oracle_min_ion_energy(geom, cfg_rg)
        assert pos[2] == pytest.approx(d[2], rel=1e-2)
        assert abs(pos[0]) < 1e-12 and abs(pos[1]) < 1e-12

    def test_minimum_energy_matches_eigenvalue_shift(self, cfg_rg):
        # classical minimum = (eigenvalue - bare mode energy - atom-atom term)
        geom = AtomPairGeometry.at_trap_centers(cfg_rg)
        energy, _ = oracles.oracle_min_ion_energy(geom, cfg_rg)
        shift = bo_eigenvalue(geom, cfg_rg.ion_mode, cfg_rg) \
            - cfg_rg.ion_mode.bare_energy(cfg_rg.ion_trap) \
            + cfg_rg.c6_pair / (2 * cfg_rg.half_separation_z0) ** 6
        assert energy == pytest.approx(shift, rel=1e-3)

    def test_atoms_near_origin_rejected(self, cfg_rr):
        geom = AtomPairGeometry.on_axis(0.1e-6, -8e-6)
        with pytest.raises(ValueError):
            oracles.oracle_min_ion_energy(geom, cfg_rr)


class TestEffectivePotential:
    def test_trap_terms_added(self, cfg_rr):
        geom = AtomPairGeometry(np.array([0.0, 0.0, 8.4e-6]),
                                np.array([0.1e-6, 0.0, -7.6e-6]))
        m_a = cfg_rr.atom.mass
        trap = cfg_rr.atom_trap
        expected = 0.5 * m_a * trap.axial**2 * (0.4e-6**2 + 0.4e-6**2)
        expected += 0.5 * m_a * trap.radial**2 * 0.1e-6**2
        expected += bo_eigenvalue(geom, cfg_rr.ion_mode, cfg_rr)
        got = effective_potential_U(geom, cfg_rr.ion_mode, cfg_rr)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_value_at_centers_matches_expansion_constant(self, cfg_rr, cfg_rg):
        # the constant term of the expansion: the bare mode energy, both C4
        # pulls, the ion-following term and the C6 term at 2z0
        for cfg in (cfg_rr, cfg_rg):
            z0 = cfg.half_separation_z0
            c4_1, c4_2 = cfg.c4_pair
            m_i, w_iz = cfg.ion.mass, cfg.ion_trap.axial
            expected = (cfg.ion_mode.bare_energy(cfg.ion_trap) - (c4_1 + c4_2) / z0**4
                        - 8.0 * (c4_1 - c4_2)**2 / (m_i * w_iz**2 * z0**10)
                        - cfg.c6_pair / (2.0 * z0)**6)
            geom = AtomPairGeometry.at_trap_centers(cfg)
            u0 = effective_potential_U(geom, cfg.ion_mode, cfg)
            assert u0 == pytest.approx(expected, rel=1e-13)


class TestAxialCurves:
    def test_gg_curve_is_weak(self, cfg_rr):
        grid = np.linspace(10e-6, 30e-6, 21)
        curves = axial_bo_curve(grid, cfg_rr.ion_mode, cfg_rr)
        assert np.max(np.abs(curves["V_gg"])) < cst.PLANCK * 1.0

    def test_symmetric_rr_value_against_direct_arithmetic(self, cfg_rr):
        curves = axial_bo_curve(np.array([16e-6]), cfg_rr.ion_mode, cfg_rr)
        c4 = cfg_rr.c4_pair[0]
        # symmetric placement: atoms at +-8 um, displacement exactly zero
        expected = -2 * c4 / 8e-6**4 - cfg_rr.c6_pair / 16e-6**6
        assert curves["V_rr"][0] == pytest.approx(expected, rel=1e-12)

    def test_placement_modes_differ(self, cfg_rr):
        grid = np.linspace(12e-6, 20e-6, 5)
        symmetric = axial_bo_curve(grid, cfg_rr.ion_mode, cfg_rr, placement="symmetric")
        pinned = axial_bo_curve(grid, cfg_rr.ion_mode, cfg_rr, placement="atom2-fixed")
        # the geometries coincide only where the separation equals 2 z0
        ratio = pinned["V_rg"] / symmetric["V_rg"]
        assert np.sum(np.abs(ratio - 1.0) > 1e-3) == grid.size - 1
        with pytest.raises(ConfigError):
            axial_bo_curve(grid, cfg_rr.ion_mode, cfg_rr, placement="diagonal")

    def test_gg_config_cannot_build_curves(self, cfg_gg):
        with pytest.raises(ConfigError):
            axial_bo_curve(np.array([16e-6]), cfg_gg.ion_mode, cfg_gg)

    def test_nonpositive_grid_rejected(self, cfg_rr):
        with pytest.raises(SingularGeometryError):
            axial_bo_curve(np.array([10e-6, 0.0]), cfg_rr.ion_mode, cfg_rr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("placement", ["symmetric", "atom2-fixed"])
    def test_non_finite_grid_rejected(self, cfg_rr, bad, placement):
        with pytest.raises(ConfigError, match="finite"):
            axial_bo_curve(np.array([12e-6, bad]), cfg_rr.ion_mode, cfg_rr, placement=placement)

    def test_overflow_next_to_the_ion_rejected(self, cfg_rr):
        # |r|^6 at 5e-47 m is still a normal float, but the energy overflows
        with pytest.raises(SingularGeometryError, match="overflows"):
            axial_bo_curve(np.array([12e-6, 1e-46]), cfg_rr.ion_mode, cfg_rr)
        geometry = AtomPairGeometry.on_axis(1e-50, -8e-6)
        with pytest.raises(SingularGeometryError, match="overflows"):
            bo_eigenvalue(geometry, cfg_rr.ion_mode, cfg_rr)

    def test_pinned_atom_at_the_ion_rejected(self, cfg_rr):
        # atom2-fixed puts atom 1 at -z0 + z, the ion-trap center when z == z0
        grid = np.array([12e-6, cfg_rr.half_separation_z0])
        with pytest.raises(SingularGeometryError, match="ion-trap center"):
            axial_bo_curve(grid, cfg_rr.ion_mode, cfg_rr, placement="atom2-fixed")

    @pytest.mark.parametrize("placement", ["symmetric", "atom2-fixed"])
    def test_one_point_grid(self, cfg_rr, placement):
        curves = axial_bo_curve([16e-6], cfg_rr.ion_mode, cfg_rr, placement=placement)
        assert set(curves) == {"z", "V_rr", "V_rg", "V_gg"}
        assert all(column.shape == (1,) for column in curves.values())

    @pytest.mark.parametrize("placement", ["symmetric", "atom2-fixed"])
    def test_grid_matches_per_point_eigenvalues(self, cfg_rr, placement):
        grid = np.linspace(10e-6, 30e-6, 41)
        mu = cfg_rr.ion_mode
        curves = axial_bo_curve(grid, mu, cfg_rr, placement=placement)
        e0 = mu.bare_energy(cfg_rr.ion_trap)
        z2 = -cfg_rr.half_separation_z0
        for name, pair in cfg_rr.named_pairs().items():
            cfg = cfg_rr.with_states(*pair)
            for z, value in zip(grid, curves["V_" + name]):
                z1, z2_point = (0.5 * z, -0.5 * z) if placement == "symmetric" else (z2 + z, z2)
                geom = AtomPairGeometry.on_axis(z1, z2_point)
                assert abs(value - (bo_eigenvalue(geom, mu, cfg) - e0)) <= 4 * np.spacing(e0)
                expected = reference_bo_eigenvalue([0, 0, z1], [0, 0, z2_point], mu, cfg) - e0
                assert abs(value - expected) <= 4 * np.spacing(e0)


def reference_bo_eigenvalue(r1, r2, mu, config):
    """The adiabatic eigenvalue of one geometry, written out in Python floats."""
    r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    c4_1, c4_2 = config.c4_pair
    m_i = config.ion.mass
    r1_sq, r2_sq = float(np.dot(r1, r1)), float(np.dot(r2, r2))
    pull = c4_1 * r1 / r1_sq**3 + c4_2 * r2 / r2_sq**3
    x0, y0 = 4.0 * pull[:2] / (m_i * config.ion_trap.radial**2)
    zeta0 = 4.0 * pull[2] / (m_i * config.ion_trap.axial**2)
    energy = mu.bare_energy(config.ion_trap)
    energy -= 0.5 * m_i * config.ion_trap.radial**2 * (x0 * x0 + y0 * y0)
    energy -= 0.5 * m_i * config.ion_trap.axial**2 * zeta0**2
    energy -= c4_1 / r1_sq**2 + c4_2 / r2_sq**2
    return energy - config.c6_pair / float(np.dot(r1 - r2, r1 - r2)) ** 3


class TestBornOppenheimerKernel:
    def test_broadcast_grid_matches_the_per_geometry_formula(self, cfg_rg):
        rng = np.random.default_rng(5)
        r1 = rng.normal(size=(4, 1, 3)) * 1e-6 + [0.0, 0.0, 8e-6]
        r2 = rng.normal(size=(1, 5, 3)) * 1e-6 - [0.0, 0.0, 8e-6]
        e0 = cfg_rg.ion_mode.bare_energy(cfg_rg.ion_trap)
        grid = bo_energy(r1, r2, cfg_rg, e0)
        assert grid.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                geom = AtomPairGeometry(r1[i, 0], r2[0, j])
                assert grid[i, j] == bo_eigenvalue(geom, cfg_rg.ion_mode, cfg_rg)
                expected = reference_bo_eigenvalue(r1[i, 0], r2[0, j], cfg_rg.ion_mode, cfg_rg)
                assert grid[i, j] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("r1, r2, error", [
        ([0.0, 0.0, np.nan], [0.0, 0.0, -8e-6], ConfigError),
        ([0.0, np.inf, 8e-6], [0.0, 0.0, -8e-6], ConfigError),
        ([0.0, 0.0, 0.0], [0.0, 0.0, -8e-6], SingularGeometryError),
        ([0.0, 0.0, 8e-6], [0.0, 0.0, 8e-6], SingularGeometryError),
    ])
    def test_any_bad_point_raises(self, cfg_rr, r1, r2, error):
        good = np.array([[0.0, 0.0, 7e-6], [0.1e-6, 0.0, 9e-6]])
        with pytest.raises(error):
            bo_energy(np.vstack([good, r1]), np.vstack([-good, r2]), cfg_rr)

    @pytest.mark.parametrize("r1, r2, fragment", [
        ([0.0, 0.0, 1e-60], [0.0, 0.0, -8e-6], "ion-trap center"),
        ([0.0, 0.0, 8e-6], [0.0, 0.0, -1e-60], "ion-trap center"),
        ([0.0, 0.0, 1e-50], [0.0, 0.0, 1.0000001e-50], "each other"),
    ])
    def test_underflowing_sixth_power_raises(self, cfg_rr, r1, r2, fragment):
        # |r|^2 is nonzero but |r|^6 rounds to 0: the kernel would divide 0 by 0
        assert np.dot(r1, r1) > 0.0 and np.dot(r2, r2) > 0.0
        with pytest.raises(SingularGeometryError, match=fragment):
            bo_energy(r1, r2, cfg_rr)
        with pytest.raises(SingularGeometryError, match=fragment):
            AtomPairGeometry(np.array(r1), np.array(r2))


def on_axis(z):
    """(..., 3) positions of atoms on the trap axis at ``z``."""
    z = np.asarray(z, dtype=float)
    return np.stack(np.broadcast_arrays(0.0, 0.0, z), axis=-1)


def outcome(fn):
    """fn's value, or the type and message of the typed error it raises."""
    try:
        return fn()
    except (ConfigError, SingularGeometryError) as error:
        return type(error), str(error)


class TestOnAxisPath:
    """The on-axis path behind ``axial_interaction`` and ``axial_bo_curve``
    returns ``bo_energy``'s values on on-axis positions bit for bit, and
    raises its typed errors with the same messages."""

    # the (2z0 in um, n_max) of the benchmark's density jobs
    @pytest.mark.parametrize("separation_um, n_max", [(12, 30), (16, 30), (24, 30), (12, 40)])
    def test_the_density_jobs_grids(self, cfg_rr, separation_um, n_max):
        # the coarse, shared and check grids of basis_ground_state's solve
        z0 = 0.5e-6 * separation_um
        length = characteristic_scales(cfg_rr).a_z
        for extra in (0, 16, 32):
            order = 4 * n_max + _QUAD_MARGIN + extra
            xi, _ = _gauss_hermite(order)
            z1, z2 = z0 + length * xi[:, None], -z0 + length * xi[None, :]
            grid = axial_interaction(z1, z2, cfg_rr)
            assert grid.shape == (order, order)
            assert np.array_equal(grid, bo_energy(on_axis(z1), on_axis(z2), cfg_rr))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_broadcast_grid(self, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                             max_side=4))
        coordinate = st.one_of(st.floats(-3e-5, 3e-5), st.sampled_from(
            [0.0, 8e-6, -8e-6, 1e-46, 1e-60, 2e38, np.nan, np.inf, -np.inf]))
        z1 = data.draw(hnp.arrays(np.float64, shapes.input_shapes[0], elements=coordinate))
        z2 = data.draw(hnp.arrays(np.float64, shapes.input_shapes[1], elements=coordinate))
        config = reference_config(data.draw(st.sampled_from(["rr", "rg", "gg"])))
        on_path = outcome(lambda: axial_interaction(z1, z2, config))
        kernel = outcome(lambda: bo_energy(on_axis(z1), on_axis(z2), config))
        if isinstance(kernel, tuple):
            assert on_path == kernel
        else:
            assert on_path.shape == kernel.shape == shapes.result_shape
            assert np.array_equal(on_path, kernel)

    @pytest.mark.parametrize("scaling", ["bare_n", "quantum_defect"])
    @pytest.mark.parametrize("n", [20, 30, 60])
    @pytest.mark.parametrize("placement", ["symmetric", "atom2-fixed"])
    def test_each_curve_column_is_its_pair_kernel(self, scaling, n, placement):
        config = reference_config("rr", n, 8e-6, scaling)
        grid = np.linspace(10e-6, 30e-6, 201)
        curves = axial_bo_curve(grid, config.ion_mode, config, placement=placement)
        if placement == "symmetric":
            r1, r2 = on_axis(0.5 * grid), on_axis(-0.5 * grid)
        else:
            z2 = -config.half_separation_z0
            r1, r2 = on_axis(z2 + grid), on_axis(z2)
        e0 = config.ion_mode.bare_energy(config.ion_trap)
        for name, pair in config.named_pairs().items():
            expected = bo_energy(r1, r2, config.with_states(*pair), e0) - e0
            assert np.array_equal(curves["V_" + name], expected)

    @pytest.mark.parametrize("scaling", ["bare_n", "quantum_defect"])
    @pytest.mark.parametrize("n", [20, 44, 60])
    @pytest.mark.parametrize("placement", ["symmetric", "atom2-fixed"])
    def test_curves_are_the_former_pair_loop_byte_for_byte(self, scaling, n, placement):
        # one _energy over the three pairs' coefficient columns against one
        # per pair: the same columns, errors and messages
        def outcome(curve, grid, config):
            try:
                curves = curve(grid, config.ion_mode, config, placement=placement)
            except (ConfigError, SingularGeometryError) as err:
                return type(err), str(err)
            return {name: (column.dtype, column.shape, column.tobytes())
                    for name, column in curves.items()}

        grids = (np.linspace(10e-6, 30e-6, 201), np.linspace(1e-6, 40e-6, 391), [16e-6],
                 [12e-6, 8e-6], [12e-6, 1e-46])
        for pair in ("rr", "rg", "gg"):
            config = reference_config(pair, n, 8e-6, scaling)
            for grid in grids:
                assert (outcome(axial_bo_curve, grid, config)
                        == outcome(oracles.axial_bo_curve, grid, config))

    @pytest.mark.parametrize("z1, z2, error, fragment", [
        (0.0, -8e-6, SingularGeometryError, "atom at the ion-trap center"),
        (8e-6, 0.0, SingularGeometryError, "atom at the ion-trap center"),
        (8e-6, 8e-6, SingularGeometryError, "coincident atoms"),
        (1e-60, -8e-6, SingularGeometryError, "ion-trap center that \\|r\\|\\^6 underflows"),
        (-1e-60, -8e-6, SingularGeometryError, "ion-trap center that \\|r\\|\\^6 underflows"),
        (1e-50, 1.0000001e-50, SingularGeometryError, "each other that \\|r1 - r2\\|\\^6"),
        (1e-46, -8e-6, SingularGeometryError, "energy overflows the float range"),
        (2e38, -8e-6, ConfigError, "within 1e38 m"),
        (8e-6, -2e38, ConfigError, "within 1e38 m"),
        (np.nan, -8e-6, ConfigError, "within 1e38 m"),
        (np.inf, -8e-6, ConfigError, "within 1e38 m"),
        (8e-6, -np.inf, ConfigError, "within 1e38 m"),
    ])
    def test_typed_errors(self, cfg_rr, z1, z2, error, fragment):
        good = np.array([7e-6, 9e-6])
        z1, z2 = np.append(good, z1), np.append(-good, z2)
        with pytest.raises(error, match=fragment) as on_path:
            axial_interaction(z1, z2, cfg_rr)
        with pytest.raises(error) as kernel:
            bo_energy(on_axis(z1), on_axis(z2), cfg_rr)
        assert str(on_path.value) == str(kernel.value)

    @pytest.mark.parametrize("placement", ["symmetric", "atom2-fixed"])
    def test_curves_raise_the_kernel_errors(self, cfg_rr, placement):
        # one separation puts an atom beyond 1e38 m, where the coordinate check refuses it
        with pytest.raises(ConfigError, match="within 1e38 m"):
            axial_bo_curve(np.array([12e-6, 4e38]), cfg_rr.ion_mode, cfg_rr, placement=placement)
