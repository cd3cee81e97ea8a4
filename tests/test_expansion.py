"""Quadratic expansion of the effective potential around the trap centers.

The closed-form coefficients are validated against central finite
differences of the full potential; that comparison is the main guard on
every sign and prefactor in this module.
"""

import dataclasses

import numpy as np
import pytest

from ionbridge import (
    AtomPairGeometry,
    ConfigError,
    axial_bo_curve,
    bare_product_state,
    basis_ground_state,
    effective_frequencies,
    effective_potential_U,
    equilibrium_shift,
    gaussian_ground_state,
    mode_sweep,
    phonon_spectrum,
    reference_config,
)
from ionbridge.expansion import _pieces, _terms

FD_STEP = 2e-9  # m, balances cancellation noise against truncation


def u_of_coords(config, vec):
    geom = AtomPairGeometry(np.asarray(vec[:3]), np.asarray(vec[3:]))
    return effective_potential_U(geom, config.ion_mode, config)


def centers(config):
    z0 = config.half_separation_z0
    return np.array([0.0, 0.0, z0, 0.0, 0.0, -z0])


def fd_gradient(config, a, h=FD_STEP):
    x = centers(config)
    e = np.zeros(6)
    e[a] = h
    return (u_of_coords(config, x + e) - u_of_coords(config, x - e)) / (2 * h)


def fd_curvature(config, a, b, h=FD_STEP):
    x = centers(config)
    ea = np.zeros(6)
    ea[a] = h
    if a == b:
        f0 = u_of_coords(config, x)
        return (u_of_coords(config, x + ea) - 2 * f0 + u_of_coords(config, x - ea)) / h**2
    eb = np.zeros(6)
    eb[b] = h
    return (u_of_coords(config, x + ea + eb) - u_of_coords(config, x + ea - eb)
            - u_of_coords(config, x - ea + eb) + u_of_coords(config, x - ea - eb)) / (4 * h**2)


class TestCoefficients:
    def test_closed_form_values(self, cfg_rg):
        co = _terms(cfg_rg)
        c4_1, c4_2 = cfg_rg.c4_pair
        m_a, m_i = cfg_rg.atom.mass, cfg_rg.ion.mass
        w_rho2 = cfg_rg.ion_trap.radial**2
        w_z2 = cfg_rg.ion_trap.axial**2
        assert co.A12_1 == pytest.approx(16 * c4_1**2 / (m_a * m_i * w_rho2), rel=1e-14)
        assert co.A12_ab == pytest.approx(16 * c4_1 * c4_2 / (m_a * m_i * w_rho2), rel=1e-14)
        assert co.A10_ab == pytest.approx(16 * c4_1 * c4_2 / (m_a * m_i * w_z2), rel=1e-14)
        assert co.A6_2 == pytest.approx(4 * c4_2 / m_a, rel=1e-14)
        assert co.A4_1 == pytest.approx(2 * c4_1 / m_a, rel=1e-14)

    def test_a12_a6_identity(self, cfg_rg):
        # A12_j = A6_j^2 m_a / (m_i w_rho^2) ties the two coefficient families
        co = _terms(cfg_rg)
        m_a, m_i = cfg_rg.atom.mass, cfg_rg.ion.mass
        w_rho2 = cfg_rg.ion_trap.radial**2
        assert co.A12_1 == pytest.approx(co.A6_1**2 * m_a / (m_i * w_rho2), rel=1e-13)
        assert co.A12_ab == pytest.approx(co.A6_1 * co.A6_2 * m_a / (m_i * w_rho2), rel=1e-13)


class TestFrequenciesAgainstFiniteDifferences:
    """Each frequency scale is an independent second derivative of U."""

    @pytest.fixture(params=["rr", "rg"])
    def cfg(self, request):
        return reference_config(request.param, z0=7e-6)

    def test_axial_curvatures(self, cfg):
        fr = effective_frequencies(cfg, cfg.half_separation_z0)
        m_a = cfg.atom.mass
        assert fd_curvature(cfg, 2, 2) == pytest.approx(m_a * fr.omega_bar_z1_sq, rel=1e-6)
        assert fd_curvature(cfg, 5, 5) == pytest.approx(m_a * fr.omega_bar_z2_sq, rel=1e-6)
        assert fd_curvature(cfg, 2, 5) == pytest.approx(m_a * fr.omega_zz_sq, rel=1e-5)

    def test_transverse_curvatures(self, cfg):
        fr = effective_frequencies(cfg, cfg.half_separation_z0)
        m_a = cfg.atom.mass
        assert fd_curvature(cfg, 0, 0) == pytest.approx(m_a * fr.omega_bar_rho1_sq, rel=1e-6)
        assert fd_curvature(cfg, 4, 4) == pytest.approx(m_a * fr.omega_bar_rho2_sq, rel=1e-6)
        assert fd_curvature(cfg, 0, 3) == pytest.approx(-m_a * fr.omega_xy_sq, rel=1e-5)

    def test_linear_forces(self, cfg):
        fr = effective_frequencies(cfg, cfg.half_separation_z0)
        m_a = cfg.atom.mass
        z0 = cfg.half_separation_z0
        assert fd_gradient(cfg, 2) == pytest.approx(m_a * z0 * fr.Omega_1_sq, rel=1e-6)
        assert fd_gradient(cfg, 5) == pytest.approx(-m_a * z0 * fr.Omega_2_sq, rel=1e-6)
        # no transverse force at the centers
        assert abs(fd_gradient(cfg, 0)) < 1e-6 * abs(fd_gradient(cfg, 2))

    def test_axial_softens_transverse_stiffens(self, cfg):
        fr = effective_frequencies(cfg, cfg.half_separation_z0)
        assert fr.omega_bar_z1_sq < cfg.atom_trap.axial**2
        assert fr.omega_bar_rho1_sq > cfg.atom_trap.radial**2


class TestSymmetriesAndStructure:
    def test_identical_states_give_identical_frequencies(self, cfg_rr):
        fr = effective_frequencies(cfg_rr, cfg_rr.half_separation_z0)
        assert fr.omega_bar_z1_sq == fr.omega_bar_z2_sq
        assert fr.Omega_1_sq == fr.Omega_2_sq

    def test_doubling_c4_scales_families(self, cfg_rr):
        co = _terms(cfg_rr)
        doubled_cfg = dataclasses.replace(
            cfg_rr, coefficients=dataclasses.replace(cfg_rr.coefficients,
                                                     c4_ground=2 * cfg_rr.coefficients.c4_ground))
        co2 = _terms(doubled_cfg)
        assert co2.A4_1 == pytest.approx(2 * co.A4_1, rel=1e-13)
        assert co2.A6_1 == pytest.approx(2 * co.A6_1, rel=1e-13)
        assert co2.A10_ab == pytest.approx(4 * co.A10_ab, rel=1e-13)
        assert co2.A12_1 == pytest.approx(4 * co.A12_1, rel=1e-13)

    def test_com_axial_mode_free_of_c6(self, cfg_rr):
        from ionbridge import phonon_spectrum

        z0 = cfg_rr.half_separation_z0
        no_c6 = dataclasses.replace(
            cfg_rr, coefficients=dataclasses.replace(cfg_rr.coefficients,
                                                     c6_rydberg_anchor=0.0))
        with_c6 = phonon_spectrum(cfg_rr, z0)
        without = phonon_spectrum(no_c6, z0)
        for sector in ("axial", "transverse"):
            a = with_c6.branch(sector, "com").omega_sq
            b = without.branch(sector, "com").omega_sq
            assert a == pytest.approx(b, rel=1e-10)

    def test_repulsive_c6_stiffens_axial_stretch(self, cfg_rr):
        from ionbridge import phonon_spectrum

        z0 = cfg_rr.half_separation_z0
        no_c6 = dataclasses.replace(
            cfg_rr, coefficients=dataclasses.replace(cfg_rr.coefficients,
                                                     c6_rydberg_anchor=0.0))
        with_c6 = phonon_spectrum(cfg_rr, z0)
        without = phonon_spectrum(no_c6, z0)
        assert with_c6.branch("axial", "stretch").omega_sq \
            > without.branch("axial", "stretch").omega_sq
        assert with_c6.branch("transverse", "stretch").omega_sq \
            < without.branch("transverse", "stretch").omega_sq


RAGGED = [1e-6, [2e-6]]
# separation inputs that numpy would take as numbers or raise on itself
NOT_REAL = [
    (mode_sweep, 1e-5), (mode_sweep, "1e-5"), (mode_sweep, [[1e-5, 2e-5]]),
    (mode_sweep, ["1e-5", "2e-5"]), (mode_sweep, RAGGED),
    (axial_bo_curve, ["1e-5", "2e-5"]), (axial_bo_curve, RAGGED),
    (effective_frequencies, "8e-6"), (effective_frequencies, b"8e-6"),
    (effective_frequencies, RAGGED),
    *((call, RAGGED) for call in (phonon_spectrum, equilibrium_shift, gaussian_ground_state,
                                  bare_product_state, basis_ground_state)),
]


class TestHalfSeparationInputs:
    """effective_frequencies takes z0 in float64: positive and finite, else
    ConfigError; a result that leaves the float range is ConfigError too."""

    @pytest.mark.parametrize("z0", [0.0, -8e-6, float("nan"), float("inf"),
                                    np.array([0.0, 8e-6]), np.array([8e-6, np.nan])],
                             ids=["zero", "negative", "nan", "inf", "array-with-zero",
                                  "array-with-nan"])
    def test_refused_half_separations(self, cfg_rr, z0):
        with pytest.raises(ConfigError, match="positive and finite"):
            effective_frequencies(cfg_rr, z0)

    @pytest.mark.parametrize("z0", [0.0, -8e-6, float("nan"), float("inf"), float("-inf")])
    def test_one_rule_and_message_for_every_scalar_caller(self, cfg_rr, z0):
        # the expansion, the phonon modes and the bare product state share the rule
        for refuse in (effective_frequencies, phonon_spectrum, bare_product_state):
            with pytest.raises(ConfigError) as error:
                refuse(cfg_rr, z0)
            assert str(error.value) == f"half-separation must be positive and finite, got {z0}"

    @pytest.mark.parametrize("z0", [np.array([8e-6, 9e-6]), [8e-6], "8e-6", None],
                             ids=["array", "list", "string", "none"])
    @pytest.mark.parametrize("call", [phonon_spectrum, equilibrium_shift, gaussian_ground_state,
                                      bare_product_state, basis_ground_state],
                             ids=lambda call: call.__name__)
    def test_a_half_separation_that_is_not_one_number_is_a_config_error(self, cfg_rr, call, z0):
        # the one-point callers take z0 as one real number, never elementwise
        with pytest.raises(ConfigError) as error:
            call(cfg_rr, z0)
        assert str(error.value) == f"half-separation must be one real number, got {z0!r}"

    @pytest.mark.parametrize("call, value", NOT_REAL,
                             ids=[f"{call.__name__}-{value!r}" for call, value in NOT_REAL])
    def test_separations_that_are_not_real_numbers_are_config_errors(self, cfg_rr, call,
                                                                     value):
        # numpy would parse the strings as numbers, take a scalar or a 2-D
        # grid for a sweep, or raise its own ValueError on a ragged sequence
        with pytest.raises(ConfigError) as error:
            if call is axial_bo_curve:
                call(value, cfg_rr.ion_mode, cfg_rr)
            else:
                call(cfg_rr, value)
        assert str(error.value).endswith(f", got {value!r}")

    def test_half_separation_below_the_float_range_of_its_powers(self, cfg_rr):
        with pytest.raises(ConfigError, match="float range"):
            effective_frequencies(cfg_rr, 1e-300)

    @pytest.mark.parametrize("z0", [1e200, np.array([1e200, 1e300])])
    def test_beyond_the_float_range_of_z0_powers_the_bare_trap_remains(self, cfg_rr, z0):
        fr = effective_frequencies(cfg_rr, z0)
        for name in ("omega_bar_rho1_sq", "omega_bar_rho2_sq", "omega_prime_rho_sq"):
            assert np.all(getattr(fr, name) == cfg_rr.atom_trap.radial**2)
        for name in ("omega_bar_z1_sq", "omega_bar_z2_sq", "omega_prime_z_sq"):
            assert np.all(getattr(fr, name) == cfg_rr.atom_trap.axial**2)
        for name in ("omega_xy_sq", "omega_zz_sq", "Omega_1_sq", "Omega_2_sq"):
            assert np.all(getattr(fr, name) == 0.0)

    @pytest.mark.parametrize("kind", ["rr", "rg", "gg"])
    def test_valid_half_separations_give_the_python_float_values(self, kind):
        config = reference_config(kind)
        powers, axial, transverse, force = _pieces(_terms(config))

        def squares(z0):
            # the EffectiveFrequencies fields, in their order, from the pieces
            p = powers(z0)
            wbz1, wbz2, wpz, wzz = axial(*p)
            wbr1, wbr2, wpr, wxy = transverse(*p)
            return (wbr1, wbr2, wbz1, wbz2, wpr, wpz, wxy, wzz) + force(*p)

        for z0 in np.geomspace(1e-7, 1e-3, 97).tolist():
            assert dataclasses.astuple(effective_frequencies(config, z0)) == squares(z0)
        grid = np.linspace(2e-6, 20e-6, 31)
        observed = dataclasses.astuple(effective_frequencies(config, grid))
        for got, expected in zip(observed, squares(grid)):
            assert np.array_equal(got, expected)
