"""Phonon branches, the stability threshold, and equilibrium shifts."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import oracles
from ionbridge import (
    AtomPairGeometry,
    ConfigError,
    InstabilityError,
    NotBracketedError,
    critical_separation,
    effective_frequencies,
    effective_potential_U,
    equilibrium_shift,
    gaussian_ground_state,
    mode_sweep,
    phonon_spectrum,
    reference_config,
)
from ionbridge import constants as cst
from ionbridge.expansion import _terms
from ionbridge.model import ElectronicState
from ionbridge.phonons import _axial_block, _diagonalize_sector, _min_omega_sq

SWEEP_GRID = np.linspace(5.0, 40.0, 351) * 1e-6  # reaches below every threshold


def kernel_configs():
    """rr (c == 0), rg, gg, and two distinct Rydberg levels with an attractive
    C6 in both orders, which puts the axial angle on either clamp branch."""
    configs = [reference_config(pair, n, 8e-6, scaling)
               for pair in ("rr", "rg", "gg") for n in (20, 44, 60)
               for scaling in ("bare_n", "quantum_defect")]
    attractive = dataclasses.replace(configs[0].coefficients, c6_rydberg_anchor=5e-58)
    for pair in ((30, 25), (25, 30)):
        states = tuple(ElectronicState("rydberg", n) for n in pair)
        configs.append(dataclasses.replace(configs[0], state_pair=states,
                                           coefficients=attractive))
    return configs


class TestSpectrum:
    def test_branch_lookup(self, cfg_rr):
        spec = phonon_spectrum(cfg_rr, cfg_rr.half_separation_z0)
        assert spec.branch("axial", "com").character == "com"
        with pytest.raises(KeyError):
            spec.branch("axial", "breathing")

    def test_symmetric_pair_angles_are_zero(self, cfg_rr):
        spec = phonon_spectrum(cfg_rr, cfg_rr.half_separation_z0)
        assert spec.axial[0].mixing_angle == 0.0
        assert spec.transverse[0].mixing_angle == 0.0

    def test_com_below_stretch_axially(self, cfg_rr):
        # the cross-curvature is negative, so the center of mass softens first
        spec = phonon_spectrum(cfg_rr, cfg_rr.half_separation_z0)
        assert spec.branch("axial", "com").omega_sq < spec.branch("axial", "stretch").omega_sq

    def test_splitting_equals_coupling_scale_exactly(self, cfg_rr):
        z0 = cfg_rr.half_separation_z0
        spec = phonon_spectrum(cfg_rr, z0)
        fr = effective_frequencies(cfg_rr, z0)
        split = spec.branch("axial", "stretch").omega_sq - spec.branch("axial", "com").omega_sq
        expected = 2.0 * abs(fr.omega_zz_sq)
        assert abs(split - expected) <= 64 * np.spacing(fr.omega_prime_z_sq)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=5.0e-6, max_value=20.0e-6))
    def test_eigenvalues_match_atom_basis_matrix(self, z0):
        cfg = reference_config("rg")
        spec = phonon_spectrum(cfg, z0)
        got = sorted(mode.omega_sq for mode in spec.axial)
        expected = np.linalg.eigvalsh(
            _axial_block(dataclasses.astuple(effective_frequencies(cfg, z0))))
        np.testing.assert_allclose(got, expected, rtol=1e-10)


class TestCriticalSeparation:
    def test_reference_thresholds(self, cfg_rr, cfg_rg, cfg_25):
        crit_rr = critical_separation(cfg_rr)
        assert crit_rr.critical_2z0 == pytest.approx(9.188670e-6, abs=1e-9)
        assert crit_rr.limiting_branch == "axial-com"

        crit_rg = critical_separation(cfg_rg)
        assert crit_rg.critical_2z0 == pytest.approx(9.189982e-6, abs=1e-9)

        crit_25 = critical_separation(cfg_25)
        assert crit_25.critical_2z0 == pytest.approx(7.428045e-6, abs=1e-9)

    def test_sign_flip_around_threshold(self, cfg_rr):
        crit = critical_separation(cfg_rr).critical_2z0
        below = phonon_spectrum(cfg_rr, 0.5 * crit * (1 - 1e-4))
        above = phonon_spectrum(cfg_rr, 0.5 * crit * (1 + 1e-4))
        assert not below.stable
        assert above.stable

    def test_crossing_is_unique_on_a_prescan(self, cfg_rr):
        grid = np.arange(8.5e-6, 40e-6, 0.05e-6)
        signs = np.sign([
            min(m.omega_sq for s in [phonon_spectrum(cfg_rr, 0.5 * sep)]
                for m in s.axial + s.transverse)
            for sep in grid
        ])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1

    def test_no_threshold_for_ground_pair(self, cfg_gg):
        with pytest.raises(NotBracketedError) as err:
            critical_separation(cfg_gg)
        assert err.value.f_lo > 0.0 and err.value.f_hi > 0.0

    @pytest.mark.parametrize("scaling", ["bare_n", "quantum_defect"])
    @pytest.mark.parametrize("n", [20, 27, 38, 49, 60])
    def test_bisection_is_bit_identical_to_the_scalar_one(self, n, scaling):
        for pair in ("rr", "rg", "gg"):
            config = reference_config(pair, n, 8e-6, scaling)
            try:
                want = oracles.critical_separation(config)
            except NotBracketedError:
                with pytest.raises(NotBracketedError):
                    critical_separation(config)
                continue
            got = critical_separation(config)
            assert (got.critical_2z0, got.limiting_branch) == want

    @pytest.mark.parametrize("pair", ["rr", "rg"])
    def test_bisection_step_is_the_scalar_minimum(self, pair):
        config = reference_config(pair, 44)
        terms = _terms(config)
        for sep in np.linspace(1e-6, 40e-6, 157):
            assert _min_omega_sq(terms, sep) == oracles.min_omega_sq(config, sep)

    def test_overflow_in_the_bracket_is_a_config_error(self):
        rr = reference_config("rr")
        config = dataclasses.replace(
            rr, coefficients=dataclasses.replace(rr.coefficients, c4_ground=1e90))
        with pytest.raises(ConfigError, match="float range"):
            critical_separation(config)


class TestModeSweep:
    def test_grid_validation(self, cfg_rr):
        with pytest.raises(ConfigError):
            mode_sweep(cfg_rr, [10e-6, 12e-6, 11e-6])
        with pytest.raises(ConfigError):
            mode_sweep(cfg_rr, [-1e-6, 10e-6])

    def test_stable_flags_track_threshold(self, cfg_rr):
        crit = critical_separation(cfg_rr).critical_2z0
        grid = np.linspace(9.0e-6, 10.0e-6, 21)
        sweep = mode_sweep(cfg_rr, grid)
        np.testing.assert_array_equal(sweep["stable"], grid > crit)

    def test_deviations_fade_with_distance(self, cfg_rr):
        # every branch relaxes toward its bare trap value at large separation
        grid = np.linspace(12e-6, 24e-6, 25)
        sweep = mode_sweep(cfg_rr, grid)
        bare_ax = cfg_rr.atom_trap.axial**2
        bare_tr = cfg_rr.atom_trap.radial**2
        for key, bare in (("axial_stretch_sq", bare_ax), ("axial_com_sq", bare_ax),
                          ("transverse_stretch_sq", bare_tr), ("transverse_com_sq", bare_tr)):
            dev = np.abs(sweep[key] - bare)
            assert np.all(np.diff(dev) < 0.0), key


class TestKernel:
    """The broadcasting kernel against the scalar per-point oracle."""

    # (a, b, c, bare_sq): c == 0 both ways round, both clamp branches of
    # the angle, the exact -pi/4 and +pi/4 angles, even weight splits
    # labeled by either branch's distance to the bare trap value or by a
    # distance tie, and a split whose eigenvalues round to one value.
    SECTORS = [
        (2.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 1.0), (1.5, 1.5, 0.0, 1.0),
        (-1.0, 3.0, 0.0, 3.0),
        (1.0, 3.0, 0.5, 2.0), (1.0, 3.0, -0.5, 2.0), (3.0, 1.0, 0.5, 2.0), (3.0, 1.0, -0.5, 2.0),
        (1.0, 1.0, -0.5, 0.0), (1.0, 1.0, 0.5, 0.0), (1.0, 1.0, 0.5, 5.0), (1.0, 1.0, 0.5, 1.0),
        (1.0, 1.0 + 1e-9, -0.5, 0.0), (1.0, 1.0 + 1e-9, -0.5, 5.0), (1.0, 1.0, 1e-320, 0.0),
        (-2.0, 5.0, 1e-300, 1.0), (4e9, -3e9, 2e8, 3.2e9),
    ]

    def test_sector_matches_the_scalar_oracle(self):
        a, b, c, bare = (np.array(column) for column in zip(*self.SECTORS))
        stretch, com, angle, com_first = _diagonalize_sector(a, b, c, bare)
        for k, entries in enumerate(self.SECTORS):
            low, high = oracles.diagonalize_sector(*entries)
            want = {mode.character: mode.omega_sq for mode in (low, high)}
            scale = max(abs(v) for v in entries[:3])
            tol = 4 * np.spacing(scale)
            assert abs(stretch[k] - want["stretch"]) <= tol, entries
            assert abs(com[k] - want["com"]) <= tol, entries
            assert abs(angle[k] - low.mixing_angle) <= 4 * np.spacing(math.pi / 4), entries
            assert -math.pi / 4 < angle[k] <= math.pi / 4
            assert bool(com_first[k]) == (low.character == "com"), entries

    def test_uncoupled_sector_is_exact(self):
        # c == 0 gives the diagonal itself, not mean -+ hypot, and a +0.0 angle
        a = np.array([2.0, -1e-10, 1.0, 3.0])
        b = np.array([1.0, 1e10, 1.0 + 2**-52, -4.0])
        c = np.array([0.0, -0.0, 0.0, -0.0])
        stretch, com, angle, _ = _diagonalize_sector(a, b, c, 1.0)
        np.testing.assert_array_equal(stretch, a)
        np.testing.assert_array_equal(com, b)
        np.testing.assert_array_equal(np.copysign(1.0, angle), 1.0)

    def test_sector_covers_both_clamps_and_ties(self):
        a, b, c, bare = (np.array(column) for column in zip(*self.SECTORS))
        raw = 0.5 * np.arctan2(2.0 * c, a - b)
        assert np.any(raw > 0.25 * np.pi) and np.any(raw <= -0.25 * np.pi)
        _, _, angle, _ = _diagonalize_sector(a, b, c, bare)
        ties = np.abs(np.sin(angle) ** 2 - 0.5) < 1e-6
        labels = [oracles.diagonalize_sector(*entries)[0].character
                  for entries, tie in zip(self.SECTORS, ties) if tie]
        assert {"stretch", "com"} <= set(labels)

    @pytest.mark.parametrize("config", kernel_configs(),
                             ids=lambda cfg: "-".join(s.label() for s in cfg.state_pair)
                             + "/" + cfg.coefficients.scaling)
    def test_sweep_matches_the_scalar_oracle(self, config):
        got = mode_sweep(config, SWEEP_GRID)
        want = oracles.mode_sweep(config, SWEEP_GRID)
        np.testing.assert_array_equal(got["separation"], SWEEP_GRID)
        np.testing.assert_array_equal(got["stable"], want["stable"])
        for sector in ("axial", "transverse"):
            names = (f"{sector}_stretch_sq", f"{sector}_com_sq")
            scale = max(np.max(np.abs(want[name])) for name in names)
            for name in names:
                assert np.all(np.isfinite(got[name]))
                np.testing.assert_allclose(got[name], want[name], rtol=0,
                                           atol=8 * np.spacing(scale), err_msg=name)
            name = f"{sector}_angle"
            assert np.all(np.isfinite(got[name]))
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=4 * np.spacing(math.pi / 4), err_msg=name)

    def test_sweep_reaches_the_unstable_region_and_both_clamps(self):
        configs = kernel_configs()
        sweeps = [mode_sweep(cfg, SWEEP_GRID) for cfg in configs]
        assert all(not s["stable"][0] for s in sweeps[:6])
        angles = np.concatenate([s["axial_angle"] for s in sweeps[-2:]])
        assert np.any(angles > 0.0) and np.any(angles < 0.0)

    @pytest.mark.parametrize("config", kernel_configs()[::3])
    def test_spectrum_is_the_size_one_sweep(self, config):
        for z0 in (2.6e-6, 4.8e-6, 8e-6, 15e-6):
            spec = phonon_spectrum(config, z0)
            sweep = mode_sweep(config, [2.0 * z0])
            for sector in ("axial", "transverse"):
                for character in ("stretch", "com"):
                    assert (spec.branch(sector, character).omega_sq
                            == sweep[f"{sector}_{character}_sq"][0])
                pair = getattr(spec, sector)
                assert pair[0].omega_sq <= pair[1].omega_sq
                assert pair[0].mixing_angle == pair[1].mixing_angle == sweep[f"{sector}_angle"][0]
            assert spec.stable == sweep["stable"][0]
            want = oracles.phonon_spectrum(config, z0)
            for sector in ("axial", "transverse"):
                assert ([m.character for m in getattr(spec, sector)]
                        == [m.character for m in getattr(want, sector)])

    def test_spectrum_needs_a_positive_half_separation(self, cfg_rr):
        for solve in (phonon_spectrum, equilibrium_shift, gaussian_ground_state):
            for z0 in (0.0, -8e-6, float("nan"), float("inf")):
                with pytest.raises(ConfigError, match="positive"):
                    solve(cfg_rr, z0)

    def test_separations_leaving_the_float_range_are_a_config_error(self, cfg_rr):
        with pytest.raises(ConfigError, match="float range"):
            mode_sweep(cfg_rr, [1e-300, 10e-6])
        far = mode_sweep(cfg_rr, [10e-6, 1e300])
        assert far["axial_com_sq"][1] == cfg_rr.atom_trap.axial**2

    @pytest.mark.parametrize("pair", ["rr", "rg"])
    def test_one_answer_beyond_the_float_range_of_z0_12(self, pair):
        # z0^12 overflows, every correction is 0 and the bare trap remains
        # for the spectrum, the shift and the Gaussian alike
        config = reference_config(pair)
        z0 = 5e293
        spec = phonon_spectrum(config, z0)
        sweep = mode_sweep(config, [2.0 * z0])
        assert spec.stable and sweep["stable"][0]
        for sector, bare in (("axial", config.atom_trap.axial),
                             ("transverse", config.atom_trap.radial)):
            for character in ("stretch", "com"):
                assert (spec.branch(sector, character).omega_sq
                        == sweep[f"{sector}_{character}_sq"][0] == bare**2)
        assert equilibrium_shift(config, z0) == (0.0, 0.0)
        gauss = gaussian_ground_state(config, z0)
        assert gauss.center == (z0, -z0)
        a_z = math.sqrt(cst.HBAR / (config.atom.mass * config.atom_trap.axial))
        assert gauss.widths == pytest.approx((a_z, a_z), rel=1e-15)


class TestEquilibriumShift:
    def test_antisymmetric_for_identical_states(self, cfg_rr):
        dz1, dz2 = equilibrium_shift(cfg_rr, cfg_rr.half_separation_z0)
        assert dz1 == -dz2
        assert dz1 < 0.0  # both atoms lean toward the ion

    @staticmethod
    def _minimize_full_potential(config):
        z0 = config.half_separation_z0

        def u(p):
            geom = AtomPairGeometry.on_axis(z0 + p[0], -z0 + p[1])
            return effective_potential_U(geom, config.ion_mode, config)

        # a small starting simplex keeps the search inside the local well
        simplex = [[0.0, 0.0], [2e-8, 0.0], [0.0, 2e-8]]
        res = minimize(u, x0=[0.0, 0.0], method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-32, "maxiter": 4000,
                                "initial_simplex": simplex})
        return res.x

    def test_matches_direct_minimization(self, cfg_rr):
        dz1, dz2 = equilibrium_shift(cfg_rr, cfg_rr.half_separation_z0)
        found = self._minimize_full_potential(cfg_rr)
        assert found[0] == pytest.approx(dz1, rel=1e-3)
        assert found[1] == pytest.approx(dz2, rel=1e-3)

    def test_asymmetric_pair_minimization(self, cfg_rg):
        # the ground atom barely moves, so only its magnitude is bounded
        dz1, dz2 = equilibrium_shift(cfg_rg, cfg_rg.half_separation_z0)
        found = self._minimize_full_potential(cfg_rg)
        assert found[0] == pytest.approx(dz1, rel=1e-3)
        assert abs(dz2) < 1e-12
        assert abs(found[1]) < 1e-10

    @pytest.mark.parametrize("pair", ["rr", "rg"])
    @pytest.mark.parametrize("separation_um", [12.0, 16.0, 24.0])
    def test_matches_an_exact_solve(self, pair, separation_um):
        # the same float block and force, solved in exact rational arithmetic
        z0 = 0.5 * separation_um * 1e-6
        cfg = reference_config(pair, z0=z0)
        fr = effective_frequencies(cfg, z0)
        a, b, c = map(Fraction, (fr.omega_bar_z1_sq, fr.omega_bar_z2_sq, fr.omega_zz_sq))
        f1, f2 = Fraction(-z0 * fr.Omega_1_sq), Fraction(z0 * fr.Omega_2_sq)
        det = a * b - c * c
        exact = ((f1 * b - c * f2) / det, (a * f2 - c * f1) / det)
        for got, want in zip(equilibrium_shift(cfg, z0), exact):
            assert abs(Fraction(got) - want) <= Fraction(1e-15) * abs(want)

    def test_unstable_separation_raises(self, cfg_rr):
        with pytest.raises(InstabilityError):
            equilibrium_shift(cfg_rr, 4.0e-6)

