"""Phonon branches, the stability threshold, and equilibrium shifts."""

import dataclasses
import itertools
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
from ionbridge import constants as cst, phonons
from ionbridge.expansion import _Terms, _terms
from ionbridge.model import ElectronicState, TrapFrequencies
from ionbridge.phonons import (
    _branches,
    _diagonalize_sector,
    _expansion_at,
    _lower_branch,
    _lower_eigenvalue,
    _scalar_sectors,
)

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


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def config_id(config):
    return ("-".join(s.label() for s in config.state_pair) + "/" + config.coefficients.scaling
            + ("/soft" if config.ion_trap.radial < 1e5 else ""))


def sector_root(config, sector):
    """(lo, hi) within 1e-13 m around the separation where the lower squared
    frequency of ``sector`` changes sign, by bisecting the scalar oracle
    between 1 and 40 um; None where it does not change sign there."""
    def lower(sep):
        return min(m.omega_sq for m in getattr(oracles.phonon_spectrum(config, 0.5 * sep), sector))
    lo, hi = 1e-6, 40e-6
    if not lower(lo) < 0.0 < lower(hi):
        return None
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lower(mid) < 0.0 else (lo, mid)
    return lo, hi


def transverse_limited(config):
    """``config`` with the ion radial trap 1e-3 and the atom radial trap 0.1
    times as stiff: the transverse sector then softens first."""
    ion, atom = config.ion_trap, config.atom_trap
    return dataclasses.replace(
        config, ion_trap=TrapFrequencies(ion.radial * 1e-3, ion.axial),
        atom_trap=TrapFrequencies(atom.radial * 0.1, atom.axial))


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
        fr = effective_frequencies(cfg, z0)
        expected = np.linalg.eigvalsh([[fr.omega_bar_z1_sq, fr.omega_zz_sq],
                                       [fr.omega_zz_sq, fr.omega_bar_z2_sq]])
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

        # soft radial traps: the transverse sector limits, with either character
        soft_rr = critical_separation(transverse_limited(cfg_rr))
        assert soft_rr.critical_2z0 == pytest.approx(11.1946e-6, abs=1e-10)
        assert soft_rr.limiting_branch == "transverse-com"
        soft_rg = critical_separation(transverse_limited(cfg_rg))
        assert soft_rg.critical_2z0 == pytest.approx(10.5487e-6, abs=1e-10)
        assert soft_rg.limiting_branch == "transverse-stretch"

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
    @pytest.mark.parametrize("n", range(20, 61))  # the benchmark's level grid
    def test_bisection_is_bit_identical_to_the_scalar_one(self, n, scaling):
        for pair in ("rr", "rg", "gg"):
            reference = reference_config(pair, n, 8e-6, scaling)
            for config in (reference, transverse_limited(reference)):
                try:
                    want = oracles.critical_separation(config)
                except NotBracketedError:
                    with pytest.raises(NotBracketedError):
                        critical_separation(config)
                    continue
                got = critical_separation(config)
                assert (got.critical_2z0, got.limiting_branch) == want

    def test_the_limiting_branch_needs_finite_sector_entries(self, cfg_rr, monkeypatch):
        # the label point critical * (1 - 1e-6) may lie just below the
        # bracket; entries out of the float range there are the kernel's
        # range error, never a label
        crit = critical_separation(cfg_rr).critical_2z0
        label_z0 = 0.5 * crit * (1.0 - 1e-6)
        pieces = phonons._pieces
        # omega_bar_z1^2 leads the axial piece and enters only the axial c,
        # omega_bar_rho1^2 leads the transverse one and enters only its entries
        for k, bad in itertools.product((1, 2), (math.inf, -math.inf, math.nan)):
            def patched(t, k=k, bad=bad):
                closures = list(pieces(t))
                piece, label_powers = closures[k], closures[0](label_z0)

                def corrupted(*p):
                    fields = piece(*p)
                    return (bad,) + fields[1:] if p == label_powers else fields
                closures[k] = corrupted
                return tuple(closures)
            monkeypatch.setattr(phonons, "_pieces", patched)
            with pytest.raises(ConfigError) as err:
                critical_separation(cfg_rr)
            assert str(err.value) == ("the quadratic expansion leaves the float range between "
                                      f"2z0 = {2.0 * label_z0:.3g} and {2.0 * label_z0:.3g} m")

    @pytest.mark.parametrize("pair", ["rr", "rg", "gg"])
    def test_bisection_step_is_the_scalar_minimum(self, pair):
        for scaling in ("bare_n", "quantum_defect"):
            config = reference_config(pair, 44, 8e-6, scaling)
            sectors, _ = _scalar_sectors(_terms(config))
            for sep in np.linspace(1e-6, 40e-6, 157):
                lowest = min(_lower_eigenvalue(a, b, c) for a, b, c, _ in sectors(0.5 * sep))
                assert lowest == oracles.min_omega_sq(config, sep)

    @pytest.mark.parametrize("config", kernel_configs() + [transverse_limited(c) for c in
                                                            kernel_configs()[:12:3]],
                             ids=config_id)
    def test_step_decides_as_the_scalar_minimum(self, config):
        # on both sides of each sector's own root, where the axial sector
        # decides alone and where the transverse one must be formed
        _, unstable = _scalar_sectors(_terms(config))
        points = list(np.linspace(1e-6, 40e-6, 79))
        roots = {sector: sector_root(config, sector) for sector in ("axial", "transverse")}
        for root in filter(None, roots.values()):
            for sep in root:
                points += [sep, np.nextafter(sep, 0.0), np.nextafter(sep, 1.0)]
            points += [root[0] * (1.0 - 1e-6), root[1] * (1.0 + 1e-6)]
        decided = set()
        for sep in map(float, points):
            want = oracles.min_omega_sq(config, sep) < 0.0
            assert unstable(sep) == want, sep
            spectrum = oracles.phonon_spectrum(config, 0.5 * sep)
            decided.add((min(m.omega_sq for m in spectrum.axial) < 0.0, want))
        # (axial negative, unstable): the axial sector decides alone, or the
        # transverse one decides below its root where the axial one is stable
        expected = {(False, False)}
        if roots["axial"]:
            expected.add((True, True))
        if roots["transverse"] and (not roots["axial"]
                                    or roots["transverse"][0] > roots["axial"][1]):
            expected.add((False, True))
        assert decided == expected

    @pytest.mark.parametrize("field", ["w_az_sq", "w_ar_sq"])
    def test_step_takes_a_nan_sector_as_min_does(self, field):
        # a NaN axial lower eigenvalue is stable whatever the transverse one
        # is, as min(NaN, x) is NaN; a NaN transverse one leaves the axial
        # sector to decide, as min(x, NaN) is x
        config = transverse_limited(reference_config("rr"))
        t = _terms(config)._replace(**{field: math.nan})
        sectors, unstable = _scalar_sectors(t)
        roots = [sector_root(config, sector) for sector in ("axial", "transverse")]
        assert roots[0][1] < roots[1][0]
        for sep in (*roots[0], *roots[1], 1e-6, 10e-6, 40e-6):
            axial, transverse = (_lower_eigenvalue(a, b, c) for a, b, c, _ in
                                 sectors(0.5 * sep))
            assert math.isnan(axial if field == "w_az_sq" else transverse)
            want = min(axial, transverse) < 0.0
            assert unstable(sep) == want
            if field == "w_az_sq":
                assert not want

    def test_overflow_in_the_bracket_is_a_config_error(self):
        rr = reference_config("rr")
        config = dataclasses.replace(
            rr, coefficients=dataclasses.replace(rr.coefficients, c4_ground=1e90))
        with pytest.raises(ConfigError, match="float range"):
            critical_separation(config)

    # A ground pair with A10 = 4e306 m^12/s^2: every coefficient is finite,
    # but the combined product 55 A10 - 30 A10_ab overflows.  It must surface
    # as the kernel's range error.
    @pytest.mark.parametrize("call, message", [
        (critical_separation,
         "the quadratic expansion leaves the float range in the bracket [1e-06, 4e-05] m"),
        (lambda config: phonon_spectrum(config, 8e-6),
         "the quadratic expansion leaves the float range between 2z0 = 1.6e-05 and 1.6e-05 m"),
        (lambda config: mode_sweep(config, [2e-6, 16e-6]),
         "the quadratic expansion leaves the float range between 2z0 = 2e-06 and 1.6e-05 m"),
        (lambda config: equilibrium_shift(config, 8e-6),
         "the quadratic expansion leaves the float range between 2z0 = 1.6e-05 and 1.6e-05 m"),
        (lambda config: effective_frequencies(config, 1e-3),
         "the quadratic expansion leaves the float range between 2z0 = 0.002 and 0.002 m"),
    ], ids=["critical", "spectrum", "sweep", "shift", "frequencies"])
    def test_an_overflowing_combined_product_is_the_kernel_config_error(self, call, message):
        gg = reference_config("gg")
        m_a, m_i, w_iz = gg.atom.mass, gg.ion.mass, gg.ion_trap.axial
        c4 = math.sqrt(4e306 * m_a * m_i * w_iz**2 / 16.0)
        config = dataclasses.replace(
            gg, coefficients=dataclasses.replace(gg.coefficients, c4_ground=c4))
        terms = _terms(config)
        assert len(terms) == len(_Terms._fields) and all(map(math.isfinite, terms))
        assert 55.0 * terms.A10_1 - 30.0 * terms.A10_ab == math.inf
        with pytest.raises(ConfigError) as err:
            call(config)
        assert str(err.value) == message


class TestModeSweep:
    def test_grid_validation(self, cfg_rr):
        with pytest.raises(ConfigError):
            mode_sweep(cfg_rr, [10e-6, 12e-6, 11e-6])
        with pytest.raises(ConfigError):
            mode_sweep(cfg_rr, [-1e-6, 10e-6])
        for grid in ([], [np.inf], [10e-6, np.inf], [np.nan], [10e-6, np.nan]):
            with pytest.raises(ConfigError, match="positive, finite and non-empty"):
                mode_sweep(cfg_rr, grid)

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

    def test_scalar_label_matches_the_kernel(self):
        # critical_separation's Python-float twin of the kernel's rule
        a, b, c, bare = (np.array(column) for column in zip(*self.SECTORS))
        stretch, com, _, com_first = _diagonalize_sector(a, b, c, bare)
        for k, entries in enumerate(self.SECTORS):
            value, character = _lower_branch(*entries)
            assert (character == "com") == bool(com_first[k]), entries
            assert _lower_eigenvalue(*entries[:3]) == min(stretch[k], com[k]), entries
            assert value == _lower_eigenvalue(*entries[:3]), entries

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150), st.floats(-1e150, 1e150),
           st.floats(-1e150, 1e150), st.booleans(), st.sampled_from([None, 0.0, -0.0]))
    def test_scalar_label_matches_the_kernel_on_any_finite_sector(self, a, b, c, bare, even, uncoupled):
        b = a if even else b
        c = c if uncoupled is None else uncoupled
        stretch, com, _, com_first = _diagonalize_sector(*map(np.array, (a, b, c, bare)))
        value, character = _lower_branch(a, b, c, bare)
        assert (character == "com") == bool(com_first)
        assert value == _lower_eigenvalue(a, b, c)
        # math.hypot and np.hypot may round apart by an ulp
        scale = max(abs(a), abs(b), abs(c))
        assert abs(_lower_eigenvalue(a, b, c) - min(stretch, com)) <= 4 * np.spacing(scale)

    @pytest.mark.parametrize("entries", [
        (math.inf, 1.0, 0.5), (1.0, -math.inf, 0.0), (math.nan, 1.0, 0.0), (1.0, 1.0, math.inf),
        (1.0, 2.0, -math.inf), (1.0, 1.0, math.nan), (1e308, -1e308, 1.0), (1.7e308, 1.7e308, 1e308),
    ])
    def test_scalar_label_is_none_where_the_kernel_leaves_the_float_range(self, entries):
        with np.errstate(all="ignore"):
            branches = _diagonalize_sector(*map(np.array, entries), 1.0)
        assert not np.all(np.isfinite(branches[:3]))
        assert _lower_branch(*entries, 1.0) is None

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

    @pytest.mark.parametrize("config", kernel_configs(), ids=config_id)
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

    def test_sector_is_the_former_kernel_byte_for_byte(self):
        # ties included, where the relabelling runs
        a, b, c, bare = (np.array(column) for column in zip(*self.SECTORS))
        for got, want in zip(_diagonalize_sector(a, b, c, bare),
                             oracles.diagonalize_sectors(a, b, c, bare)):
            assert_same_bytes(got, want)
        rng = np.random.default_rng(7)
        a, b, c = rng.normal(size=(3, 500))
        for got, want in zip(_diagonalize_sector(a, b, c, 1.0),
                             oracles.diagonalize_sectors(a, b, c, 1.0)):
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("config", kernel_configs(), ids=config_id)
    def test_sweep_is_the_former_kernel_byte_for_byte(self, config):
        # test_sweep_matches_the_scalar_oracle allows ulps; this allows no
        # byte, on the sweep grid and on the bracket through every threshold
        for grid in (SWEEP_GRID, np.linspace(1e-6, 40e-6, 391)):
            got = mode_sweep(config, grid)
            _, (stretch, com, angle, com_first) = oracles.branches(config, 0.5 * grid)
            want = {"separation": grid, "stable": np.all((stretch > 0.0) & (com > 0.0), axis=0)}
            for k, sector in enumerate(("axial", "transverse")):
                want.update({f"{sector}_stretch_sq": stretch[k], f"{sector}_com_sq": com[k],
                             f"{sector}_angle": angle[k]})
            assert list(got) == ["separation", "axial_stretch_sq", "axial_com_sq",
                                 "transverse_stretch_sq", "transverse_com_sq", "axial_angle",
                                 "transverse_angle", "stable"]
            for name, column in got.items():
                assert_same_bytes(column, want[name])
            for got_part, want_part in zip(_branches(_terms(config), 0.5 * grid),
                                           (stretch, com, angle, com_first)):
                assert_same_bytes(got_part, want_part)

    @pytest.mark.parametrize("config", kernel_configs()[::2], ids=config_id)
    def test_single_points_are_the_former_kernel_byte_for_byte(self, config):
        for z0 in (2.6e-6, 4.8e-6, 8e-6, 15e-6):
            squares, want = oracles.branches(config, np.float64(z0))
            axial, force, got = _expansion_at(config, z0)
            assert axial == tuple(float(squares[k]) for k in (2, 3, 5, 7))
            assert force == tuple(map(float, squares[8:]))
            for got_part, want_part in zip(got, want):
                assert_same_bytes(got_part, want_part)

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

