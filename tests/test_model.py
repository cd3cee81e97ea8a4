"""Species, states, interaction coefficients, and characteristic scales."""

import math

import pytest
from hypothesis import given, strategies as st

from ionbridge import (
    GROUND,
    ConfigError,
    ElectronicState,
    InteractionCoefficients,
    IonModeIndex,
    TrapFrequencies,
    characteristic_scales,
    constants as cst,
    reference_config,
    require_valid,
    rydberg_c4,
    validate,
)


class TestConstants:
    def test_codata_2022_values_are_pinned(self):
        assert cst.ATOMIC_MASS_KG == 1.66053906892e-27
        assert cst.PLANCK == 6.62607015e-34
        assert cst.HBAR == cst.PLANCK / (2 * math.pi)


class TestStatesAndCoefficients:
    def test_ground_singleton_properties(self):
        assert not GROUND.is_rydberg
        assert GROUND.label() == "g"

    def test_rydberg_label(self):
        assert ElectronicState("rydberg", 30).label() == "30S"

    @pytest.mark.parametrize("kind, n", [
        ("plasma", None),
        ("rydberg", None),
        ("rydberg", 3),
        ("rydberg", 5),
    ])
    def test_invalid_states_rejected(self, kind, n):
        with pytest.raises(ConfigError):
            ElectronicState(kind, n)

    def test_c4_anchor_is_exact_at_30(self):
        base = cst.C4_GROUND_JM4
        assert rydberg_c4(base, 30) == cst.C4_30S_ANCHOR_FACTOR * base

    def test_c4_bare_scaling_ratio(self):
        base = cst.C4_GROUND_JM4
        ratio = rydberg_c4(base, 25) / rydberg_c4(base, 30)
        assert ratio == pytest.approx((25.0 / 30.0) ** 7, rel=1e-14)

    def test_c4_ground_request(self):
        assert rydberg_c4(2.0e-57, 0) == 2.0e-57

    def test_c4_defect_scaling_differs_from_bare(self):
        base = cst.C4_GROUND_JM4
        bare = rydberg_c4(base, 25, "bare_n")
        defected = rydberg_c4(base, 25, "quantum_defect")
        assert defected < bare  # (25 - d)/(30 - d) < 25/30 for d > 0

    @given(st.integers(min_value=6, max_value=80))
    def test_c4_monotone_in_n(self, n):
        base = cst.C4_GROUND_JM4
        assert rydberg_c4(base, n + 1) > rydberg_c4(base, n)

    def test_c6_zero_unless_double_rydberg(self):
        co = InteractionCoefficients()
        r30 = ElectronicState("rydberg", 30)
        assert co.c6(GROUND, GROUND) == 0.0
        assert co.c6(r30, GROUND) == 0.0
        assert co.c6(GROUND, r30) == 0.0

    def test_c6_anchor_pair_and_sign(self):
        co = InteractionCoefficients()
        r30 = ElectronicState("rydberg", 30)
        assert co.c6(r30, r30) == cst.C6_30S_PAIR_JM6
        assert co.c6(r30, r30) < 0.0  # repulsive under the -C6/r^6 convention

    def test_c6_eleventh_power_scaling(self):
        co = InteractionCoefficients()
        r25 = ElectronicState("rydberg", 25)
        expected = cst.C6_30S_PAIR_JM6 * (25.0 / 30.0) ** 11
        assert co.c6(r25, r25) == pytest.approx(expected, rel=1e-14)

    def test_negative_c4_ground_rejected(self):
        with pytest.raises(ConfigError):
            InteractionCoefficients(c4_ground=-1e-57)


class TestTrapAndModes:
    def test_geometric_mean(self):
        trap = TrapFrequencies(radial=2.0, axial=0.25)
        assert trap.geometric_mean == pytest.approx((2.0 * 2.0 * 0.25) ** (1 / 3))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigError):
            TrapFrequencies(radial=0.0, axial=1.0)

    def test_infinite_frequency_rejected(self):
        # 2.9e304 kHz in rad/s overflows to inf at the config boundary
        with pytest.raises(ConfigError, match="finite"):
            TrapFrequencies(radial=math.inf, axial=1.0)

    def test_cylindrical_bare_energy(self):
        trap = TrapFrequencies(radial=3.0e6, axial=1.0e6)
        mu = IonModeIndex.cylindrical(1, -2, 3)
        expected = cst.HBAR * (3.0e6 * (2 * 1 + 2 + 1) + 1.0e6 * 3.5)
        assert mu.bare_energy(trap) == pytest.approx(expected, rel=1e-14)

    def test_cartesian_bare_energy(self):
        trap = TrapFrequencies(radial=3.0e6, axial=1.0e6)
        mu = IonModeIndex.cartesian(2, 1, 0)
        expected = cst.HBAR * (3.0e6 * (2 + 1 + 1) + 1.0e6 * 0.5)
        assert mu.bare_energy(trap) == pytest.approx(expected, rel=1e-14)

    def test_negative_quantum_numbers_rejected(self):
        with pytest.raises(ConfigError):
            IonModeIndex.cartesian(-1, 0, 0)
        with pytest.raises(ConfigError):
            IonModeIndex.cylindrical(0, 0, -1)

    def test_cylindrical_allows_negative_m(self):
        mu = IonModeIndex.cylindrical(0, -3, 0)
        assert mu.n2 == -3


class TestCharacteristicScales:
    def test_reference_values(self, cfg_rr):
        s = characteristic_scales(cfg_rr)
        assert s.eta == pytest.approx(0.18771490186202414, rel=1e-12)
        assert s.a_z == pytest.approx(0.11367630960525797e-6, rel=1e-12)
        assert s.R_ia_star == pytest.approx(1326.1307421975623e-6, rel=1e-12)
        assert s.R_aa_star == pytest.approx(21.87084728939323e-6, rel=1e-12)

    def test_scales_against_closed_forms(self, cfg_rr):
        s = characteristic_scales(cfg_rr)
        m_a = cfg_rr.atom.mass
        m_i = cfg_rr.ion.mass
        wbar_a = (cfg_rr.atom_trap.radial**2 * cfg_rr.atom_trap.axial) ** (1 / 3)
        wbar_i = (cfg_rr.ion_trap.radial**2 * cfg_rr.ion_trap.axial) ** (1 / 3)
        assert s.eta == pytest.approx(math.sqrt(m_i / m_a * wbar_a / wbar_i), rel=1e-14)
        assert s.a_z == pytest.approx(
            math.sqrt(cst.HBAR / (m_a * cfg_rr.atom_trap.axial)), rel=1e-14)
        c4 = max(cfg_rr.c4_pair)
        mu_ia = m_i * m_a / (m_i + m_a)
        assert s.R_ia_star == pytest.approx(
            math.sqrt(2 * c4 * mu_ia) / cst.HBAR, rel=1e-14)
        c6 = abs(cfg_rr.c6_pair)
        assert s.R_aa_star == pytest.approx(
            (2 * c6 * 0.5 * m_a / cst.HBAR**2) ** 0.25, rel=1e-14)

    def test_interaction_lengths_vanish_without_interactions(self, cfg_gg):
        import dataclasses

        bare = dataclasses.replace(
            cfg_gg, coefficients=InteractionCoefficients(c4_ground=0.0))
        s = characteristic_scales(bare)
        assert s.R_ia_star == 0.0
        assert s.R_aa_star == 0.0

    def test_gg_pair_has_no_c6_length(self, cfg_gg):
        assert characteristic_scales(cfg_gg).R_aa_star == 0.0


class TestScalesOutOfRange:
    @pytest.mark.parametrize("atom_trap", [
        TrapFrequencies(1e-300, cst.TWO_PI * 9e3),  # the geometric mean underflows to 0
        TrapFrequencies(cst.TWO_PI * 100e3, 5e-324),  # m_a * omega_z underflows to 0
    ])
    def test_underflow_is_a_config_error(self, cfg_rr, atom_trap):
        import dataclasses

        config = dataclasses.replace(cfg_rr, atom_trap=atom_trap)
        with pytest.raises(ConfigError, match="float range"):
            characteristic_scales(config)


class TestValidation:
    def test_reference_config_is_clean(self, cfg_rr):
        assert validate(cfg_rr) == []
        require_valid(cfg_rr)

    def test_eta_above_one_is_an_error(self, cfg_rr):
        import dataclasses

        # a very stiff atom trap makes the "slow" subsystem fast
        fast = dataclasses.replace(
            cfg_rr, atom_trap=TrapFrequencies(cst.TWO_PI * 100e6, cst.TWO_PI * 9e6))
        messages = validate(fast)
        assert any("eta" in message for message in messages)
        with pytest.raises(ConfigError):
            require_valid(fast)

    def test_tight_separation_is_an_error(self, cfg_rr):
        close = cfg_rr.with_half_separation(0.2e-6)  # 2z0 < 10 a_z
        messages = validate(close)
        assert any("a_z" in message for message in messages)

    def test_reference_config_pairs(self):
        rg = reference_config("rg")
        assert rg.state_pair[0].is_rydberg and not rg.state_pair[1].is_rydberg
        with pytest.raises(ConfigError):
            reference_config("xx")
