"""Acceptance checks: the quantitative targets of the reference system.

One test per claim, each asserting the reference figure at its stated
tolerance on the 87Rb - 40Ca+ - 87Rb configuration, with runtime guards
where a budget is stated.  Every check here treats the library as a
black box; independent finite-difference oracles guard the analytic
paths.

Precision of quoted figures: a figure quoted to k significant figures
is checked to half a unit in its k-th digit (0.19 -> abs 0.005), unless
the claim states its own tolerance (the 2% on R_ia* and R_aa*).  The
exact closed-form values are pinned separately in tests/test_model.py.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
from ionbridge import (
    AtomPairGeometry,
    IonModeIndex,
    LoopPath,
    axial_bo_curve,
    bare_product_state,
    basis_ground_state,
    berry_phase,
    cartesian_modes,
    characteristic_scales,
    connection_matrix,
    constants as cst,
    critical_separation,
    effective_frequencies,
    effective_potential_U,
    equilibrium_shift,
    gauge_hermiticity_check,
    gaussian_ground_state,
    ion_displacement,
    mode_sweep,
    pair_density,
    phonon_spectrum,
    reference_config,
    square_loop,
    state_overlap,
)
from ionbridge.cli import main as cli_main
from ionbridge.motion import axial_hamiltonian_matrix, symmetric_eigensolve

KHZ2 = (cst.TWO_PI * 1e3) ** 2


# ---------------------------------------------------------------- 1: scales

def test_criterion_1_adiabaticity_ratio():
    start = time.perf_counter()
    scales = characteristic_scales(reference_config("rr"))
    assert time.perf_counter() - start < 1.0
    assert scales.eta == pytest.approx(0.19, abs=0.005)


def test_criterion_1_axial_oscillator_length():
    # 0.11 um is quoted to two significant figures, so it promises only
    # that a_z lies in [0.105, 0.115) um.  sqrt(hbar / (m_a omega_az))
    # with m_a = 86.909 u and omega_az = 2 pi * 9 kHz gives 0.1137 um.
    # The other conventions miss the window: hbar / (2 m omega) gives
    # 0.080 um, the reduced mass m_a / 2 gives 0.161 um, the mean trap
    # frequency gives 0.051 um and omega in Hz gives 0.285 um.
    scales = characteristic_scales(reference_config("rr"))
    assert scales.a_z * 1e6 == pytest.approx(0.11, abs=0.005)


def test_criterion_1_polarization_length():
    scales = characteristic_scales(reference_config("rr"))
    assert scales.R_ia_star * 1e6 == pytest.approx(1333.0, rel=0.02)


def test_criterion_1_van_der_waals_length():
    scales = characteristic_scales(reference_config("rr"))
    assert scales.R_aa_star * 1e6 == pytest.approx(21.92, rel=0.02)


# ------------------------------------------------- 2: critical separations

@pytest.mark.parametrize("pair, n, target_um, tol", [
    ("rr", 30, 9.20, 0.03),
    ("rg", 30, 9.19, 0.03),
    ("rr", 25, 7.58, 0.06),
])
def test_criterion_2_critical_separation(pair, n, target_um, tol):
    config = reference_config(pair, n=n, scaling="bare_n")
    start = time.perf_counter()
    result = critical_separation(config)
    assert time.perf_counter() - start < 1.0
    assert result.critical_2z0 * 1e6 == pytest.approx(target_um, rel=tol)


# --------------------------------------------------------- 3: BO curves

def test_criterion_3_ground_pair_curve_below_1hz():
    config = reference_config("rr")
    grid = np.linspace(10e-6, 30e-6, 200)
    start = time.perf_counter()
    curves = axial_bo_curve(grid, config.ion_mode, config)
    assert time.perf_counter() - start < 5.0
    assert np.max(np.abs(curves["V_gg"])) < cst.PLANCK * 1.0


def test_criterion_3_rr_to_rg_ratio():
    config = reference_config("rr")
    grid = np.linspace(15e-6, 30e-6, 151)
    curves = axial_bo_curve(grid, config.ion_mode, config)
    ratio = np.abs(curves["V_rr"]) / np.abs(curves["V_rg"])
    assert np.all(ratio >= 1.8) and np.all(ratio <= 2.1)


def test_criterion_3_c6_term_at_10um():
    config = reference_config("rr")
    no_c6 = dataclasses.replace(
        config,
        coefficients=dataclasses.replace(config.coefficients, c6_rydberg_anchor=0.0),
    )
    grid = np.array([10e-6])
    with_term = axial_bo_curve(grid, config.ion_mode, config)["V_rr"][0]
    without = axial_bo_curve(grid, no_c6.ion_mode, no_c6)["V_rr"][0]
    assert (with_term - without) / cst.PLANCK == pytest.approx(26.6, abs=1.5)


# ------------------------------------------ 4: phonon degeneracy (alpha=beta)

def test_criterion_4_splitting_equals_2_omega_zz_sq():
    # machine-precision equality: the tolerance is a few ulps of the
    # mode values themselves, since the splitting is their difference
    config = reference_config("rr")
    for sep_um in (10.0, 12.0, 16.0, 24.0):
        z0 = 0.5 * sep_um * 1e-6
        spectrum = phonon_spectrum(config, z0)
        stretch = spectrum.branch("axial", "stretch").omega_sq
        com = spectrum.branch("axial", "com").omega_sq
        omega_zz_sq = effective_frequencies(config, z0).omega_zz_sq
        assert stretch - com == pytest.approx(2.0 * abs(omega_zz_sq),
                                              abs=64.0 * np.spacing(stretch))


def test_criterion_4_splitting_below_one_percent():
    config = reference_config("rr")
    sweep = mode_sweep(config, np.linspace(10e-6, 24e-6, 57))
    fraction = (sweep["axial_stretch_sq"] - sweep["axial_com_sq"]) \
        / sweep["axial_com_sq"]
    assert np.all(fraction < 0.01)


def test_criterion_4_transverse_asymptote():
    config = reference_config("rr")
    for sep in (24e-6, 60e-6):
        spectrum = phonon_spectrum(config, 0.5 * sep)
        for character in ("stretch", "com"):
            value = spectrum.branch("transverse", character).omega_sq / KHZ2
            assert value == pytest.approx(1.0e4, rel=1e-3)


def test_criterion_4_axial_shift_30s_exceeds_40_khz2():
    config = reference_config("rr")
    sweep = mode_sweep(config, np.linspace(10e-6, 24e-6, 57))
    bare = config.atom_trap.axial**2
    shift = np.abs(sweep["axial_stretch_sq"] - bare) / KHZ2
    assert np.all(sweep["stable"])
    assert np.max(shift) > 40.0


def test_criterion_4_axial_shift_25s_below_20_khz2():
    config = reference_config("rr", n=25)
    sweep = mode_sweep(config, np.linspace(10e-6, 24e-6, 57))
    bare = config.atom_trap.axial**2
    for column in ("axial_stretch_sq", "axial_com_sq"):
        shift = np.abs(sweep[column] - bare) / KHZ2
        assert np.max(shift) < 20.0


# ------------------------------------------------- 5: rg COM invariance

def test_criterion_5_com_axial_within_1_percent():
    config = reference_config("rg")
    sweep = mode_sweep(config, np.linspace(9.3e-6, 24e-6, 40))
    assert np.all(sweep["stable"])
    com = np.sqrt(sweep["axial_com_sq"])
    assert np.max(np.abs(com / config.atom_trap.axial - 1.0)) < 0.01


def test_criterion_5_com_transverse_within_01_percent():
    config = reference_config("rg")
    sweep = mode_sweep(config, np.linspace(9.3e-6, 24e-6, 40))
    com = np.sqrt(sweep["transverse_com_sq"])
    assert np.max(np.abs(com / config.atom_trap.radial - 1.0)) < 0.001


# ------------------------------------------------- 6: oracle equivalence

def _fd_hessian(config, h=2e-9):
    z0 = config.half_separation_z0
    x0 = np.array([0.0, 0.0, z0, 0.0, 0.0, -z0])

    def u(vec):
        geom = AtomPairGeometry(np.asarray(vec[:3]), np.asarray(vec[3:]))
        return effective_potential_U(geom, config.ion_mode, config)

    hess = np.zeros((6, 6))
    f0 = u(x0)
    for a in range(6):
        ea = np.zeros(6)
        ea[a] = h
        hess[a, a] = (u(x0 + ea) - 2 * f0 + u(x0 - ea)) / h**2
        for b in range(a + 1, 6):
            eb = np.zeros(6)
            eb[b] = h
            cross = (u(x0 + ea + eb) - u(x0 + ea - eb)
                     - u(x0 - ea + eb) + u(x0 - ea - eb)) / (4 * h**2)
            hess[a, b] = hess[b, a] = cross
    return hess


def _analytic_hessian(config):
    m = config.atom.mass
    f = effective_frequencies(config, config.half_separation_z0)
    hess = np.zeros((6, 6))
    hess[0, 0] = hess[1, 1] = m * f.omega_bar_rho1_sq
    hess[3, 3] = hess[4, 4] = m * f.omega_bar_rho2_sq
    hess[2, 2] = m * f.omega_bar_z1_sq
    hess[5, 5] = m * f.omega_bar_z2_sq
    hess[0, 3] = hess[3, 0] = hess[1, 4] = hess[4, 1] = -m * f.omega_xy_sq
    hess[2, 5] = hess[5, 2] = m * f.omega_zz_sq
    return hess


@pytest.mark.parametrize("pair", ["rr", "rg"])
def test_criterion_6_hessian_matches_finite_differences(pair):
    for sep_um in (12.0, 16.0, 20.0, 24.0):
        config = reference_config(pair, z0=0.5 * sep_um * 1e-6)
        analytic = _analytic_hessian(config)
        numeric = _fd_hessian(config)
        deviation = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert deviation < 0.005


def test_criterion_6_displacement_matches_minimizer():
    config = reference_config("rg")  # 2z0 = 16 um
    geometry = AtomPairGeometry.at_trap_centers(config)
    analytic = ion_displacement(geometry, config).as_array()
    _, found = oracles.oracle_min_ion_energy(geometry, config)
    assert np.linalg.norm(found - analytic) < 0.01 * np.linalg.norm(analytic)


def test_criterion_6_quadratic_limit_matches_closed_form():
    # the expansion's axial block K and force per unit mass f in atom
    # coordinates d = (z1 - z0, z2 + z0): V(d) = m (d.K.d / 2 - f.d)
    config = reference_config("rr")
    z0 = config.half_separation_z0
    m_a = config.atom.mass
    w_az = config.atom_trap.axial
    fr = effective_frequencies(config, z0)
    block = np.array([[fr.omega_bar_z1_sq, fr.omega_zz_sq],
                      [fr.omega_zz_sq, fr.omega_bar_z2_sq]])
    force = np.array([-z0 * fr.Omega_1_sq, z0 * fr.Omega_2_sq])

    def quad_model(z1, z2):
        d1, d2 = z1 - z0, z2 + z0
        v = 0.5 * (block[0, 0] * d1**2 + 2 * block[0, 1] * d1 * d2 + block[1, 1] * d2**2)
        v = v - force[0] * d1 - force[1] * d2
        # the matrix builder adds the bare trap analytically; remove it here
        return m_a * (v - 0.5 * w_az**2 * (d1**2 + d2**2))

    matrix = axial_hamiltonian_matrix(config, z0, 24, potential_fn=quad_model)
    values, _ = symmetric_eigensolve(matrix)
    w_minus, w_plus = np.sqrt(np.linalg.eigvalsh(block))
    shift = -0.5 * m_a * force @ np.array(equilibrium_shift(config, z0))
    ladder = sorted(
        shift + cst.HBAR * (w_plus * (i + 0.5) + w_minus * (j + 0.5))
        for i in range(5) for j in range(5)
    )[:10]
    np.testing.assert_allclose(values[:10], ladder, rtol=1e-8)


# --------------------------------------------------- 7: motional states

@pytest.fixture(scope="module")
def ground_state_20um():
    config = reference_config("rr", z0=10e-6)
    start = time.perf_counter()
    state = basis_ground_state(config, 10e-6, n_max=30)
    return config, state, time.perf_counter() - start


def test_criterion_7_variational_monotonicity():
    z0 = 6e-6
    config = reference_config("rr", z0=z0)
    energies = []
    for n in (8, 12, 16, 20, 24, 28):
        matrix = axial_hamiltonian_matrix(config, z0, n)
        values, _ = symmetric_eigensolve(matrix)
        energies.append(values[0])
    slack = 1e-10 * cst.HBAR * config.atom_trap.axial
    assert all(lo <= hi + slack for lo, hi in zip(energies[1:], energies[:-1]))


def test_criterion_7_convergence_and_runtime(ground_state_20um):
    _, state, elapsed = ground_state_20um
    assert elapsed < 60.0
    assert state.residual < 1e-6


def test_criterion_7_overlap_with_gaussian(ground_state_20um):
    config, state, _ = ground_state_20um
    gauss = gaussian_ground_state(config, 10e-6)
    reach = max(max(gauss.widths) * 8.0,
                state.osc_length * (math.sqrt(2.0 * state.n_max + 1.0) + 5.0))
    z1 = np.linspace(gauss.center[0] - reach, gauss.center[0] + reach, 161)
    z2 = np.linspace(gauss.center[1] - reach, gauss.center[1] + reach, 161)
    assert state_overlap(state, gauss, z1, z2) >= 0.999


def test_criterion_7_densities_normalized(ground_state_20um):
    config, state, _ = ground_state_20um
    gauss = gaussian_ground_state(config, 10e-6)
    reach = max(max(gauss.widths) * 8.0,
                state.osc_length * (math.sqrt(2.0 * state.n_max + 1.0) + 5.0))
    z1 = np.linspace(gauss.center[0] - reach, gauss.center[0] + reach, 161)
    z2 = np.linspace(gauss.center[1] - reach, gauss.center[1] + reach, 161)
    for psi in (state, gauss, bare_product_state(config, 10e-6)):
        density = pair_density(psi, z1, z2)
        norm = np.trapezoid(np.trapezoid(density, z2, axis=1), z1)
        assert norm == pytest.approx(1.0, abs=1e-4)


# ------------------------------------------------------- 8: gauge suite

def test_criterion_8_connection_structure_and_runtime():
    config = reference_config("rr")
    geometry = AtomPairGeometry.at_trap_centers(config)
    modes = cartesian_modes(3)
    start = time.perf_counter()
    scale = 0.0
    for atom_index in (1, 2):
        conn = connection_matrix(modes, atom_index, geometry, config)
        scale = max(scale, float(np.max(np.abs(conn))))
        for i in range(len(modes)):
            assert np.max(np.abs(conn[i, i])) <= 1e-12 * scale
        for i, bra in enumerate(modes):
            for k, ket in enumerate(modes):
                steps = sorted(abs(b - j) for b, j in
                               [(bra.n1, ket.n1), (bra.n2, ket.n2), (bra.n3, ket.n3)])
                if steps != [0, 0, 1]:
                    assert np.max(np.abs(conn[i, k])) == 0.0
    assert gauge_hermiticity_check(modes, geometry, config) <= 1e-12 * scale
    assert time.perf_counter() - start < 10.0


def test_criterion_8_elements_match_quadrature_oracle():
    from test_gauge import oracle_gauge_element

    config = reference_config("rr")
    geometry = AtomPairGeometry(np.array([0.4e-6, -0.3e-6, 7.8e-6]),
                                np.array([0.2e-6, 0.1e-6, -8.1e-6]))
    ground = IonModeIndex.cartesian(0, 0, 0)
    kets = [IonModeIndex.cartesian(*t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    scale = max(np.max(np.abs(oracles.gauge_element(ground, ket, atom, geometry, config)))
                for ket in kets for atom in (1, 2))
    for atom_index in (1, 2):
        for ket in kets:
            analytic = oracles.gauge_element(ground, ket, atom_index, geometry, config)
            for axis in range(3):
                numeric = oracle_gauge_element(ground, ket, atom_index, geometry,
                                               config, axis)
                assert abs(numeric - analytic[axis]) <= 1e-6 * max(
                    abs(analytic[axis]), 1e-3 * scale)


def test_criterion_8_berry_phase_vanishes_on_closed_loops():
    config = reference_config("rr")
    z0 = config.half_separation_z0
    rectangle = LoopPath(np.array([
        [[0.0, 0.0, z0], [0.0, 0.0, -z0]],
        [[0.0, 0.0, z0], [0.0, 2e-6, -z0]],
        [[0.0, 1e-6, z0], [0.0, 2e-6, -z0]],
        [[0.0, 1e-6, z0], [0.0, 0.0, -z0]],
        [[0.0, 0.0, z0], [0.0, 0.0, -z0]],
    ]))
    for loop in (square_loop(config, side=1e-6), rectangle):
        for mode in (IonModeIndex.cartesian(0, 0, 0),
                     IonModeIndex.cartesian(2, 1, 0)):
            assert abs(berry_phase(loop, mode, config)) <= 1e-8


# ------------------------------------------------------- 9: determinism

def test_criterion_9_cli_runs_are_byte_identical(config_file, tmp_path, capsys):
    config_path = str(config_file())
    commands = [
        ["scales", "--config", config_path],
        ["bo-curve", "--config", config_path, "--points", "51"],
        ["phonons", "--config", config_path, "--points", "29"],
        ["critical", "--config", config_path,
         "--pairs", "rr", "rg", "gg", "25S-25S"],
        ["density", "--config", config_path,
         "--separations-um", "16", "--n-max", "16", "--points", "41"],
        ["gauge", "--config", config_path, "--max-n", "1"],
    ]

    def run_all(out_dir):
        for argv in commands:
            assert cli_main(argv + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
