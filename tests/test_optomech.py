import numpy as np
import pytest

from cvswap import optomech
from cvswap.gaussian import log_negativity, min_symplectic_eigenvalue, two_mode_standard_form
from cvswap.optomech import (
    OptomechParams,
    detuning_sweep,
    drift_diffusion,
    is_stable,
    lyapunov_residual,
    mean_occupation,
    mechanical_cluster,
    standard_params,
    steady_state_cm,
)

OMEGA_M = 2 * np.pi * 10e6


def test_mean_occupation_basics():
    assert mean_occupation(OMEGA_M, 0.0) == 0.0
    # frozen from scipy constants: hbar*omega/(k_B*T) = 1.19981... at 0.4 mK
    assert mean_occupation(OMEGA_M, 0.4e-3) == pytest.approx(0.4311294964622995, rel=1e-12)
    assert mean_occupation(OMEGA_M, 0.4e-3) == pytest.approx(0.431, abs=5e-4)
    with pytest.raises(ValueError):
        mean_occupation(OMEGA_M, -1.0)
    with pytest.raises(ValueError):
        mean_occupation(0.0, 1.0)


def test_mean_occupation_classical_limit():
    from scipy.constants import hbar, k as k_B

    temp = 100.0 * hbar * OMEGA_M / k_B  # k_B T = 100 hbar omega
    classical = k_B * temp / (hbar * OMEGA_M)
    assert mean_occupation(OMEGA_M, temp) == pytest.approx(classical, rel=0.01)


def test_params_validation():
    with pytest.raises(ValueError):
        OptomechParams(omega_m=-1.0, gamma_m=1.0, kappa=1.0, delta=0.0, g_eff=0.0, temp=0.0)
    with pytest.raises(ValueError):
        OptomechParams(omega_m=1.0, gamma_m=0.0, kappa=1.0, delta=0.0, g_eff=0.0, temp=0.0)
    with pytest.raises(ValueError):
        OptomechParams(omega_m=1.0, gamma_m=1.0, kappa=1.0, delta=0.0, g_eff=-0.1, temp=0.0)
    with pytest.raises(ValueError):
        OptomechParams(omega_m=1.0, gamma_m=1.0, kappa=1.0, delta=0.0, g_eff=0.0, temp=-1.0)
    # delta may take any sign, coupling may vanish
    p = OptomechParams(omega_m=1.0, gamma_m=0.1, kappa=1.0, delta=-2.0, g_eff=0.0, temp=0.0)
    assert p.with_delta(3.0).delta == 3.0


def test_standard_params_kappa_conventions():
    angular = standard_params()
    assert angular.kappa == pytest.approx(3.14e7)
    ordinary = standard_params(kappa_convention="ordinary")
    assert ordinary.kappa == pytest.approx(2 * np.pi * 31.4e6)
    with pytest.raises(ValueError):
        standard_params(kappa_convention="half")
    assert angular.delta == angular.omega_m  # default detuning


def test_drift_structural_zero_pattern():
    # the pattern must not depend on parameter values
    zero_positions = {(0, 0), (0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (3, 1)}
    for p in (standard_params(), standard_params(delta=0.3 * OMEGA_M, g_eff=2 * np.pi * 4e6)):
        A, D = drift_diffusion(p)
        for i in range(4):
            for j in range(4):
                if (i, j) in zero_positions:
                    assert A[i, j] == 0.0
                else:
                    assert A[i, j] != 0.0
        assert np.count_nonzero(A) == 9
        # diffusion is diagonal with no position noise
        np.testing.assert_array_equal(D, np.diag(np.diag(D)))
        assert D[0, 0] == 0.0


def test_drift_entries_match_rates():
    p = standard_params()
    A, D = drift_diffusion(p)
    assert A[0, 1] == p.omega_m
    assert A[1, 0] == -p.omega_m
    assert A[1, 1] == -p.gamma_m
    assert A[1, 2] == p.g_eff == A[3, 0]
    assert A[2, 2] == A[3, 3] == -p.kappa
    assert A[2, 3] == p.delta == -A[3, 2]
    nb = p.n_bar
    np.testing.assert_allclose(
        np.diag(D), [0.0, 2 * p.gamma_m * (2 * nb + 1), 2 * p.kappa, 2 * p.kappa]
    )


def test_decoupled_steady_state_pins_diffusion():
    p = standard_params(g_eff=0.0)
    st = steady_state_cm(p)
    nb = p.n_bar
    # (cavity, mechanics) order: vacuum cavity, thermal mechanics
    np.testing.assert_allclose(
        st.cov, np.diag([1.0, 1.0, 2 * nb + 1, 2 * nb + 1]), atol=1e-12
    )


def test_stability_checks():
    A, _ = drift_diffusion(standard_params())
    assert is_stable(A)
    # no dissipation, finite coupling: purely oscillatory, not stable
    w, g = 1.0, 0.3
    lossless = np.array(
        [
            [0.0, w, 0.0, 0.0],
            [-w, 0.0, g, 0.0],
            [0.0, 0.0, 0.0, w],
            [g, 0.0, -w, 0.0],
        ]
    )
    assert not is_stable(lossless)
    # blue detuning at strong coupling destabilizes the steady state
    blue = standard_params(delta=-OMEGA_M)
    A_blue, _ = drift_diffusion(blue)
    assert not is_stable(A_blue)
    with pytest.raises(ValueError):
        steady_state_cm(blue)


def test_lyapunov_residual_is_tiny():
    assert lyapunov_residual(standard_params()) < 1e-10
    for ratio in np.linspace(0.05, 1.5, 8):
        assert lyapunov_residual(standard_params(delta=ratio * OMEGA_M)) < 1e-10


def test_steady_state_frozen_values():
    # regression anchors computed independently before this module existed
    p = standard_params(delta=0.7 * OMEGA_M)
    st = steady_state_cm(p)
    assert log_negativity(st, [0]) == pytest.approx(0.33714185877093505, rel=1e-9)
    a, b, c_plus, c_minus, _ = two_mode_standard_form(st.cov)
    assert a == pytest.approx(1.4694100176442877, rel=1e-9)
    assert b == pytest.approx(1.5976898901516454, rel=1e-9)
    assert c_plus == pytest.approx(0.993336249084664, rel=1e-9)
    assert c_minus == pytest.approx(-0.5834557720413462, rel=1e-9)


def test_movable_mirror_benchmark():
    # strong-drive, hot-bath steady state of Vitali et al., PRL 98, 030405
    # (2007): the published optical-mechanical log-negativity peaks near 0.3
    # around Delta = omega_m
    p = OptomechParams(
        omega_m=OMEGA_M,
        gamma_m=OMEGA_M / 1e5,
        kappa=1.4 * OMEGA_M,
        delta=0.75 * OMEGA_M,
        g_eff=1.82 * OMEGA_M,
        temp=0.4,
    )
    assert p.n_bar == pytest.approx(832.9648649173312, rel=1e-12)
    st = steady_state_cm(p)
    assert log_negativity(st, [0]) == pytest.approx(0.30897571435510646, rel=1e-9)


def test_steady_state_bona_fide_across_sweep():
    for ratio in np.linspace(0.0, 1.5, 16):
        st = steady_state_cm(standard_params(delta=ratio * OMEGA_M))
        assert min_symplectic_eigenvalue(st.cov) >= 1.0 - 1e-9


def test_mechanical_cluster_is_permutation_symmetric():
    cluster, _ = mechanical_cluster(standard_params(delta=0.7 * OMEGA_M), 3)
    cov = cluster.cov
    for perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
        idx = np.concatenate([[2 * m, 2 * m + 1] for m in perm])
        np.testing.assert_allclose(cov[np.ix_(idx, idx)], cov, atol=1e-9)


def test_mechanical_swap_never_beats_input():
    for ratio in np.linspace(0.1, 1.5, 8):
        p = standard_params(delta=ratio * OMEGA_M)
        e_in = log_negativity(steady_state_cm(p), [0])
        for preprocess in (True, False):
            _, e_pair = mechanical_cluster(p, 2, local_preprocessing=preprocess)
            assert e_pair <= e_in + 1e-12


def test_decoupled_blocks_swap_to_nothing():
    p = standard_params(g_eff=0.0)
    for n in (2, 3):
        _, e_pair = mechanical_cluster(p, n)
        assert e_pair == 0.0


def test_temperature_never_helps():
    temps = [0.4e-3, 4e-3, 40e-3]
    e_in_values, e_pair_values = [], []
    for temp in temps:
        p = standard_params(delta=0.7 * OMEGA_M, temp=temp)
        e_in_values.append(log_negativity(steady_state_cm(p), [0]))
        _, e_pair = mechanical_cluster(p, 2)
        e_pair_values.append(e_pair)
    assert np.all(np.diff(e_in_values) <= 1e-12)
    assert np.all(np.diff(e_pair_values) <= 1e-12)


def test_detuning_sweep_rows_and_flags():
    base = standard_params()
    deltas = [0.5 * OMEGA_M, -OMEGA_M]  # second point is unstable
    rows = detuning_sweep(base, deltas, n_users=(2, 3))
    assert len(rows) == 4
    stable_rows = [r for r in rows if r[4] == 1]
    unstable_rows = [r for r in rows if r[4] == 0]
    assert len(stable_rows) == 2 and len(unstable_rows) == 2
    for ratio, n, e_in, e_pair, _flag in stable_rows:
        assert ratio == pytest.approx(0.5)
        assert e_in > 0.0 and e_pair >= 0.0
    for _ratio, _n, e_in, e_pair, _flag in unstable_rows:
        assert np.isnan(e_in) and np.isnan(e_pair)


def test_detuning_sweep_checks_stability_once_per_point(monkeypatch):
    calls = []

    def counting_is_stable(A):
        calls.append(1)
        return is_stable(A)

    monkeypatch.setattr(optomech, "is_stable", counting_is_stable)
    base = standard_params()
    deltas = [0.5 * OMEGA_M, OMEGA_M, -OMEGA_M]  # the last point is unstable
    rows = detuning_sweep(base, deltas, n_users=(2, 3))
    assert len(calls) == len(deltas)
    assert [r[4] for r in rows] == [1, 1, 1, 1, 0, 0]


def test_conditional_determinant_keeps_mirrors_separable():
    # Any Gaussian measurement on the N cavity modes leaves the mirrors with a
    # covariance >= (+) (B - C A^-1 C^T), where A, B, C are the cavity,
    # mirror and cross blocks of one steady state. That Schur complement is
    # a physical one-mode covariance exactly when det V / det A >= 1, and the
    # mirrors are then a product state plus classical noise: separable for
    # every N, relay and local preprocessing. Both sides on the criterion-5
    # grid, where every point is stable: the determinant ratio, and the
    # relay pipeline's exact zero.
    for convention in ("angular", "ordinary"):
        base = standard_params(kappa_convention=convention)
        for ratio in np.linspace(0.0, 1.5, 31):
            p = base.with_delta(ratio * base.omega_m)
            cov = steady_state_cm(p).cov
            assert np.linalg.det(cov) / np.linalg.det(cov[:2, :2]) >= 1.0
            for n in (2, 3, 4, 5):
                for preprocess in (True, False):
                    _, e_pair = mechanical_cluster(p, n, local_preprocessing=preprocess)
                    assert e_pair == 0.0
