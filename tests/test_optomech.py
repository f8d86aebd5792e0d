import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import optomech
from cvswap.gaussian import (
    GaussianState,
    log_negativity,
    symplectic_eigenvalues,
    two_mode_standard_form,
)
from cvswap.optomech import (
    OptomechParams,
    detuning_sweep,
    drift_diffusion,
    is_stable,
    mean_occupation,
    mechanical_cluster,
    standard_params,
    steady_state_cm,
)
from cvswap.relay import bell_detect, build_relay
from gaussian_reference import apply_symplectic, eigenvalue_is_stable, lyapunov_residual

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


def test_mean_occupation_falls_to_zero_at_tiny_temperatures():
    # below about 0.67 uK, e^(hbar omega / k_B T) leaves the float range; the
    # occupation keeps falling through the smallest floats to exactly 0
    temps = [1e-6, 7e-7, 6.9e-7, 6.7e-7, 6.6e-7, 1e-7, 1e-300, 5e-324, 0.0]
    occupations = [mean_occupation(OMEGA_M, t) for t in temps]
    assert all(math.isfinite(n) and n >= 0.0 for n in occupations)
    assert occupations == sorted(occupations, reverse=True)
    assert 0.0 < occupations[4] < 1e-300
    assert occupations[-4:] == [0.0] * 4


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


_FINITE_PARAMS = dict(omega_m=1.0, gamma_m=0.1, kappa=1.0, delta=0.5, g_eff=0.2, temp=1e-3)


@pytest.mark.parametrize("field", sorted(_FINITE_PARAMS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_refuse_non_finite_fields(field, bad):
    with pytest.raises(ValueError):
        OptomechParams(**dict(_FINITE_PARAMS, **{field: bad}))
    if field == "delta":  # a sweep's detunings go through with_delta
        with pytest.raises(ValueError):
            OptomechParams(**_FINITE_PARAMS).with_delta(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mean_occupation_refuses_non_finite_inputs(bad):
    with pytest.raises(ValueError):
        mean_occupation(bad, 1e-3)
    with pytest.raises(ValueError):
        mean_occupation(OMEGA_M, bad)


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
    for p in (standard_params(), standard_params(g_eff=2 * np.pi * 4e6).with_delta(0.3 * OMEGA_M)):
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
    # the margin scales with the Frobenius norm, ||A||_F = 10 sqrt(3) here
    # (||A||_2 = 10, the eigenvalue twin's scale, reads it unstable too)
    assert not is_stable(np.diag([-1e-13, -10.0, -10.0, -10.0]))
    # blue detuning at strong coupling destabilizes the steady state
    blue = standard_params().with_delta(-OMEGA_M)
    A_blue, _ = drift_diffusion(blue)
    assert not is_stable(A_blue)
    with pytest.raises(ValueError):
        steady_state_cm(blue)


def _drift_grid():
    """Drifts across both kappa readings, T = 0 / 0.4 mK / 300 K, g_eff 0..20 MHz, delta in [-2, 2] omega_m."""
    drifts = []
    for convention in ("angular", "ordinary"):
        for temp in (0.0, 0.4e-3, 300.0):
            for g_mhz in np.linspace(0.0, 20.0, 9):
                base = standard_params(g_eff=2 * np.pi * g_mhz * 1e6, kappa_convention=convention, temp=temp)
                for ratio in np.concatenate([np.linspace(-2.0, 2.0, 41), np.linspace(0.0, 1.5, 31)]):
                    drifts.append(drift_diffusion(base.with_delta(ratio * base.omega_m))[0])
    return drifts


def test_routh_hurwitz_matches_the_eigenvalue_twin_on_the_drift_grid():
    drifts = _drift_grid()
    flags = [is_stable(A) for A in drifts]
    assert flags == [eigenvalue_is_stable(A) for A in drifts]
    assert 0 < sum(flags) < len(flags)


def test_routh_hurwitz_matches_the_eigenvalue_twin_off_the_band_on_random_drifts():
    # Random drifts, two thirds of them shifted so that max Re lambda sits
    # 10^-15..1 ||B||_2 to either side of 0. The package's margin is
    # 1e-12 ||A||_F, the twin's 1e-12 ||A||_2 <= ||A||_F, so the flags may
    # differ only where max Re lambda lies between the two (widened by
    # 1e-14 ||A||_2 for rounding at either edge); everywhere else they agree.
    rng = np.random.default_rng(2024)
    count = 3000
    B = rng.normal(size=(count, 4, 4))
    near = rng.uniform(size=count) < 2 / 3
    offset = rng.choice([-1.0, 1.0], count) * np.linalg.norm(B, 2, axis=(1, 2)) * 10.0 ** rng.uniform(-15, 0, count)
    shift = np.where(near, np.linalg.eigvals(B).real.max(axis=1) + offset, 0.0)
    drifts = B - shift[:, None, None] * np.eye(4)
    top = np.linalg.eigvals(drifts).real.max(axis=1)
    norm_2, norm_f = np.linalg.norm(drifts, 2, axis=(1, 2)), np.linalg.norm(drifts, axis=(1, 2))
    slack = 1e-14 * norm_2
    in_band = (top >= -optomech.STABILITY_MARGIN * norm_f - slack) & (top <= -optomech.STABILITY_MARGIN * norm_2 + slack)
    flags = np.array([is_stable(A) for A in drifts])
    twin = np.array([eigenvalue_is_stable(A) for A in drifts])
    assert (flags == twin)[~in_band].all()
    # the sample reaches both verdicts close to the boundary
    close = np.abs(top) < 1e-9 * norm_2
    assert flags[close & ~in_band].any() and not flags[close & ~in_band].all()


@pytest.mark.parametrize(
    "A",
    [
        np.diag([np.nan, -1.0, -1.0, -1.0]),
        np.diag([-np.inf, -1.0, -1.0, -1.0]),
        np.diag([np.inf, -np.inf, np.nan, -1.0]),
        -np.eye(2),
        -np.eye(5),
        np.zeros(4),
    ],
    ids=["nan", "inf", "mixed", "2x2", "5x5", "vector"],
)
def test_is_stable_refuses_a_non_finite_or_non_4x4_drift(A):
    with pytest.raises(ValueError):
        is_stable(A)


def test_is_stable_reads_every_finite_scale():
    # A is scaled by a power of two first, so no coefficient overflows or underflows
    A, _ = drift_diffusion(standard_params())
    for s in (1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300, 2.0**-1060):
        assert is_stable(s * A)
        assert not is_stable(-s * A)
    assert is_stable(np.diag([-1.7e308, -1.7e308, -5e-324 - 1.7e308, -1.7e308]))
    assert not is_stable(np.zeros((4, 4)))


def test_fig2c_sweep_runs_without_svd_or_eigvals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd or eigvals called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    # the fig2c grid, and one blue-detuned point for the unstable branch
    deltas = np.append(np.linspace(0.0, 1.5, 31), -1.0) * OMEGA_M
    rows = []
    for g_mhz in (4.0, 8.0, 8.5):
        rows += detuning_sweep(standard_params(g_eff=2 * np.pi * g_mhz * 1e6), deltas, n_users=(2,))
    assert [row[4] for row in rows] == ([1] * 31 + [0]) * 3


def test_is_stable_makes_no_numpy_linalg_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    A, _ = drift_diffusion(standard_params())
    A_blue, _ = drift_diffusion(standard_params().with_delta(-OMEGA_M))
    assert is_stable(A) and not is_stable(A_blue)


def test_lyapunov_residual_is_tiny():
    # read off the returned state, not the solver's own residual
    for p in [standard_params()] + [standard_params().with_delta(r * OMEGA_M) for r in np.linspace(0.05, 1.5, 8)]:
        assert lyapunov_residual(p, steady_state_cm(p)) < 1e-10


def test_steady_state_frozen_values():
    # regression anchors computed independently before this module existed
    p = standard_params().with_delta(0.7 * OMEGA_M)
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
        st = steady_state_cm(standard_params().with_delta(ratio * OMEGA_M))
        assert symplectic_eigenvalues(st.cov)[0] >= 1.0 - 1e-9


def test_mechanical_cluster_is_permutation_symmetric():
    cluster, _ = mechanical_cluster(standard_params().with_delta(0.7 * OMEGA_M), 3)
    cov = cluster.cov
    for perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
        idx = np.concatenate([[2 * m, 2 * m + 1] for m in perm])
        np.testing.assert_allclose(cov[np.ix_(idx, idx)], cov, atol=1e-9)


def test_preprocessed_copy_is_the_standard_form_rotation():
    # the copies are rotated by S of two_mode_standard_form without
    # apply_symplectic's check; the cluster must equal that route's bit for bit
    p = standard_params().with_delta(0.7 * OMEGA_M)
    single = steady_state_cm(p)
    rotated = apply_symplectic(single, two_mode_standard_form(single.cov)[4])
    for n in (2, 3):
        cluster, _ = mechanical_cluster(p, n)
        expected, _ = bell_detect([rotated] * n, build_relay(n))
        np.testing.assert_array_equal(cluster.cov, expected.cov)


def test_mechanical_swap_never_beats_input():
    for ratio in np.linspace(0.1, 1.5, 8):
        p = standard_params().with_delta(ratio * OMEGA_M)
        e_in = log_negativity(steady_state_cm(p), [0])
        _, e_pair = mechanical_cluster(p, 2)
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
        p = standard_params(temp=temp).with_delta(0.7 * OMEGA_M)
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


def test_detuning_sweep_builds_the_drift_pair_once_per_point(monkeypatch):
    calls = []

    def counting_drift_diffusion(p):
        calls.append(1)
        return drift_diffusion(p)

    monkeypatch.setattr(optomech, "drift_diffusion", counting_drift_diffusion)
    base = standard_params()
    deltas = [0.5 * OMEGA_M, OMEGA_M, -OMEGA_M]  # the last point is unstable
    rows = detuning_sweep(base, deltas, n_users=(2, 3))
    assert len(calls) == len(deltas)
    assert [r[4] for r in rows] == [1, 1, 1, 1, 0, 0]


def test_stable_two_user_point_builds_each_state_once(monkeypatch):
    # the steady state, its standard-form copy and the relay output; the
    # pair of an N = 2 output is the output itself, not a reduced copy
    calls = []
    original = GaussianState.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GaussianState, "__init__", counting_init)
    (row,) = detuning_sweep(standard_params(), [0.5 * OMEGA_M], n_users=(2,))
    assert row[4] == 1
    assert len(calls) == 3


@pytest.mark.parametrize("n_users", [(2.5,), (2, 3.5), (1,), (0,), (float("nan"),), (float("inf"),)])
def test_detuning_sweep_refuses_bad_cluster_sizes_before_any_work(monkeypatch, n_users):
    def no_work(p):
        raise AssertionError("a point was computed")

    monkeypatch.setattr(optomech, "drift_diffusion", no_work)
    with pytest.raises(ValueError):
        detuning_sweep(standard_params(), [0.5 * OMEGA_M], n_users=n_users)


def test_detuning_sweep_reads_integral_floats_as_integers():
    base = standard_params()
    assert detuning_sweep(base, [0.5 * OMEGA_M], n_users=(2.0, 3.0)) == detuning_sweep(
        base, [0.5 * OMEGA_M], n_users=(2, 3)
    )


def test_detuning_sweep_takes_standard_form_once_per_stable_point(monkeypatch):
    # the sweep takes the standard form through the unchecked body, since
    # the steady state it rotates is already validated
    calls = []
    body = optomech._standard_form

    def counting_standard_form(cov):
        calls.append(1)
        return body(cov)

    monkeypatch.setattr(optomech, "_standard_form", counting_standard_form)
    base = standard_params()
    deltas = [0.5 * OMEGA_M, OMEGA_M, -OMEGA_M]  # the last point is unstable
    rows = detuning_sweep(base, deltas, n_users=(2, 3, 4))
    assert [r[4] for r in rows] == [1] * 6 + [0] * 3
    assert len(calls) == 2


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
                _, e_pair = mechanical_cluster(p, n)
                assert e_pair == 0.0


def _scipy_lyapunov(A, D):
    # independent reference: Bartels-Stewart, only ever imported by the tests
    from scipy.linalg import solve_continuous_lyapunov

    return solve_continuous_lyapunov(A, -D)


def _solver_tolerance(A, V):
    """1e-12 ||V||, or eps cond(K) ||V|| where the Lyapunov operator K is worse conditioned.

    Two backward-stable solvers may differ by about eps cond(K) ||V||. On the
    fig2c grid that exceeds 1e-12 ||V|| only at zero detuning, where the
    barely damped mechanics (gamma_m / omega_m = 1e-5) give cond(K) = 2e5 to 4e5.
    """
    K = np.kron(A, np.eye(4)) + np.kron(np.eye(4), A)
    return max(1e-12, np.finfo(float).eps * np.linalg.cond(K)) * np.linalg.norm(V, 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kronecker_lyapunov_matches_scipy_on_random_stable_drifts(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(4, 4))
    # shift the spectrum to real parts in [-3, -0.1]
    A = B - (np.max(np.linalg.eigvals(B).real) + rng.uniform(0.1, 3.0)) * np.eye(4)
    G = rng.normal(size=(4, 4))
    D = G @ G.T
    V = optomech._kron_lyapunov(A, D)
    reference = _scipy_lyapunov(A, D)
    np.testing.assert_allclose(V, reference, rtol=0, atol=_solver_tolerance(A, reference))


def test_kronecker_lyapunov_matches_scipy_on_the_fig2c_grid():
    for g_mhz in (4.0, 8.0, 8.5):
        base = standard_params(g_eff=2 * np.pi * g_mhz * 1e6)
        for ratio in np.linspace(0.0, 1.5, 31):
            p = base.with_delta(ratio * base.omega_m)
            A, D = drift_diffusion(p)
            if not is_stable(A):
                continue
            state = steady_state_cm(p)
            V = state.cov[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]  # back to the solver's (q, p, X, P)
            reference = _scipy_lyapunov(A / p.omega_m, D / p.omega_m)
            reference = 0.5 * (reference + reference.T)
            tol = _solver_tolerance(A / p.omega_m, reference)
            np.testing.assert_allclose(V, reference, rtol=0, atol=tol)
            assert lyapunov_residual(p, state) < 1e-10


def test_detuning_sweep_does_not_load_scipy():
    # the optomechanical path needs numpy alone; scipy.linalg costs a process
    # about 27 MB and 0.13 s to import
    src = os.path.dirname(os.path.dirname(optomech.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from cvswap.optomech import detuning_sweep, standard_params\n"
        "base = standard_params()\n"
        "rows = detuning_sweep(base, [0.5 * base.omega_m, -base.omega_m], n_users=(2, 3))\n"
        "assert [r[4] for r in rows] == [1, 1, 0, 0], rows\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
