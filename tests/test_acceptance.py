"""Acceptance gate: one test (or parametrized group) per release criterion.

The terminal summary hook in conftest.py turns these into one
``ACCEPTANCE n: PASS/FAIL`` line each. Criteria and tolerances are frozen
here on purpose — do not loosen them to make a run green.
"""

import json
import time

import numpy as np
import pytest

import cvswap as cs
from cvswap import analysis
from cvswap.analysis import (
    NetworkPoint,
    block_logneg_formula,
    block_logneg_numeric,
    e2_formula,
    full_house_logneg,
    gle_formula,
    gle_numeric,
    network_cluster_cm,
    pairwise_logneg_formula,
    pairwise_logneg_numeric,
    swap_logneg_two,
    tmsv_swap_bound,
)
from cvswap.cli import main
from cvswap.gaussian import log_negativity, symplectic_eigenvalues
from cvswap.optomech import (
    detuning_sweep,
    mechanical_cluster,
    standard_params,
    steady_state_cm,
)
from cvswap.relay import bell_detect, build_relay, cluster_closed_form, diff_x_variance, sum_p_variance
from cvswap.sources import frontier_closed_form, sample_normal_form, tmsv
from gaussian_reference import lyapunov_residual, unclamped_logneg

OMEGA_M = 2 * np.pi * 10e6


# --- criterion 1 -----------------------------------------------------------


def test_criterion_1_closed_form_matches_pipeline():
    """200 random bona-fide normal forms, N in 2..8, max-abs error < 1e-9,
    single-threaded wall time < 30 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        nf = sample_normal_form(rng, 10.0, require_entangled=False)
        state = nf.state()
        for n in range(2, 9):
            closed = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
            piped, _ = bell_detect([state] * n, build_relay(n))
            worst = max(worst, float(np.max(np.abs(closed - piped.cov))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-9, f"max closed-form vs pipeline deviation {worst:.3e}"
    assert elapsed < 30.0, f"fidelity sweep took {elapsed:.1f} s"


# --- criterion 2 -----------------------------------------------------------


def test_criterion_2_formulas_match_oracles():
    """Pairwise/block formulas vs matrix oracles at 1e-9 (on the raw scale
    against the unclamped Williamson reference, and clamped against the
    package oracles) and the GLE formula vs the measurement optimizer at
    1e-6, over a 100-point grid; the full-house splitting is exactly the
    two-user value."""
    rng = np.random.default_rng(202)
    worst_pair = worst_block = worst_gle = 0.0
    for _ in range(100):
        pt = NetworkPoint(
            mu=float(rng.uniform(1.0, 10.0)),
            eta=float(rng.uniform(0.1, 1.0)),
            omega=float(rng.uniform(1.0, 5.0)),
            n_users=int(rng.integers(2, 9)),
        )
        cm = network_cluster_cm(pt)

        pair_err = max(
            abs(unclamped_logneg(cm, [0], [1]) - analysis._block(pt, 1)),
            abs(pairwise_logneg_numeric(cm) - pairwise_logneg_formula(pt)),
        )
        worst_pair = max(worst_pair, pair_err)

        for n_prime in range(1, pt.n_users // 2 + 1):
            groups = (range(n_prime), range(n_prime, 2 * n_prime))
            block_err = max(
                abs(unclamped_logneg(cm, *groups) - analysis._block(pt, n_prime)),
                abs(block_logneg_numeric(cm, *groups) - block_logneg_formula(pt, n_prime)),
            )
            worst_block = max(worst_block, block_err)

        gle_err = abs(gle_numeric(cm) - gle_formula(pt))
        worst_gle = max(worst_gle, gle_err)

        if pt.n_users % 2 == 0:
            assert full_house_logneg(pt) == e2_formula(pt)
            assert analysis._block(pt, pt.n_users // 2) == analysis._e2(pt)

    assert worst_pair < 1e-9, f"pairwise formula vs oracle deviation {worst_pair:.3e}"
    assert worst_block < 1e-9, f"block formula vs oracle deviation {worst_block:.3e}"
    assert worst_gle < 1e-6, f"GLE formula vs optimizer deviation {worst_gle:.3e}"


# --- criterion 3 -----------------------------------------------------------


def test_criterion_3_ghz_variance_identities():
    """TMSV input: Var(sum P) = N/mu and Var(X_i - X_j) = 2/mu to 1e-9."""
    for mu in (2.0, 10.0, 100.0):
        nf = tmsv(mu)
        for n in range(2, 9):
            cm = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
            assert abs(sum_p_variance(cm) - n / mu) < 1e-9
            for i, j in [(0, 1), (0, n - 1)]:
                assert abs(diff_x_variance(cm, i, j) - 2.0 / mu) < 1e-9
    # one spot check straight through the measurement pipeline
    nf = tmsv(2.0)
    piped, _ = bell_detect([nf.state() for _ in range(3)], build_relay(3))
    assert abs(sum_p_variance(piped.cov) - 1.5) < 1e-9


# --- criterion 4 -----------------------------------------------------------


def test_criterion_4_sampled_outputs_respect_symmetric_bound():
    """10^4 sampled entangled states, checked against what the symmetric-state
    curve E_out = ln cosh(E_in) and the asymmetry frontier promise:

    (i) every input whose kept side is at least as noisy as the measured
        side (d <= 0) lies on or below ln cosh(E_in);
    (ii) every input lies on or below the closed-form frontier at its own
        asymmetry, and strictly below E_in (no free lunch);
    (iii) strongly asymmetric d <= -1 inputs with E_in >= 0.25 sit more
        than 0.01 below ln cosh(E_in).

    The curve does not cap d > 0: the bona-fide normal form x = 4, y = 2,
    z = sqrt(5) has E_in = 0.597 but E_out = ln(4/3) = 0.288 > ln cosh(E_in)
    = 0.168, and 16 % of these samples lie above the curve, all with d > 0;
    (ii) is their cap. The E_in floor in (iii) is needed because
    ln cosh(E_in) ~ E_in^2 / 2 vanishes for barely entangled inputs, so no
    fixed absolute gap holds there.
    """
    rng = np.random.default_rng(20260814)
    x_max = 10.0
    kept_noisier_excess = []
    frontier_excess = []
    input_excess = []
    n_strong = 0
    strong_gaps = []
    for _ in range(10_000):
        nf = sample_normal_form(rng, x_max)
        e_in = nf.log_negativity()
        e_out = swap_logneg_two(nf.x, nf.y, nf.z)
        bound = tmsv_swap_bound(e_in)
        frontier_excess.append(e_out - frontier_closed_form(nf.d, x_max))
        input_excess.append(e_out - e_in)
        if nf.d <= 0.0:
            kept_noisier_excess.append(e_out - bound)
        if nf.d <= -1.0:
            n_strong += 1
            if e_in >= 0.25:
                strong_gaps.append(bound - e_out)
    assert n_strong > 100, "sampler produced too few strongly asymmetric states"
    above = sum(1 for e in kept_noisier_excess if e > 1e-12)
    assert above == 0, (
        f"{above}/{len(kept_noisier_excess)} d <= 0 samples exceed the ln cosh(E_in) "
        f"curve (worst excess {max(kept_noisier_excess):.3e})"
    )
    assert max(frontier_excess) <= 1e-12, (
        f"sample above the asymmetry frontier by {max(frontier_excess):.3e}"
    )
    assert max(input_excess) < 0.0, f"sample with E_out - E_in = {max(input_excess):.3e}"
    assert min(strong_gaps) > 0.01, f"smallest d <= -1, E_in >= 0.25 gap {min(strong_gaps):.4f}"


# --- criterion 5 -----------------------------------------------------------


@pytest.fixture(scope="module")
def optomech_sweep():
    base = standard_params()  # gamma_m/2pi = 100 Hz, omega_m/2pi = 10 MHz, T = 0.4 mK
    deltas = np.linspace(0.0, 1.5, 31) * base.omega_m
    started = time.perf_counter()
    rows = detuning_sweep(base, deltas, n_users=(2, 3, 4, 5))
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_5_optomech_a_stable_region(optomech_sweep):
    rows, _ = optomech_sweep
    assert any(row[4] == 1 for row in rows), "no stable steady state on the detuning range"


def test_criterion_5_optomech_b_optical_mechanical_entanglement(optomech_sweep):
    rows, _ = optomech_sweep
    best = max(row[2] for row in rows if row[4] == 1)
    assert best > 0.0, "steady state never optical-mechanically entangled"


def test_criterion_5_optomech_c_mechanical_pair_entanglement(optomech_sweep):
    rows, _ = optomech_sweep
    best = max(row[3] for row in rows if row[4] == 1 and row[1] == 2)
    assert best > 0.0, (
        "swapped mechanical entanglement is zero across the whole detuning range: "
        "the relay measures the intracavity modes, and det V / det V_cavity >= 1 "
        "makes each mirror's conditional covariance B - C A^-1 C^T a physical "
        "one-mode state, so no optical Gaussian measurement leaves the mirrors entangled"
    )


def test_criterion_5_optomech_d_positive_and_decreasing_to_n5(optomech_sweep):
    rows, _ = optomech_sweep
    best_by_n = {}
    for _ratio, n, _e_in, e_pair, stable in rows:
        if stable:
            best_by_n[n] = max(best_by_n.get(n, 0.0), e_pair)
    values = [best_by_n[n] for n in (2, 3, 4, 5)]
    assert all(v > 0.0 for v in values), f"max mechanical entanglement by N: {values}"
    assert all(a > b for a, b in zip(values, values[1:])), (
        f"max mechanical entanglement not decreasing in N: {values}"
    )


def test_criterion_5_optomech_runtime(optomech_sweep):
    _, elapsed = optomech_sweep
    assert elapsed < 60.0, f"N in 2..5 sweep took {elapsed:.1f} s"


# --- criterion 6 -----------------------------------------------------------


def test_criterion_6_physicality_suite():
    # every pipeline product bona fide, and swapping never beats the input
    rng = np.random.default_rng(606)
    for _ in range(50):
        nf = sample_normal_form(rng, 10.0)
        state = nf.state()
        for n in (2, 4, 8):
            out, _ = bell_detect([state] * n, build_relay(n))
            assert symplectic_eigenvalues(out.cov)[0] >= 1.0 - 1e-9
        out2, _ = bell_detect([state] * 2, build_relay(2))
        assert log_negativity(out2, [0]) <= nf.log_negativity() + 1e-12

    # network side: numeric pairwise output never exceeds the input entanglement
    for _ in range(25):
        pt = NetworkPoint(
            mu=float(rng.uniform(1.0, 10.0)),
            eta=float(rng.uniform(0.1, 1.0)),
            omega=float(rng.uniform(1.0, 5.0)),
            n_users=int(rng.integers(2, 9)),
        )
        e_in = pt.normal_form().log_negativity()
        assert pairwise_logneg_numeric(network_cluster_cm(pt)) <= e_in + 1e-12

    # optomechanics: Lyapunov residuals, bona fide steady states, no free lunch
    for convention in ("angular", "ordinary"):
        for ratio in np.linspace(0.05, 1.5, 10):
            p = standard_params(kappa_convention=convention).with_delta(ratio * OMEGA_M)
            st = steady_state_cm(p)
            assert lyapunov_residual(p, st) < 1e-10
            assert symplectic_eigenvalues(st.cov)[0] >= 1.0 - 1e-9
            _, e_pair = mechanical_cluster(p, 2)
            assert e_pair <= log_negativity(st, [0]) + 1e-12


# --- criterion 7 -----------------------------------------------------------

_DETERMINISM_ARGS = {
    "swap-check": ["--samples", "5", "--n-max", "4", "--seed", "11"],
    "fig2a": ["--samples", "50", "--seed", "11"],
    "fig2b": ["--d", "linspace(-1,1,5)", "--x-max", "5"],
    "network-sweep": ["--mu", "1,5", "--eta", "0.5,1", "--n", "2..4"],
    "fig2c": ["--delta-over-omega-m", "linspace(0,1.5,4)", "--g-eff-mhz", "8"],
    "fig2d": ["--delta-over-omega-m", "linspace(0,1.5,4)", "--n", "2..3"],
    "ghz-limit": ["--mu", "2,10", "--n", "2..4"],
}


def test_criterion_7_cli_determinism(tmp_path, capsys):
    from cvswap.cli import EXPERIMENTS

    assert set(_DETERMINISM_ARGS) == set(EXPERIMENTS), "every experiment must be covered"
    for experiment, extra in _DETERMINISM_ARGS.items():
        tables = {}
        for fmt in ("csv", "json"):
            blobs = []
            for run in ("one", "two"):
                out = tmp_path / f"{experiment}-{run}.{fmt}"
                code = main([experiment, *extra, "--format", fmt, "--out", str(out)])
                assert code == 0, f"{experiment} exited {code}"
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"{experiment} {fmt} output not byte-identical"
            tables[fmt] = blobs[0].decode()
        # both formats carry the same values (JSON writes null where CSV has nan)
        csv_rows = [[float(v) for v in line.split(",")] for line in tables["csv"].splitlines()[1:]]
        json_rows = [[np.nan if v is None else v for v in row] for row in json.loads(tables["json"])["rows"]]
        np.testing.assert_array_equal(csv_rows, json_rows, err_msg=experiment)
    capsys.readouterr()
