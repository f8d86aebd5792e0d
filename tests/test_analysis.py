import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvswap import analysis, gaussian
from cvswap.analysis import (
    NetworkPoint,
    _read_last,
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
from cvswap.gaussian import GaussianState, PhysicalityError
from cvswap.relay import bell_detect, build_relay, cluster_closed_form
from cvswap.sources import sample_normal_form, tmsv
from gaussian_reference import (
    embed_orthogonal,
    gle_sequential,
    grid_line_search,
    is_symplectic,
    pair_first,
    read_quadrature,
    rotation,
    tensor,
    unclamped_logneg,
    vacuum,
)


def test_network_point_validation():
    with pytest.raises(ValueError):
        NetworkPoint(0.5, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        NetworkPoint(2.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        NetworkPoint(2.0, 1.0, 0.5, 2)
    with pytest.raises(ValueError):
        NetworkPoint(2.0, 1.0, 1.0, 1)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# (builder, refused values): sizes must also be integral; x, y and z only finite
_SIZE_CASES = {
    "NetworkPoint-n_users": (lambda n: NetworkPoint(5.0, 0.9, 1.0, n), [2.5, *_NON_FINITE]),
    "block_logneg_formula-n_prime": (
        lambda n: block_logneg_formula(NetworkPoint(5.0, 0.9, 1.0, 8), n),
        [1.5, *_NON_FINITE],
    ),
    "cluster_closed_form-n_users": (lambda n: cluster_closed_form(3.0, 3.0, 2.0, n), [2.5, *_NON_FINITE]),
    "cluster_closed_form-x": (lambda v: cluster_closed_form(v, 3.0, 2.0, 3), _NON_FINITE),
    "cluster_closed_form-y": (lambda v: cluster_closed_form(3.0, v, 2.0, 3), _NON_FINITE),
    "cluster_closed_form-z": (lambda v: cluster_closed_form(3.0, 3.0, v, 3), _NON_FINITE),
}


@pytest.mark.parametrize(
    "build, bad",
    [(build, bad) for build, bads in _SIZE_CASES.values() for bad in bads],
    ids=[f"{name}-{bad}" for name, (_, bads) in _SIZE_CASES.items() for bad in bads],
)
def test_sizes_and_blocks_refuse_non_integral_or_non_finite_input(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def test_integral_float_sizes_read_as_integers():
    pt = NetworkPoint(5.0, 0.9, 1.0, 4.0)
    assert pt.n_users == 4 and type(pt.n_users) is int
    assert network_cluster_cm(pt).shape == (8, 8)
    assert block_logneg_formula(pt, 2.0) == block_logneg_formula(pt, 2)
    np.testing.assert_array_equal(
        cluster_closed_form(3.0, 3.0, 2.0, 4.0).assemble(), cluster_closed_form(3.0, 3.0, 2.0, 4).assemble()
    )


def test_alpha_is_recomputed():
    pt = NetworkPoint(2.0, 0.8, 1.3, 5)
    expected = 0.8 * (4.0 - 1.0) / (0.8 + 0.2 * 2.0 * 1.3)
    assert pt.alpha == pytest.approx(expected, rel=1e-15)


# values computed independently from the printed formulas before this
# module was written
REFERENCE_POINT = dict(mu=2.0, eta=0.8, omega=1.3)
REFERENCE_VALUES = {
    "e2": 0.3429447511268306,
    "alpha": 1.8181818181818186,
    "pairwise_raw": {3: 0.10605257508400975, 5: -0.025854720438559076, 8: -0.08715588148472525},
    "gle": {3: 0.2218747251243982, 5: 0.09817063846747764, 8: 0.01224551000414803},
}


def test_frozen_reference_values():
    for n, expected in REFERENCE_VALUES["pairwise_raw"].items():
        pt = NetworkPoint(n_users=n, **REFERENCE_POINT)
        assert pt.alpha == pytest.approx(REFERENCE_VALUES["alpha"], rel=1e-12)
        assert e2_formula(pt) == pytest.approx(REFERENCE_VALUES["e2"], rel=1e-12)
        assert analysis._block(pt, 1) == pytest.approx(expected, rel=1e-12)
        assert gle_formula(pt) == pytest.approx(REFERENCE_VALUES["gle"][n], rel=1e-12)
    pt6 = NetworkPoint(n_users=6, **REFERENCE_POINT)
    assert analysis._block(pt6, 2) == pytest.approx(0.10605257508400975, rel=1e-12)


def test_pairwise_formula_lossless_cases():
    # eta = 1: the relay is fed pure TMSVs
    pt = NetworkPoint(5.0 / 3.0, 1.0, 1.0, 2)
    assert pairwise_logneg_formula(pt) == pytest.approx(np.log(5.0 / 3.0), abs=1e-12)
    pt4 = NetworkPoint(5.0 / 3.0, 1.0, 1.0, 4)
    expected = np.log(5.0 / 3.0) - 0.5 * np.log(17.0 / 9.0)
    assert pairwise_logneg_formula(pt4) == pytest.approx(expected, abs=1e-12)
    assert pairwise_logneg_formula(pt4) == pytest.approx(0.19283, abs=5e-6)


def test_no_input_entanglement_means_zero_everywhere():
    for n in (2, 3, 8):
        pt = NetworkPoint(1.0, 0.7, 2.0, n)
        assert pairwise_logneg_formula(pt) == 0.0
        assert gle_formula(pt) == 0.0
        assert block_logneg_formula(pt, n // 2) == 0.0
        # the numeric side sees a product of thermals
        assert pairwise_logneg_numeric(network_cluster_cm(pt)) == 0.0


def test_gle_reduces_to_e2_for_two_users():
    pt = NetworkPoint(3.0, 0.6, 1.5, 2)
    assert gle_formula(pt) == e2_formula(pt)


def test_gle_alpha_zero_is_regular():
    # mu = 1 gives alpha = 0; the correction must vanish, not blow up
    pt = NetworkPoint(1.0, 0.5, 2.0, 6)
    assert analysis._gle(pt) == analysis._e2(pt)


@pytest.mark.parametrize("mu", [1e17, 1e150, 1e300])
def test_e2_far_below_zero_reads_the_log_of_the_ratio(mu):
    # at eta = 1/mu, omega = 1, num / den = 2 / mu to rounding, while
    # (num - den) / den rounds to -1, whose log1p is -inf
    assert analysis._e2(NetworkPoint(mu, 1.0 / mu, 1.0, 3)) == pytest.approx(np.log(2.0 / mu), rel=1e-14)


def test_e2_where_its_denominator_overflows_is_finite_and_negative():
    # den = eta + (1 - eta) mu omega passes the largest double here, and
    # (num - den) / den would read nan; num / den is (1 + 1e-6) / 1e154
    pt = NetworkPoint(1e154, 0.5, 1e160, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [analysis._e2(pt), analysis._gle(pt), analysis._block(pt, 1)]
    assert values[0] == pytest.approx(np.log1p(1e-6) - np.log(1e154), rel=1e-14)
    assert values == [values[0]] * 3
    assert e2_formula(pt) == 0.0


@pytest.mark.parametrize(
    "args",
    [
        (1e200, 0.9, 1.1, 4),
        (1.7e308, 0.5, 1.7e308, 2),
        (2e307, 0.9, 1.1, 3),
        (2e307, 0.9, 1.1, 4),
        (1e154, 1.0, 1.0, 4),
    ],
)
def test_alpha_where_mu_squared_overflows_matches_exact_arithmetic(args):
    # mu * mu passes the largest double at the first four points (and so
    # does the denominator at the second); alpha itself is representable,
    # and past half the largest double at the last three, where 2 alpha and
    # alpha (N - 2) overflow
    pt = NetworkPoint(*args)
    mu, eta, omega = (Fraction(v) for v in args[:3])
    n = pt.n_users
    alpha = eta * (mu * mu - 1) / (eta + (1 - eta) * mu * omega)
    assert pt.alpha == pytest.approx(float(alpha), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gle, block = analysis._gle(pt), analysis._block(pt, 1)
    ratio = (eta * mu + (1 - eta) * omega) / (eta + (1 - eta) * mu * omega)
    e2 = math.log(ratio.numerator) - math.log(ratio.denominator)
    assert analysis._e2(pt) == pytest.approx(e2, rel=1e-12)
    assert gle == pytest.approx(e2 - 0.5 * math.log1p(float(alpha * (n - 2) / (n + 2 * alpha))), rel=1e-12)
    assert block == pytest.approx(e2 - 0.5 * math.log1p(float(alpha * (n - 2) / n)), rel=1e-12)
    assert gle_formula(pt) == max(0.0, gle)
    assert pairwise_logneg_formula(pt) == block_logneg_formula(pt, 1) == max(0.0, block)


def test_alpha_past_the_largest_double_raises():
    # eta = 1: alpha = mu^2 - 1 = 1e320
    with pytest.raises(OverflowError):
        NetworkPoint(1e160, 1.0, 1.0, 2).alpha


def test_block_edge_cases():
    pt = NetworkPoint(4.0, 0.9, 1.2, 6)
    assert block_logneg_formula(pt, 1) == pairwise_logneg_formula(pt)
    assert full_house_logneg(pt) == e2_formula(pt)
    with pytest.raises(ValueError):
        block_logneg_formula(pt, 4)
    with pytest.raises(ValueError):
        block_logneg_formula(pt, 0)
    with pytest.raises(ValueError):
        full_house_logneg(NetworkPoint(4.0, 0.9, 1.2, 5))


def test_pairwise_numeric_matches_formula():
    rng = np.random.default_rng(31)
    for _ in range(30):
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(10)))),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
            int(rng.integers(2, 9)),
        )
        cm = network_cluster_cm(pt)
        assert unclamped_logneg(cm, [0], [1]) == pytest.approx(analysis._block(pt, 1), abs=1e-9)
        assert pairwise_logneg_numeric(cm) == pytest.approx(
            pairwise_logneg_formula(pt), abs=1e-9
        )


def test_pairwise_numeric_pair_choice_is_irrelevant():
    pt = NetworkPoint(4.0, 0.85, 1.4, 5)
    cm = network_cluster_cm(pt)
    values = {
        block_logneg_numeric(cm, [i], [j])
        for i, j in [(0, 1), (0, 4), (2, 3), (1, 3)]
    }
    assert max(values) - min(values) < 1e-10


def _random_symplectic(rng, n):
    """O1 Z O2 on n modes: passive O from random unitaries, Z single-mode squeezers (|r| <= 1.5)."""

    def passive():
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        O = np.empty((2 * n, 2 * n))  # x' = Re Q x - Im Q p, p' = Im Q x + Re Q p
        O[0::2, 0::2], O[0::2, 1::2] = Q.real, -Q.imag
        O[1::2, 0::2], O[1::2, 1::2] = Q.imag, Q.real
        return O

    r = rng.uniform(-1.5, 1.5, n)
    Z = np.diag(np.exp(np.stack([r, -r], axis=1).ravel()))
    return passive() @ Z @ passive()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), cluster=st.booleans())
def test_pair_oracles_match_the_williamson_reference(seed, n, cluster):
    # Every pair goes through the closed-form two-mode kernel of
    # log_negativity; the reference takes the Williamson spectrum of the
    # partially transposed pair. Inputs: S diag(nu) S^T for random
    # symplectic S and thermal nu in [1, 1.5], or a closed-form cluster whose
    # modes are rotated one by one. About 25% of the random pairs and 14% of
    # the cluster pairs are entangled; the rest test the clamp.
    rng = np.random.default_rng(seed)
    if cluster:
        pt = NetworkPoint(rng.uniform(1.0, 20.0), rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0), n)
        S = np.zeros((2 * n, 2 * n))
        for m in range(n):
            S[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(rng.uniform(0.0, np.pi))
        cm = S @ network_cluster_cm(pt) @ S.T
    else:
        S = _random_symplectic(rng, n)
        assert is_symplectic(S)
        cm = S @ np.diag(np.repeat(rng.uniform(1.0, 1.5, n), 2)) @ S.T
    assert GaussianState(cm).n_modes == n
    for i in range(n):
        for j in range(n):
            if i != j:
                expected = max(0.0, unclamped_logneg(cm, [i], [j]))
                assert block_logneg_numeric(cm, [i], [j]) == pytest.approx(expected, abs=1e-12)
    assert pairwise_logneg_numeric(cm) == block_logneg_numeric(cm, [0], [1])


def test_pipeline_cluster_equals_closed_form_cluster():
    pt = NetworkPoint(3.0, 0.75, 1.6, 4)
    piped, _ = bell_detect([pt.normal_form().state()] * pt.n_users, build_relay(pt.n_users))
    np.testing.assert_allclose(piped.cov, network_cluster_cm(pt), atol=1e-10)


def test_gle_numeric_matches_formula_lossless():
    # eta = 1, mu = 2 over small relays
    for n in (3, 4, 5):
        pt = NetworkPoint(2.0, 1.0, 1.0, n)
        value = gle_numeric(network_cluster_cm(pt))
        assert value == pytest.approx(gle_formula(pt), abs=1e-6)


def test_gle_numeric_escapes_separable_plateau():
    # At strong squeezing and high transmissivity every homodyne pattern that
    # mixes in X measurements leaves the pair separable, so an ascent started
    # blindly at the X corner would stall at zero; the common-angle seeding
    # must still find the all-P optimum.
    pt = NetworkPoint(9.65480694424593, 0.9196266789583959, 1.5133378101077652, 7)
    value = gle_numeric(network_cluster_cm(pt))
    assert value == pytest.approx(0.8610847463670371, abs=1e-9)
    assert value == pytest.approx(gle_formula(pt), abs=1e-9)


def test_gle_numeric_pair_choice_is_irrelevant():
    # gle_numeric reads modes 0 and 1; another pair is moved to the front first
    cm = network_cluster_cm(NetworkPoint(3.0, 0.8, 1.2, 5))
    value = gle_numeric(cm)
    assert gle_numeric(pair_first(cm, 2, 4)) == pytest.approx(value, abs=1e-9)
    assert gle_numeric(pair_first(cm, 4, 2)) == pytest.approx(value, abs=1e-9)


def test_gle_numeric_keeps_the_requested_pair():
    # a TMSV on modes (0, 1) next to a vacuum mode 2: only pairs inside the
    # TMSV carry entanglement, whichever mode is measured
    cm = tensor(tmsv(3.0).state(), vacuum(1)).cov
    e_tmsv = np.log(3.0 + np.sqrt(8.0))
    assert gle_numeric(pair_first(cm, 1, 0)) == pytest.approx(e_tmsv, abs=1e-9)
    assert gle_numeric(pair_first(cm, 0, 2)) == pytest.approx(0.0, abs=1e-9)
    assert gle_numeric(pair_first(cm, 2, 1)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("sigma2", [0.5, 2.0])
@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_gle_numeric_reads_a_mode_coupled_through_one_quadrature(sigma2, phi):
    # A TMSV on modes (0, 1) and a vacuum mode 2 share classical noise of
    # variance sigma2 on X0 and X2, and mode 2 takes as much on P2, so its
    # block stays (1 + sigma2) I; mode 2 is then turned by phi. Only its
    # quadrature at phi carries the noise, so reading it is best and leaves
    # sigma2 / (1 + sigma2) of it on X0. An isotropic measured block reads
    # the same variance at every angle, and the line search finds the
    # reading with no warning, also off the seed grid.
    cov = tensor(tmsv(3.0).state(), vacuum(1)).cov
    e = np.zeros(6)
    e[[0, 4]] = 1.0
    cov = cov + sigma2 * np.outer(e, e)
    cov[5, 5] += sigma2
    R = np.eye(6)
    R[4:, 4:] = rotation(phi)
    cov = R @ cov @ R.T
    kept = tmsv(3.0).cov()
    kept[0, 0] += sigma2 / (1.0 + sigma2)
    expected = max(0.0, unclamped_logneg(kept, [0], [1]))
    assert expected > 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gle_numeric(cov) == pytest.approx(expected, abs=1e-12)


def test_gle_numeric_rejects_bad_pair():
    # a one-mode input has no pair; a bad pair is refused by the reduce
    # that moves it to the front
    with pytest.raises(ValueError, match="one mode"):
        gle_numeric(np.eye(2))
    cm = network_cluster_cm(NetworkPoint(3.0, 0.8, 1.2, 5))
    with pytest.raises(ValueError, match="duplicate mode indices"):
        gle_numeric(pair_first(cm, 1, 1))
    with pytest.raises(IndexError, match="out of range"):
        gle_numeric(pair_first(cm, 0, 7))
    with pytest.raises(IndexError, match="out of range"):
        gle_numeric(pair_first(cm, -1, 2))


def test_pair_and_block_oracles_refuse_an_unphysical_marginal():
    # the marginal an oracle reads must be a state; a mode it does not read
    # is not checked
    with pytest.raises(PhysicalityError):
        pairwise_logneg_numeric(np.diag([0.1, 0.1, 1.0, 1.0]))
    cluster = network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, 3))
    cm = np.zeros((8, 8))
    cm[:6, :6] = cluster
    cm[6:, 6:] = 0.3 * np.eye(2)
    with pytest.raises(PhysicalityError):
        block_logneg_numeric(cm, [0], [3])
    with pytest.raises(PhysicalityError):
        block_logneg_numeric(cm, [0, 1], [3])
    assert pairwise_logneg_numeric(cm) == pairwise_logneg_numeric(cluster)
    assert block_logneg_numeric(cm, [0], [1, 2]) == block_logneg_numeric(cluster, [0], [1, 2])


def test_gle_numeric_rejects_unphysical_input():
    # an assisting mode with variance below vacuum in both quadratures is no
    # state, whatever the pair holds
    for pair, assist in ((vacuum(2).cov, 0.5), (tmsv(3.0).cov(), 0.3)):
        cm = np.zeros((6, 6))
        cm[:4, :4] = pair
        cm[4:, 4:] = assist * np.eye(2)
        with pytest.raises(PhysicalityError):
            gle_numeric(cm)


def test_gle_numeric_searches_huge_variances_as_it_searches_their_scale():
    # A cluster scaled by 2^120 is bona fide and separable. The line search
    # scales each block by a power of two before it forms its quartic, whose
    # coefficients grow as |W|^10, so it finds the same candidate angles bit
    # for bit, with no overflow warning.
    n, scale = 5, 2.0**120
    cm = network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, n))
    R = np.eye(2 * n)
    for m in range(2, n):
        R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(0.37 * m)
    cm = R @ cm @ R.T
    blocks = cm[np.ix_(range(6), range(6))][None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gle_numeric(scale * cm) == 0.0
        np.testing.assert_array_equal(analysis._stationary_angles(scale * blocks), analysis._stationary_angles(blocks))


@pytest.mark.parametrize("mu", [1e12, 3e12, 1e15])
def test_gle_numeric_reads_a_measured_mode_far_quieter_than_the_pair(mu):
    # Users of variance mu beside a measured mode of variance 2, coupled to
    # each user's X by 0.5: bona fide and separable. Scaled as one block by
    # its largest entry, the measured variance fell below the degenerate-
    # readout floor from about mu = 3e12 on; the mode's rows and columns get
    # their own power of two, so its scale does not reach the candidates.
    V = np.diag([mu] * 4 + [2.0, 2.0])
    V[0, 4] = V[4, 0] = V[2, 4] = V[4, 2] = 0.5
    lift = np.diag([1.0] * 4 + [2.0**-3] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gle_numeric(V) == 0.0
        np.testing.assert_array_equal(
            analysis._stationary_angles((lift @ V @ lift)[None]), analysis._stationary_angles(V[None])
        )


@pytest.mark.parametrize("phi", [0.0, 0.37, 1.2, 2.9])
def test_exact_line_search_follows_a_rotated_measured_mode(phi):
    # At N = 3 one line search is the whole GLE. Turning the measured mode by
    # phi moves its best reading from pi/2 to pi/2 - phi (mod pi), off the
    # seed grid, and leaves the value: the search finds it to rounding of
    # the formula, and the angle too, a simple root of the line's quartic.
    for pt in (NetworkPoint(5.0, 0.9, 1.1, 3), NetworkPoint(3.0, 0.8, 1.2, 3)):
        R = np.eye(6)
        R[4:, 4:] = rotation(phi)
        top, val = analysis._line_search((R @ network_cluster_cm(pt) @ R.T)[None])
        assert val[0] == pytest.approx(gle_formula(pt), abs=1e-13)
        offset = (top[0] - (0.5 * np.pi - phi)) % np.pi
        assert min(offset, np.pi - offset) < 1e-12, (top, phi)


def _random_block(rng, n_modes=3):
    """A bona-fide covariance S diag(nu) S^T on n_modes modes, thermal nu in [1, 1.5]."""
    S = _random_symplectic(rng, n_modes)
    return GaussianState(S @ np.diag(np.repeat(rng.uniform(1.0, 1.5, n_modes), 2)) @ S.T).cov


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), data=st.data())
def test_every_line_gets_its_stand_alone_candidates_next_to_a_vacuum_line(seed, k, data):
    # A vacuum line reads the vacuum pair at every angle, so its quartic has
    # a fourfold root and no angle term (B = C = 0). Sitting in a stack
    # of k random bona-fide lines, at any position, it changes no line's
    # candidates: each line gets the angles it gets on its own, bit for bit,
    # with no warning.
    rng = np.random.default_rng(seed)
    lines = [_random_block(rng) for _ in range(k)]
    lines.insert(data.draw(st.integers(0, k)), vacuum(3).cov)
    W = np.array(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        candidates = analysis._stationary_angles(W)
        alone = [analysis._stationary_angles(W[a : a + 1])[0] for a in range(k + 1)]
    assert candidates.shape == (k + 1, 4)
    np.testing.assert_array_equal(candidates, np.array(alone))


def test_gle_numeric_reads_the_pair_alone_beside_an_uncorrelated_vacuum_mode():
    # N = 3 with the measured mode in the vacuum and uncorrelated with the
    # pair: every reading leaves the pair as it is, so the GLE is the pair's
    # own log-negativity, with no warning
    pair = network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, 2))
    cm = tensor(GaussianState(pair), vacuum(1)).cov
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = gle_numeric(cm)
    assert value > 0.5
    assert value == pytest.approx(pairwise_logneg_numeric(pair), abs=1e-15)


def test_gle_numeric_holds_the_formula_at_mu_1e6():
    # the conditioned pair cancels entries of order mu; gle_numeric's
    # docstring records the drift, 6.6e-12 here and 9.7e-6 at mu = 1e10
    pt = NetworkPoint(1e6, 0.9, 1.1, 4)
    assert gle_numeric(network_cluster_cm(pt)) == pytest.approx(gle_formula(pt), abs=1e-11)


# the shape of the stack of pairs each scored read leaves at N = 4: the
# seeds' last read turns a (64, 6, 6) stack into pairs, and a sweep scores
# the 4 candidate angles of both coordinates as one (2, 4) stack
_SCANNED_PAIRS = {
    "seeds": (64, 4, 4),
    "candidates": (2, 4, 4, 4),
}


@pytest.mark.parametrize("route", sorted(_SCANNED_PAIRS))
def test_gle_numeric_refuses_one_unphysical_scanned_angle(monkeypatch, route):
    # a stacked scan is checked as a whole: one angle whose pair violates the
    # uncertainty principle (positive definite, nu = 0.5) must raise
    real = analysis._read_last

    def one_bad_angle(v, cos, sin):
        pairs = real(v, cos, sin)
        if pairs.shape == _SCANNED_PAIRS[route]:
            pairs = pairs.copy()
            pairs.reshape(-1, 4, 4)[5] = 0.5 * np.eye(4)
        return pairs

    monkeypatch.setattr(analysis, "_read_last", one_bad_angle)
    with pytest.raises(PhysicalityError, match="conditioned pair"):
        gle_numeric(network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, 4)))


@pytest.mark.parametrize(
    "n, rotated",
    [(n, rotated) for rotated in (False, True) for n in range(3, 9)],
    ids=[f"{prefix}{n}" for prefix in ("", "rotated-") for n in range(3, 9)],
)
def test_gle_numeric_scores_the_seeds_and_each_sweep_in_one_kernel_call(monkeypatch, n, rotated):
    # the seeds and each sweep's (N - 2, 4) candidate angles are one stacked
    # call each, and no angle is scored on its own; the seeds are best on an
    # unrotated cluster, so its one sweep moves nothing and the ascent makes
    # 2 calls, while rotating the measured modes by fixed off-grid angles
    # makes it move. With k = N - 2 measured modes, the seeds take k reads
    # and a sweep k + 1: k - 1 to build its blocks, one for the line
    # search's three fixed angles and one for its candidates. The seed grid
    # is a constant and the gathers are direct fancy indices, so neither
    # np.linspace nor np.ix_ runs.
    calls = {"scalar": 0, "stacked": 0, "sweeps": 0, "reads": 0, "linspace": 0, "ix_": 0}
    kernel, line_search, read_last = analysis._two_mode_spectra, analysis._line_search, analysis._read_last

    def counted(cov):
        calls["stacked" if np.ndim(cov) > 2 else "scalar"] += 1
        return kernel(cov)

    def sweep(*args):
        calls["sweeps"] += 1
        return line_search(*args)

    def read(*args):
        calls["reads"] += 1
        return read_last(*args)

    def count_numpy(name):
        real = getattr(np, name)

        def counted_numpy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted_numpy)

    cm = network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, n))
    if rotated:
        R = np.eye(2 * n)
        for m in range(2, n):
            R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(0.37 * m)
        cm = R @ cm @ R.T
    monkeypatch.setattr(analysis, "_two_mode_spectra", counted)
    monkeypatch.setattr(analysis, "_line_search", sweep)
    monkeypatch.setattr(analysis, "_read_last", read)
    count_numpy("linspace")
    count_numpy("ix_")
    gle_numeric(cm)
    sweeps, k = calls["sweeps"], n - 2
    assert sweeps > 1 if rotated else sweeps == 1
    assert calls == {
        "scalar": 0,
        "stacked": 1 + sweeps,
        "sweeps": sweeps,
        "reads": k + (k + 1) * sweeps,
        "linspace": 0,
        "ix_": 0,
    }


@pytest.mark.parametrize(
    "oracle, groups, counts",
    [
        (
            block_logneg_numeric,
            ([0, 1, 2], [3, 4, 5]),
            {"_require_symmetric": 1, "cholesky": 1, "_two_mode_spectra": 0, "ix_": 0},
        ),
        (
            lambda cm, *_: pairwise_logneg_numeric(cm),
            ([0], [1]),
            {"_require_symmetric": 1, "cholesky": 0, "_two_mode_spectra": 1, "ix_": 0},
        ),
    ],
    ids=["block-3|3", "pairwise"],
)
def test_pair_and_block_oracles_read_their_marginal_once(monkeypatch, oracle, groups, counts):
    # log_negativity reads nu_min and nu~ of the marginal from one spectrum
    # call: one Cholesky of V for a block (F L F factors F V F), one kernel
    # call for a pair; the one symmetry check is the input's, since reduce
    # does not check a validated state's marginal again, and reduce gathers
    # the marginal by one direct fancy index, with no np.ix_
    cm = network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, 6))
    calls = dict.fromkeys(counts, 0)

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(gaussian, "_require_symmetric")
    count(np.linalg, "cholesky")
    count(gaussian, "_two_mode_spectra")
    count(np, "ix_")
    value = oracle(cm, *groups)
    assert calls == counts
    assert value == pytest.approx(max(0.0, unclamped_logneg(cm, *groups)), rel=1e-12, abs=1e-12)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8), rotated=st.booleans())
def test_gle_numeric_equals_the_sequential_ascent(seed, n, rotated):
    # Searching a sweep's coordinates as one stack must not change the ascent:
    # every sweep moves the coordinate that the one-coordinate-at-a-time
    # sweep of gle_sequential moves, to the same angle, bit for bit. Rotating
    # the measured modes moves an angle in nearly every sweep; without
    # rotations the seed is already best and nothing moves. Both sides stop
    # after 3 sweeps, so every sweep checked still reads new angles.
    rng = np.random.default_rng(seed)
    pt = NetworkPoint(rng.uniform(1.0, 30.0), rng.uniform(0.5, 1.0), rng.uniform(1.0, 1.5), n)
    cm = network_cluster_cm(pt)
    if rotated:
        R = np.eye(2 * n)
        for m in range(2, n):
            R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(rng.uniform(0.0, np.pi))
        cm = R @ cm @ R.T
    i, j = (int(m) for m in rng.choice(n, 2, replace=False))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_GLE_MAX_SWEEPS", 3)
        assert gle_numeric(pair_first(cm, i, j)) == gle_sequential(cm, i, j, 3)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_exact_line_search_scores_at_least_the_grid_search(seed, k):
    # On random bona-fide (pair, mode) blocks S diag(nu) S^T, the best of the
    # exact candidates is at least the grid twin's best (a 64-angle scan and
    # two 97-point levels) to rounding: every stationary angle of a line is
    # a candidate, so its maximum is among them.
    rng = np.random.default_rng(seed)
    W = np.array([_random_block(rng) for _ in range(k)])
    _, exact = analysis._line_search(W)
    _, grid = grid_line_search(W)
    assert exact.shape == grid.shape == (k,)
    assert (exact >= grid - 1e-13).all(), exact - grid


def test_gle_coordinate_index_is_built_once_per_k_and_read_only():
    # coordinate 1 of k = 3 orders the measured modes (1, 0, 2) after the
    # pair and reads 2 then 0; the cached index cannot be written through
    rows, cols, reads = analysis._coordinate_index(3)
    assert analysis._coordinate_index(3)[0] is rows
    assert rows.shape == (3, 10, 1) and cols.shape == (3, 1, 10)
    assert rows[1, :, 0].tolist() == cols[1, 0].tolist() == [0, 1, 2, 3, 6, 7, 4, 5, 8, 9]
    assert reads.tolist() == [[2, 1], [2, 0], [1, 0]]
    assert analysis._coordinate_index(1)[2].shape == (1, 0)
    for arr in (rows, cols, reads):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


# The closed-form clusters are best read in P (angle pi/2), and rotating a
# measured mode by phi moves its best angle to pi/2 - phi. The first set puts
# those optima at +-0.01 and +-0.03, across the 0/pi wrap of the period.
_OFF_GRID_ROTATIONS = {
    "optima near the wrap": tuple(np.pi / 2 - t for t in (0.01, -0.03, -0.01, 0.03)),
    "spread": (0.37, -1.1, 2.9, 0.03),
}


@pytest.mark.parametrize("rotations", sorted(_OFF_GRID_ROTATIONS))
@pytest.mark.parametrize("n", range(3, 7))
def test_gle_numeric_is_invariant_under_rotations_of_the_measured_modes(n, rotations):
    # the rotated optima lie off the 64-angle seed grid, so only the line
    # searches reach them; the value must not move
    for pt in (NetworkPoint(5.0, 0.9, 1.1, n), NetworkPoint(3.0, 0.8, 1.2, n)):
        cm = network_cluster_cm(pt)
        R = np.eye(2 * n)
        for m, phi in zip(range(2, n), _OFF_GRID_ROTATIONS[rotations]):
            R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(phi)
        value = gle_numeric(cm)
        assert value > 0.1
        assert gle_numeric(R @ cm @ R.T) == pytest.approx(value, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8))
@example(seed=24, n=6)  # GLE 2.0e-4
@example(seed=16, n=6)  # GLE 0.217
def test_gle_numeric_matches_formula_with_rotated_measured_modes(seed, n):
    # Independent local rotations of the measured modes leave the GLE as it
    # is but move its optimum off every common angle. At these
    # transmissivities many clusters are barely entangled or separable, and
    # for many rotations every common angle leaves the pair separable, so a
    # search on the clamped log-negativity would see only zeros there.
    rng = np.random.default_rng(seed)
    pt = NetworkPoint(rng.uniform(2.0, 30.0), rng.uniform(0.6, 0.85), rng.uniform(1.0, 1.5), n)
    R = np.eye(2 * n)
    for m in range(2, n):
        R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(rng.uniform(0.0, np.pi))
    cm = network_cluster_cm(pt)
    assert gle_numeric(R @ cm @ R.T) == pytest.approx(gle_formula(pt), abs=1e-11)


def _read_all(v, thetas):
    """Read every measured mode of the (pair, measured)-ordered ``v``, the last first.

    The last axis of ``thetas`` holds one angle per measured mode.
    """
    for b in reversed(range(np.shape(thetas)[-1])):
        v = _read_last(v, np.cos(thetas[..., b]), np.sin(thetas[..., b]))
    return v


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(3, 6), common=st.booleans())
def test_gle_pair_covariance_matches_rotated_homodynes(seed, n_modes, common):
    """The optimizer's pair covariance at one angle set, against a second route.

    The second route rotates every measured mode by rotation(theta)
    and reads their X quadratures one at a time with the rank-one
    read_quadrature, both of gaussian_reference. The optimizer's routes: the
    chain of _read_last steps (the seeds, with one common angle), and a
    coordinate's block, which orders the modes as (pair, a, rest), reads the
    rest from the last and then mode a.
    """
    rng = np.random.default_rng(seed)
    nf = sample_normal_form(rng, 10.0)
    cov = cluster_closed_form(nf.x, nf.y, nf.z, n_modes).assemble()
    # a passive mixer and local rotations leave no symmetry to hide behind
    Q, _ = np.linalg.qr(rng.normal(size=(n_modes, n_modes)))
    S = embed_orthogonal(Q, range(n_modes), n_modes)
    for m in range(n_modes):
        S[2 * m : 2 * m + 2] = rotation(rng.uniform(0.0, np.pi)) @ S[2 * m : 2 * m + 2]
    cov = S @ cov @ S.T
    i, j = (int(m) for m in rng.choice(n_modes, 2, replace=False))
    others = [m for m in range(n_modes) if m not in (i, j)]
    k = len(others)
    thetas = rng.uniform(0.0, np.pi, k)
    if common:
        thetas[:] = thetas[0]
    a = int(rng.integers(k))

    R = np.eye(2 * n_modes)
    for m, theta in zip(others, thetas):
        R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(theta)
    pair = GaussianState(R @ cov @ R.T)
    for m in reversed(others):  # highest first: the modes still to read keep their index
        pair = read_quadrature(pair, m, "X")
    kept = [0, 1, 2, 3] if i < j else [2, 3, 0, 1]  # read_quadrature keeps mode order
    reference = pair.cov[np.ix_(kept, kept)]

    order = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1] + [2 * m + q for m in others for q in (0, 1)]
    v = cov[np.ix_(order, order)]
    tol = 1e-12 * np.linalg.norm(cov, 2)
    np.testing.assert_allclose(_read_all(v, thetas), reference, rtol=0.0, atol=tol)
    if common:  # the seeds: one stack of angles, read at every mode
        seeded = _read_all(v, np.repeat(thetas[None, :], 3, axis=0))
        np.testing.assert_allclose(seeded, np.broadcast_to(reference, (3, 4, 4)), rtol=0.0, atol=tol)
    rest = [b for b in range(k) if b != a]
    q = [0, 1, 2, 3] + [4 + 2 * b + s for b in [a] + rest for s in (0, 1)]
    W = _read_all(v[np.ix_(q, q)], thetas[[a] + rest])
    np.testing.assert_allclose(W, reference, rtol=0.0, atol=tol)

    # a (P, k) stack of independent angle vectors, read as one stack
    stack = rng.uniform(0.0, np.pi, (5, k))
    per_vector = np.array([_read_all(v, row) for row in stack])
    np.testing.assert_allclose(_read_all(v, stack), per_vector, rtol=0.0, atol=1e-14 * np.linalg.norm(cov, 2))


def test_read_last_refuses_a_degenerate_readout():
    # mode 1 has zero X variance: reading X is degenerate at theta = 0, and
    # one such angle in a stack refuses the whole stack
    v = np.diag([2.0, 1.0, 0.0, 4.0])
    assert _read_last(v, np.cos(np.pi / 2), np.sin(np.pi / 2)) == pytest.approx(np.diag([2.0, 1.0]))
    for theta in (0.0, np.array([np.pi / 2, 0.0, 1.0])):
        with pytest.raises(ValueError, match="degenerate"):
            _read_last(v, np.cos(theta), np.sin(theta))


def test_gle_numeric_dominates_pairwise():
    rng = np.random.default_rng(37)
    for _ in range(5):
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(6)))),
            rng.uniform(0.3, 1.0),
            rng.uniform(1.0, 3.0),
            int(rng.integers(3, 7)),
        )
        cm = network_cluster_cm(pt)
        assert gle_numeric(cm) >= pairwise_logneg_numeric(cm) - 1e-12


def test_block_numeric_matches_formula():
    rng = np.random.default_rng(41)
    for _ in range(50):
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(10)))),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
            6,
        )
        cm = network_cluster_cm(pt)
        for n_prime in (1, 2, 3):
            groups = (range(n_prime), range(n_prime, 2 * n_prime))
            raw = analysis._block(pt, n_prime)
            assert unclamped_logneg(cm, *groups) == pytest.approx(raw, abs=1e-9)
            assert block_logneg_numeric(cm, *groups) == pytest.approx(
                block_logneg_formula(pt, n_prime), abs=1e-9
            )


def test_block_numeric_rejects_overlap():
    cm = network_cluster_cm(NetworkPoint(2.0, 1.0, 1.0, 4))
    with pytest.raises(ValueError):
        block_logneg_numeric(cm, [0, 1], [1, 2])


def test_block_numeric_refuses_two_empty_groups_by_name():
    cm = network_cluster_cm(NetworkPoint(2.0, 1.0, 1.0, 4))
    with pytest.raises(ValueError, match="mode list is empty"):
        block_logneg_numeric(cm, [], [])


def _unclamped_formulas(mu, eta, omega, n):
    pt = NetworkPoint(mu, eta, omega, n)
    return [analysis._e2(pt), analysis._gle(pt), analysis._block(pt, 1), analysis._block(pt, n // 2)]


_ETA = st.floats(0.0, 1.0, exclude_min=True)
_OMEGA = st.floats(1.0, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(1.0, 1e3),
    n=st.integers(2, 11),
    etas=st.tuples(_ETA, _ETA).map(sorted),
    omegas=st.tuples(_OMEGA, _OMEGA).map(sorted),
)
@example(mu=1.0000000000000002, n=2, etas=[0.28643905225609295] * 2, omegas=[1.0, 15.0])
def test_formulas_grow_with_eta_and_fall_with_omega(mu, n, etas, omegas):
    # less loss or less channel noise never lowers E2, the GLE, the pairwise
    # or the even-split block value, unclamped, to within 1e-12 relative;
    # the example is one ulp of mu above 1, where ln(num / den) read E2 a
    # rounding unit higher at omega 15 than at omega 1
    def ordered(low, high):
        for a, b in zip(_unclamped_formulas(mu, *low, n), _unclamped_formulas(mu, *high, n)):
            assert a <= b + 1e-12 * max(abs(a), abs(b))

    (eta_lo, eta_hi), (omega_lo, omega_hi) = etas, omegas
    for omega in omegas:
        ordered((eta_lo, omega), (eta_hi, omega))
    for eta in etas:
        ordered((eta, omega_hi), (eta, omega_lo))


def test_pairwise_strictly_decreasing_in_n():
    for mu, eta, omega in [(2.0, 0.8, 1.3), (5.0, 0.95, 1.0), (10.0, 0.5, 2.0)]:
        raw = [analysis._block(NetworkPoint(mu, eta, omega, n), 1) for n in range(2, 17)]
        assert np.all(np.diff(raw) < 0.0)


def test_ordering_chain_block_gle_pairwise():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 9)) * 2  # even so the full house exists
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(10)))),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
            n,
        )
        e2 = e2_formula(pt)
        assert full_house_logneg(pt) == e2
        assert e2 >= gle_formula(pt) - 1e-9
        assert gle_formula(pt) >= pairwise_logneg_formula(pt) - 1e-9


def test_swap_logneg_two_on_tmsv():
    for mu in (1.5, 3.0, 20.0):
        nf = tmsv(mu)
        assert swap_logneg_two(nf.x, nf.y, nf.z) == pytest.approx(np.log(mu), abs=1e-12)
    with pytest.raises(ValueError):
        swap_logneg_two(1.5, 1.5, 1.6)


def test_tmsv_bound_is_attained_by_tmsv():
    for mu in (1.0, 2.0, 8.0):
        nf = tmsv(mu)
        bound = tmsv_swap_bound(nf.log_negativity())
        assert bound == pytest.approx(np.log(mu), abs=1e-12)
