import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import gaussian
from cvswap.gaussian import (
    BONA_FIDE_TOL,
    GaussianState,
    log_negativity,
    reduce,
)
from cvswap.relay import (
    bell_detect,
    build_relay,
    cluster_closed_form,
    diff_x_variance,
    relay_orthogonal,
    sum_p_variance,
)
from cvswap.sources import TwoModeNormalForm, sample_normal_form, tmsv
from gaussian_reference import (
    apply_symplectic,
    embed_orthogonal,
    is_symplectic,
    read_quadrature,
    relay_from_cascade,
    rotation,
    tensor,
    vacuum,
    williamson_eigvals,
)


@pytest.mark.parametrize("n", [*range(2, 11), 16, 24, 32])
def test_relay_rows_are_orthonormal(n):
    U = relay_orthogonal(n)
    np.testing.assert_allclose(U @ U.T, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(U[0], np.full(n, 1.0 / np.sqrt(n)))


def test_relay_two_users_explicit():
    U = relay_orthogonal(2)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(U, [[s, s], [-s, s]], atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_cascade_reproduces_orthogonal_rows(n):
    # the beam-splitter chain is an independent construction of the same relay
    np.testing.assert_allclose(relay_from_cascade(n), relay_orthogonal(n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_build_relay_returns_one_readout_matrix_per_n(n):
    assert build_relay(n) is build_relay(n)


# each entry point maps a size or cap to a result, and names the values it accepts
_SIZE_ENTRY_POINTS = {
    "relay_orthogonal": (relay_orthogonal, {4.0}),
    "build_relay": (build_relay, {4.0}),
    "sample_normal_form": (
        lambda x_max: sample_normal_form(np.random.default_rng(0), x_max).x,
        {4.0, 2.5},
    ),
}


@pytest.mark.parametrize("value", [4.0, 2.5, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", sorted(_SIZE_ENTRY_POINTS))
def test_sizes_and_caps_are_read_or_refused_with_value_error(entry, value):
    # an integral float reads as the integer; a fractional, NaN or infinite
    # size and a non-finite sampler cap raise ValueError, not TypeError or
    # OverflowError
    call, accepted = _SIZE_ENTRY_POINTS[entry]
    if value not in accepted:
        with pytest.raises(ValueError):
            call(value)
    elif value == 2.5:
        assert 1.0 <= call(value) <= value
    else:
        np.testing.assert_array_equal(call(value), call(4))
        if entry == "build_relay":  # one cached matrix per N, however N is written
            assert call(value) is call(4)


def _relay_measurements(n):
    """The relay's homodynes in readout order: P of port 0, then X of ports 1..N-1."""
    return [(0, "P")] + [(port, "X") for port in range(1, n)]


def _relay_readout(n):
    """W^T (2N x N): column j holds row p_j of the relay matrix on quadrature q_j of each A_k."""
    U = relay_orthogonal(n)
    wt = np.zeros((2 * n, n))
    for j, (port, quad) in enumerate(_relay_measurements(n)):
        for k in range(n):
            wt[2 * k + (quad == "P"), j] = U[port, k]
    return wt


@pytest.mark.parametrize("n", range(2, 33))
def test_relay_readout_is_read_only_and_matches_the_relay_measurement(n):
    wt = build_relay(n)
    assert wt.shape == (2 * n, n)
    np.testing.assert_array_equal(wt, _relay_readout(n))
    with pytest.raises(ValueError):
        wt[0, 0] = 1.0


def test_embed_orthogonal_is_symplectic():
    U = relay_orthogonal(3)
    S = embed_orthogonal(U, [0, 2, 4], 6)
    assert S.shape == (12, 12)
    assert is_symplectic(S)
    # untouched mode keeps its identity block
    np.testing.assert_array_equal(S[2:4, 2:4], np.eye(2))
    with pytest.raises(ValueError):
        embed_orthogonal(U, [0, 2, 2], 6)


# The homodyne pins below check read_quadrature, the test reference that
# bell_detect is compared against on the full register.


def test_homodyne_condition_on_tmsv():
    mu = 4.0
    st = tmsv(mu).state()
    out = read_quadrature(st, 0, "X")
    # measuring X_A projects the partner to variance 1/mu in X, mu in P
    np.testing.assert_allclose(out.cov, np.diag([1.0 / mu, mu]), atol=1e-12)
    out_p = read_quadrature(st, 0, "P")
    np.testing.assert_allclose(out_p.cov, np.diag([mu, 1.0 / mu]), atol=1e-12)


@pytest.mark.parametrize("x_var", [1e-13, 0.0])
def test_bell_detect_rejects_degenerate_readout(x_var):
    # the X readout of port 1, (X_A2 - X_A1) / sqrt(2), has variance x_var:
    # a pivot below the floor, or a readout covariance that is not positive
    # definite
    squeezed_flat = GaussianState(np.diag([x_var, 1e13, 1.0, 1.0]), check=False)
    with pytest.raises(ValueError, match="degenerate"):
        bell_detect([squeezed_flat, squeezed_flat], build_relay(2))


@pytest.mark.parametrize("n_copies", [1, 2, 4])
def test_bell_detect_refuses_a_copy_count_other_than_the_relay_size(n_copies):
    # N is read from the readout matrix's shape
    with pytest.raises(ValueError, match="number of copies does not match the relay plan"):
        bell_detect([tmsv(2.0).state()] * n_copies, build_relay(3))


def test_homodyne_order_independence():
    nf = TwoModeNormalForm(2.5, 2.0, 1.5)
    st = tensor(nf.state(), vacuum(1))
    # measure modes (0, 2) in both orders; positions shift after each drop
    ab = read_quadrature(read_quadrature(st, 0, "X"), 1, "P")
    ba = read_quadrature(read_quadrature(st, 2, "P"), 0, "X")
    np.testing.assert_allclose(ab.cov, ba.cov, atol=1e-12)


def test_bell_detect_matches_closed_form_spot():
    nf = tmsv(5.0 / 3.0)
    out, variances = bell_detect([nf.state(), nf.state()], build_relay(2))
    expected = cluster_closed_form(nf.x, nf.y, nf.z, 2).assemble()
    np.testing.assert_allclose(out.cov, expected, atol=1e-12)
    assert variances.shape == (2,)


def test_cluster_closed_form_known_blocks():
    blocks = cluster_closed_form(5.0 / 3.0, 5.0 / 3.0, 4.0 / 3.0, 2)
    np.testing.assert_allclose(blocks.v_prime, np.diag([17.0 / 15.0, 17.0 / 15.0]), atol=1e-15)
    np.testing.assert_allclose(blocks.c_prime, (8.0 / 15.0) * np.diag([1.0, -1.0]), atol=1e-15)


def test_cluster_closed_form_first_row_frozen():
    # independently derived: V'_11 = y - 3 z^2 / (4x), C'_11 = z^2 / (4x)
    cm = cluster_closed_form(2.2, 1.7, 1.1, 4).assemble()
    np.testing.assert_allclose(
        cm[0], [1.2875, 0.0, 0.1375, 0.0, 0.1375, 0.0, 0.1375, 0.0], atol=1e-12
    )
    assert cm.shape == (8, 8)


def test_cluster_variances_ghz_values():
    mu = 2.0
    nf = tmsv(mu)
    cm = cluster_closed_form(nf.x, nf.y, nf.z, 3).assemble()
    assert sum_p_variance(cm) == pytest.approx(3.0 / mu, abs=1e-12)
    assert diff_x_variance(cm, 0, 1) == pytest.approx(2.0 / mu, abs=1e-12)
    assert diff_x_variance(cm, 0, 2) == pytest.approx(2.0 / mu, abs=1e-12)


def test_diff_x_variance_same_mode_and_range():
    cm = cluster_closed_form(3.1, 2.4, 2.2, 3).assemble()
    for i in range(3):
        assert diff_x_variance(cm, i, i) == 0.0
    assert diff_x_variance(cm, 0, 1) == pytest.approx(cm[0, 0] + cm[2, 2] - 2.0 * cm[0, 2], abs=1e-15)
    for i, j in ((0, -1), (-1, 0), (0, 3), (3, 3)):
        with pytest.raises(IndexError, match="out of range"):
            diff_x_variance(cm, i, j)


def test_pipeline_agrees_with_closed_form_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        nf = sample_normal_form(rng, 10.0)
        for n in (2, 3, 5):
            closed = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
            piped, _ = bell_detect([nf.state() for _ in range(n)], build_relay(n))
            assert np.max(np.abs(closed - piped.cov)) < 1e-10


def test_swap_never_creates_entanglement():
    rng = np.random.default_rng(23)
    for _ in range(25):
        nf = sample_normal_form(rng, 10.0)
        out, _ = bell_detect([nf.state(), nf.state()], build_relay(2))
        assert log_negativity(out, [0]) <= nf.log_negativity() + 1e-12


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    x_max=st.floats(2.0, 50.0),
)
def test_bell_detect_of_identical_copies_is_bona_fide_and_gains_no_pair_entanglement(seed, n, x_max):
    # N copies of one sampled state: the output is a state, and no pair of
    # it is more entangled than one copy
    rng = np.random.default_rng(seed)
    nf = sample_normal_form(rng, x_max)
    e_in = nf.log_negativity()
    out, _ = bell_detect([nf.state()] * n, build_relay(n))
    assert williamson_eigvals(out.cov)[0] >= 1.0 - BONA_FIDE_TOL
    for i, j in itertools.combinations(range(n), 2):
        assert log_negativity(reduce(out, [i, j]), [0]) <= e_in + 1e-12


def test_bell_detect_input_that_broke_intermediate_validation():
    # This input once raised "Eigenvalues did not converge" while an
    # intermediate 4/5-mode register was being validated; the joint
    # conditioning never forms those states.
    nf = TwoModeNormalForm(1.7452248606983198, 3.689976418177474, 1.8060857378774924)
    out, _ = bell_detect([nf.state() for _ in range(3)], build_relay(3))
    closed = cluster_closed_form(nf.x, nf.y, nf.z, 3).assemble()
    assert np.max(np.abs(out.cov - closed)) < 1e-9


def _random_state(rng, n_modes):
    """Bona fide state: normal-form pairs, a random passive mixer, local rotations."""
    pairs = [sample_normal_form(rng, 10.0).state() for _ in range((n_modes + 1) // 2)]
    state = pairs[0]
    for pair in pairs[1:]:
        state = tensor(state, pair)
    state = reduce(state, range(n_modes))
    U, _ = np.linalg.qr(rng.normal(size=(n_modes, n_modes)))
    S = embed_orthogonal(U, range(n_modes), n_modes)
    for m in range(n_modes):
        R = np.eye(2 * n_modes)
        R[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = rotation(rng.uniform(0, np.pi))
        S = R @ S
    return GaussianState(S @ state.cov @ S.T)


def _register(copies):
    """The copies' 2N-mode register (A1, B1, ..., AN, BN) after the relay's mode mixer."""
    state = copies[0]
    for c in copies[1:]:
        state = tensor(state, c)
    N = len(copies)
    return apply_symplectic(state, embed_orthogonal(relay_orthogonal(N), range(0, 2 * N, 2), 2 * N))


def _condition_in_order(state, order):
    """Chain single homodynes over (mode, quadrature) in the given order."""
    removed = []
    for mode, quad in order:
        position = mode - sum(r < mode for r in removed)
        state = read_quadrature(state, position, quad)
        removed.append(mode)
    return state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_joint_conditioning_equals_sequential_in_every_order(seed, n):
    # bell_detect's one joint Schur step against single readouts of the
    # register, chained in every order of the relay's homodynes
    rng = np.random.default_rng(seed)
    copies = [_random_state(rng, 2) for _ in range(n)]
    joint, _ = bell_detect(copies, build_relay(n))
    register = _register(copies)
    tol = 1e-12 * max(1.0, max(np.linalg.norm(c.cov, 2) for c in copies))
    readouts = [(2 * port, quad) for port, quad in _relay_measurements(n)]
    for order in itertools.permutations(readouts):
        chained = _condition_in_order(register, order)
        np.testing.assert_allclose(joint.cov, chained.cov, rtol=0, atol=tol)


def _bell_detect_sequential(copies):
    """Reference on the full register: one homodyne at a time, in readout order.

    Returns the conditional state and each readout's variance just before
    it is read.
    """
    state = _register(copies)
    variances, removed = [], []
    for port, quad in _relay_measurements(len(copies)):
        mode = 2 * port - sum(r < 2 * port for r in removed)
        q = 2 * mode + (quad == "P")
        variances.append(state.cov[q, q])
        state = read_quadrature(state, mode, quad)
        removed.append(2 * port)
    return state, np.array(variances)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_cluster_blocks_assemble_matches_block_loop(n):
    blocks = cluster_closed_form(3.1, 2.4, 2.2, n)
    expected = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blocks.v_prime if i == j else blocks.c_prime
    np.testing.assert_array_equal(blocks.assemble(), expected)


def test_bell_detect_validates_copies_without_williamson(monkeypatch):
    # two-mode copies are checked by the closed-form kernel and the 3-mode
    # output by one complex Cholesky of V + i(1 - tol) Omega: no Williamson
    # eigensolve at all
    calls = []
    original = gaussian._williamson

    def counted(cov, part=None):
        calls.append(cov.shape[0] // 2)
        return original(cov, part)

    certificates = []
    cholesky = np.linalg.cholesky

    def counted_cholesky(a):
        certificates.append(np.iscomplexobj(a) and a.shape[-1] // 2)
        return cholesky(a)

    monkeypatch.setattr(gaussian, "_williamson", counted)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    nf = TwoModeNormalForm(3.0, 2.0, 1.9)
    out, _ = bell_detect([nf.state() for _ in range(3)], build_relay(3))
    assert out.n_modes == 3
    assert calls == []
    assert certificates.count(3) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_block_bell_detect_matches_register_reference(seed, n):
    # random rotated copies; the readout variances are each readout's
    # variance on the register just before it is read
    rng = np.random.default_rng(seed)
    copies = [_random_state(rng, 2) for _ in range(n)]
    joint, variances = bell_detect(copies, build_relay(n))
    seq, seq_variances = _bell_detect_sequential(copies)
    tol = 1e-12 * max(1.0, max(np.linalg.norm(c.cov, 2) for c in copies))
    np.testing.assert_allclose(variances, seq_variances, rtol=0, atol=tol)
    np.testing.assert_allclose(joint.cov, seq.cov, rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_readout_variances_multiply_to_det_m(seed, n):
    # the squared pivots of M = L L^T, in port order: their product is det M,
    # with M = W blockdiag(a_k) W^T built here from the relay's readout matrix
    rng = np.random.default_rng(seed)
    copies = [_random_state(rng, 2) for _ in range(n)]
    _, variances = bell_detect(copies, build_relay(n))
    wt = build_relay(n)
    a = np.zeros((2 * n, 2 * n))
    for k, c in enumerate(copies):
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = c.cov[:2, :2]
    det_m = np.linalg.det(wt.T @ a @ wt)
    assert variances.shape == (n,) and (variances > 0).all()
    assert np.prod(variances) == pytest.approx(det_m, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_readout_variances_of_identical_normal_form_copies_are_x(n):
    # a_k = x I and W W^T = I, so M = x I and every pivot is sqrt(x)
    nf = sample_normal_form(np.random.default_rng(n), 10.0)
    _, variances = bell_detect([nf.state()] * n, build_relay(n))
    np.testing.assert_allclose(variances, nf.x, rtol=4 * np.finfo(float).eps, atol=0)
