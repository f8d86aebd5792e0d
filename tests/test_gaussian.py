import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cvswap import gaussian
from cvswap.gaussian import (
    BONA_FIDE_TOL,
    GaussianState,
    PhysicalityError,
    _two_mode_spectra,
    _williamson,
    log_negativity,
    reduce,
    symplectic_eigenvalues,
    two_mode_standard_form,
)
from cvswap.analysis import (
    NetworkPoint,
    block_logneg_numeric,
    gle_numeric,
    network_cluster_cm,
)
from cvswap.relay import cluster_closed_form, diff_x_variance
from cvswap.sources import TwoModeNormalForm, tmsv
from gaussian_reference import (
    apply_symplectic,
    is_symplectic,
    omega_product_eigvals,
    pair_first,
    partial_transpose,
    reduce_ix,
    rotation,
    standard_form_per_block,
    symplectic_form,
    tensor,
    vacuum,
    williamson_eigvals,
)


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    assert omega.shape == (4, 4)
    np.testing.assert_array_equal(omega, -omega.T)
    np.testing.assert_array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
    np.testing.assert_array_equal(omega @ omega, -np.eye(4))


def test_rotation_is_symplectic():
    for theta in (0.0, 0.3, np.pi / 2, 2.0):
        assert is_symplectic(rotation(theta))
    assert not is_symplectic(np.diag([2.0, 1.0]))


def test_vacuum_is_identity_cm():
    st = vacuum(3)
    np.testing.assert_array_equal(st.cov, np.eye(6))
    np.testing.assert_allclose(symplectic_eigenvalues(st.cov), np.ones(3))


def test_symplectic_eigenvalues_thermal_and_tmsv():
    # thermal state of variance v has nu = v
    v = 3.7
    np.testing.assert_allclose(symplectic_eigenvalues(v * np.eye(2)), [v])
    # a TMSV is pure: both eigenvalues exactly 1
    nus = symplectic_eigenvalues(tmsv(4.0).cov())
    np.testing.assert_allclose(nus, [1.0, 1.0], atol=1e-12)


def test_symplectic_eigenvalues_reject_bad_input():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.ones((3, 3)))
    singular = np.eye(6)
    singular[:4, :4] = tmsv(2.0).cov() - np.eye(4)
    for V in (np.diag([1.0, -1.0]), np.zeros((4, 4)), singular):
        with pytest.raises(PhysicalityError, match="positive-definite") as info:
            symplectic_eigenvalues(V)
        # the Cholesky's LinAlgError (a ValueError too) must not leak out
        assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("build", [GaussianState, symplectic_eigenvalues])
def test_empty_covariance_is_refused_by_name(build):
    with pytest.raises(ValueError, match=r"covariance matrix is empty \(0 x 0\)"):
        build(np.zeros((0, 0)))


def test_bona_fide_tolerance_band():
    # clearly unphysical: vacuum squeezed "for free"
    with pytest.raises(PhysicalityError):
        GaussianState(0.5 * np.eye(2))
    with pytest.raises(PhysicalityError):
        GaussianState((1.0 - 1e-8) * np.eye(2))
    # within the numerical tolerance band: accepted
    st = GaussianState((1.0 - 5e-10) * np.eye(2))
    assert symplectic_eigenvalues(st.cov)[0] < 1.0


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_non_finite_entries_raise_value_error(n_modes, bad, where):
    cov = np.eye(2 * n_modes)
    i, j = (0, 0) if where == "diagonal" else (0, 2 * n_modes - 1)
    cov[i, j] = cov[j, i] = bad
    for call in (GaussianState, symplectic_eigenvalues, lambda V: GaussianState(V, check=False)):
        with pytest.raises(ValueError, match="non-finite") as info:
            call(cov)
        # LinAlgError subclasses ValueError; the refusal must come before any solver
        assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.5, 1.0, 1e3])
def test_symmetry_tolerance_is_1e_12_of_the_largest_entry(n_modes, scale):
    # the band is 1e-12 * max(1, max |V_ij|): accepted at half of it, refused at twice it
    cov = scale * np.eye(2 * n_modes) + 0.1 * scale
    tol = 1e-12 * max(1.0, scale * 1.1)
    for factor, accepted in ((0.5, True), (2.0, False)):
        bumped = cov.copy()
        bumped[0, -1] += factor * tol
        if accepted:
            np.testing.assert_array_equal(GaussianState(bumped, check=False).cov, 0.5 * (bumped + bumped.T))
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                GaussianState(bumped, check=False)


def test_partial_transpose_flips_momenta():
    cov = tmsv(2.0).cov()
    pt = partial_transpose(cov, [0])
    flip = np.diag([1.0, -1.0, 1.0, 1.0])
    np.testing.assert_array_equal(pt, flip @ cov @ flip)
    # transposing both modes is the full transpose, same spectrum
    both = partial_transpose(cov, [0, 1])
    np.testing.assert_allclose(
        np.sort(symplectic_eigenvalues(both)), np.sort(symplectic_eigenvalues(cov))
    )


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_partial_transpose_is_an_exact_involution(seed, n):
    # random symmetric V whose entries span twelve decades, random partition
    # (empty and full included): flipping the same momenta twice returns V
    # exactly, since every product in F V F is by +-1 or 0
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * n, 2 * n)) * 10.0 ** rng.uniform(-6.0, 6.0, (2 * n, 2 * n))
    v = a + a.T
    part = [int(m) for m in np.flatnonzero(rng.random(n) < 0.5)]
    np.testing.assert_array_equal(partial_transpose(partial_transpose(v, part), part), v)


def test_log_negativity_of_tmsv():
    for mu in (1.0, 2.0, 10.0):
        st = tmsv(mu).state()
        expected = np.log(mu + np.sqrt(mu**2 - 1.0))
        assert log_negativity(st, [0]) == pytest.approx(expected, abs=1e-12)
        # independent of which side is transposed
        assert log_negativity(st, [1]) == pytest.approx(expected, abs=1e-12)


def test_log_negativity_partition_validation():
    st = vacuum(2)
    with pytest.raises(ValueError):
        log_negativity(st, [])
    with pytest.raises(ValueError):
        log_negativity(st, [0, 1])
    with pytest.raises(IndexError):
        log_negativity(st, [5])
    with pytest.raises(IndexError):
        log_negativity(st, [-1])


_CLUSTER = network_cluster_cm(NetworkPoint(5.0, 0.9, 1.1, 3))
# each entry point reads one mode index m of a three-mode cluster (two modes for "log_negativity-2")
_INDEX_READERS = {
    "reduce": lambda m: reduce(GaussianState(_CLUSTER), [0, m]).cov,
    "log_negativity-2": lambda m: log_negativity(tmsv(3.0).state(), [m]),
    "log_negativity-3": lambda m: log_negativity(GaussianState(_CLUSTER), [m]),
    "diff_x_variance": lambda m: diff_x_variance(_CLUSTER, 0, m),
    "block_logneg_numeric": lambda m: block_logneg_numeric(_CLUSTER, [0], [m]),
    # gle_numeric reads modes 0 and 1: another pair is moved to the front by reduce
    "gle_numeric": lambda m: gle_numeric(pair_first(_CLUSTER, 0, m)),
}


@pytest.mark.parametrize("bad", [0.5, 1.9, float("nan")])
@pytest.mark.parametrize("read", list(_INDEX_READERS.values()), ids=list(_INDEX_READERS))
def test_mode_indices_are_read_one_way(read, bad):
    # a non-integral or NaN index is refused, never truncated to a mode;
    # an integral float reads as its int
    with pytest.raises(ValueError, match="mode index must be an integer"):
        read(bad)
    np.testing.assert_array_equal(read(1.0), read(1))


def test_apply_symplectic_transforms_cov():
    st = GaussianState(np.eye(2))
    S = rotation(np.pi / 2)
    out = apply_symplectic(st, S)
    np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        apply_symplectic(st, np.diag([2.0, 1.0]))


def test_tensor_and_reduce_round_trip():
    a = tmsv(2.0).state()
    b = vacuum(1)
    joint = tensor(a, b)
    assert joint.n_modes == 3
    np.testing.assert_array_equal(reduce(joint, [0, 1]).cov, a.cov)
    np.testing.assert_array_equal(reduce(joint, [2]).cov, b.cov)
    # reduce can also reorder
    swapped = reduce(joint, [1, 0])
    np.testing.assert_array_equal(swapped.cov[:2, :2], a.cov[2:, 2:])


def test_reduce_refuses_an_empty_mode_list_by_name():
    with pytest.raises(ValueError, match="mode list is empty"):
        reduce(tmsv(2.0).state(), [])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduce_to_every_mode_in_order_returns_the_state(n):
    rng = np.random.default_rng(n)
    s = GaussianState(np.diag(rng.uniform(1.0, 3.0, 2 * n)))
    assert reduce(s, range(n)) is s
    assert reduce(s, np.arange(n)) is s
    with pytest.raises(ValueError):
        reduce(s, [0] * (n + 1))
    if n == 1:
        return
    # a reordered or a partial list still copies
    order = list(range(n))[::-1]
    idx = np.array([[2 * m, 2 * m + 1] for m in order]).ravel()
    swapped = reduce(s, order)
    assert swapped is not s
    np.testing.assert_array_equal(swapped.cov, s.cov[np.ix_(idx, idx)])
    part = reduce(s, range(n - 1))
    assert part is not s
    np.testing.assert_array_equal(part.cov, s.cov[: 2 * n - 2, : 2 * n - 2])


def _random_passive(rng, n):
    """Interleaved-order symplectic of a random n x n unitary U = X + iY."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    O = np.zeros((2 * n, 2 * n))
    O[0::2, 0::2], O[0::2, 1::2] = U.real, -U.imag
    O[1::2, 0::2], O[1::2, 1::2] = U.imag, U.real
    return O


def _random_williamson_form(rng, n):
    """V = S (+)nu_k I_2 S^T with S = passive . squeezers . passive (Bloch-Messiah)."""
    nus = rng.uniform(1.0, 5.0, n)
    squeeze = np.exp(np.repeat(rng.uniform(-1.0, 1.0, n), 2) * np.tile([1.0, -1.0], n))
    S = _random_passive(rng, n) @ np.diag(squeeze) @ _random_passive(rng, n)
    assert is_symplectic(S)
    V = S @ np.diag(np.repeat(nus, 2)) @ S.T
    return 0.5 * (V + V.T), nus


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_symplectic_eigenvalues_of_random_williamson_forms(seed, n):
    V, nus = _random_williamson_form(np.random.default_rng(seed), n)
    tol = 1e-12 * np.linalg.norm(V, 2)
    spectrum = symplectic_eigenvalues(V)
    np.testing.assert_allclose(spectrum, np.sort(nus), rtol=0, atol=tol)
    np.testing.assert_allclose(spectrum, williamson_eigvals(V), rtol=0, atol=tol)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 32))
def test_symplectic_eigenvalues_match_the_omega_product_bit_for_bit(seed, n):
    # L^T Omega is formed by swapping columns, not by a product with Omega;
    # the spectrum must not move by a single bit
    V, _ = _random_williamson_form(np.random.default_rng(seed), n)
    np.testing.assert_array_equal(symplectic_eigenvalues(V), omega_product_eigvals(V))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_state_checks_symmetry_once(monkeypatch, n):
    calls = []
    original = gaussian._require_symmetric

    def counted(cov):
        calls.append(1)
        return original(cov)

    monkeypatch.setattr(gaussian, "_require_symmetric", counted)
    nf = tmsv(5.0)
    cov = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble() if n > 1 else 2.0 * np.eye(2)
    GaussianState(cov)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 5, 8])
def test_log_negativity_reads_a_state_without_a_symmetry_check(monkeypatch, n):
    # a state's covariance is exactly symmetric, so its partial transpose's
    # spectrum is the one symplectic_eigenvalues reads, bit for bit
    nf = tmsv(5.0)
    state = GaussianState(cluster_closed_form(nf.x, nf.y, nf.z, n).assemble())
    part = list(range(n // 2))
    nus = symplectic_eigenvalues(partial_transpose(state.cov, part))
    expected = float(np.sum(np.clip(-np.log(nus), 0.0, None)))
    calls = []
    original = gaussian._require_symmetric

    def counted(cov):
        calls.append(1)
        return original(cov)

    monkeypatch.setattr(gaussian, "_require_symmetric", counted)
    assert log_negativity(state, part) == expected
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), bona_fide=st.booleans())
def test_williamson_stack_reads_both_spectra_bit_for_bit(seed, n, bona_fide):
    # one Cholesky V = L L^T and [L, F L F] as one (2, d, d) stack give the
    # spectra of V and of F V F exactly as symplectic_eigenvalues reads each
    # matrix on its own, for a random proper partition
    rng = np.random.default_rng(seed)
    V, nus = _random_williamson_form(rng, n)
    if not bona_fide:
        V = V * (rng.uniform(0.2, 0.95) / nus.min())
    part = sorted(int(m) for m in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    spectra = _williamson(V, part)
    assert spectra.shape == (2, n)
    assert (spectra[0, 0] >= 1.0 - BONA_FIDE_TOL) == bona_fide
    np.testing.assert_array_equal(spectra[0], symplectic_eigenvalues(V))
    np.testing.assert_array_equal(spectra[1], symplectic_eigenvalues(partial_transpose(V, part)))


_NOT_BONA_FIDE = {
    "below-vacuum": lambda n: np.diag([0.1, 0.1] + [1.0] * (2 * n - 2)),
    "not-positive-definite": lambda n: np.diag([1.0] * (2 * n - 1) + [-1.0]),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", list(_NOT_BONA_FIDE.values()), ids=list(_NOT_BONA_FIDE))
def test_a_state_that_is_not_bona_fide_is_refused_with_or_without_check(n, build):
    # check=False skips the constructor's check, not log_negativity's: its
    # nu_min comes from the same spectra as nu~. A covariance that is not
    # positive definite is not bona fide either
    cov = build(n)
    with pytest.raises(PhysicalityError):
        GaussianState(cov)
    with pytest.raises(PhysicalityError):
        log_negativity(GaussianState(cov, check=False), [0])


def test_state_arrays_are_read_only_copies():
    cov = tmsv(2.0).cov()
    st = GaussianState(cov)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 0.0
    with pytest.raises(ValueError):
        st.cov += 1.0
    with pytest.raises(ValueError):
        vacuum(2).cov.fill(1.0)
    # the caller's array stays writeable and apart from the state
    cov[0, 0] = 9.0
    np.testing.assert_array_equal(st.cov, tmsv(2.0).cov())


def test_a_state_holds_no_mean_and_takes_check_by_keyword_only():
    # a stale positional mean raises instead of being read as ``check``
    assert GaussianState.__slots__ == ("n_modes", "cov")
    with pytest.raises(TypeError):
        GaussianState(np.eye(2), [0.0, 0.0])
    with pytest.raises(TypeError):
        GaussianState(0.5 * np.eye(2), False)


def _random_local_symplectic(rng):
    # rotation . squeeze . rotation on a single mode
    r = rng.uniform(0.2, 1.5)
    sq = np.diag([np.exp(r), np.exp(-r)])
    return rotation(rng.uniform(0, 2 * np.pi)) @ sq @ rotation(rng.uniform(0, 2 * np.pi))


def test_two_mode_standard_form_recovers_normal_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = np.exp(rng.uniform(0, np.log(8)))
        y = np.exp(rng.uniform(0, np.log(8)))
        zm = np.sqrt(max(x * y - 1.0 - abs(x - y), 0.0))
        if zm == 0.0:
            continue
        z = rng.uniform(-zm, zm)
        nf = TwoModeNormalForm(x, y, z)
        S_loc = np.zeros((4, 4))
        S_loc[:2, :2] = _random_local_symplectic(rng)
        S_loc[2:, 2:] = _random_local_symplectic(rng)
        scrambled = S_loc @ nf.cov() @ S_loc.T

        a, b, c_plus, c_minus = two_mode_standard_form(scrambled)
        S = standard_form_per_block(scrambled)[4]  # the package forms no S
        assert is_symplectic(S, tol=1e-8)
        out = S @ scrambled @ S.T
        np.testing.assert_allclose(
            out,
            [
                [a, 0, c_plus, 0],
                [0, a, 0, c_minus],
                [c_plus, 0, b, 0],
                [0, c_minus, 0, b],
            ],
            atol=1e-9,
        )
        assert c_plus >= abs(c_minus) - 1e-12
        # local operations preserve the normal form up to the z sign
        assert a == pytest.approx(x, abs=1e-9)
        assert b == pytest.approx(y, abs=1e-9)
        assert c_plus == pytest.approx(abs(z), abs=1e-9)
        assert c_minus == pytest.approx(-abs(z), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
)
def test_two_mode_standard_form_matches_the_svd_twin(seed, scale, a, b):
    # the four invariants, not the twin's S, which is not unique when
    # c_plus = |c_minus|, as on every normal form; test_optomech holds the
    # relay copy to the twin's S V S^T. D V D scales the first mode's block
    # by 2^a, the second's by 2^b and the cross block by 2^((a + b) / 2)
    V, _, _ = _random_two_mode(np.random.default_rng(seed))
    D = np.diag(np.sqrt([2.0**a, 2.0**a, 2.0**b, 2.0**b]))
    for cov in (V, scale * V, D @ V @ D):
        tol = 1e-12 * np.linalg.norm(cov, 2)
        got = two_mode_standard_form(cov)
        want = standard_form_per_block(cov)
        assert len(got) == 4
        np.testing.assert_allclose(got, want[:4], rtol=0, atol=tol)


def test_two_mode_standard_form_makes_no_linalg_call(monkeypatch):
    # the form is closed: Python floats, with no numpy.linalg call
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("cholesky", "inv", "det", "svd", "solve", "eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    V, _, _ = _random_two_mode(np.random.default_rng(5))
    a, b, c_plus, c_minus = two_mode_standard_form(V)
    assert a > 0.0 and b > 0.0 and c_plus >= abs(c_minus)
    with pytest.raises(PhysicalityError):
        two_mode_standard_form(-np.eye(4))


@pytest.mark.parametrize("s", [1e155, 1e200, 1e300])
def test_two_mode_standard_form_of_a_scaled_tmsv_does_not_overflow(s):
    # a b and c_plus^2 pass the largest double from s of about 1e154 on;
    # GaussianState accepts these matrices, and so must the standard form
    cov = s * tmsv(3.0).cov()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GaussianState(cov)
        form = two_mode_standard_form(cov)
    want = [3.0 * s, 3.0 * s, math.sqrt(8.0) * s, -math.sqrt(8.0) * s]
    np.testing.assert_allclose(form, want, rtol=1e-15, atol=0)


# cross blocks with det C > 0, < 0, = 0 and C = 0, beside local blocks 3 I and 2 I
_CROSS_BLOCKS = [np.diag([1.2, 0.8]), np.diag([1.2, -0.8]), np.diag([1.2, 0.0]), np.zeros((2, 2))]


@pytest.mark.parametrize("C", _CROSS_BLOCKS, ids=["det>0", "det<0", "det=0", "C=0"])
def test_two_mode_standard_form_is_symplectic_diagonal_and_signed(C):
    rng = np.random.default_rng(17)
    V0 = np.block([[3.0 * np.eye(2), C], [C.T, 2.0 * np.eye(2)]])
    det_c = np.linalg.det(C)  # local symplectics keep det C, up to rounding
    for k in range(40):
        S_loc = np.eye(4) if k == 0 else _local_symplectic(rng)
        cov = S_loc @ V0 @ S_loc.T
        cov = 0.5 * (cov + cov.T)
        tol = 1e-12 * np.linalg.norm(cov, 2)
        a, b, c_plus, c_minus = two_mode_standard_form(cov)
        S = standard_form_per_block(cov)[4]  # the package forms no S
        assert is_symplectic(S, tol=1e-10)
        np.testing.assert_allclose(
            S @ cov @ S.T,
            [[a, 0, c_plus, 0], [0, a, 0, c_minus], [c_plus, 0, b, 0], [0, c_minus, 0, b]],
            rtol=0,
            atol=tol,
        )
        assert c_plus >= abs(c_minus)
        if det_c != 0.0:
            assert np.sign(c_minus) == np.sign(det_c)
        elif k == 0 or not C.any():  # unrotated, or C = 0 at every k: exactly zero
            assert c_minus == 0.0
        else:
            assert abs(c_minus) <= tol
        if not C.any():
            assert c_plus == 0.0


@pytest.mark.parametrize(
    "cov",
    [
        np.block([[np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]),
        -np.eye(4),
        np.diag([1.0, 1.0, 0.0, 1.0]),
    ],
    ids=["indefinite", "minus-identity", "singular"],
)
def test_two_mode_standard_form_refuses_a_local_block_that_is_not_positive_definite(cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhysicalityError, match="positive-definite") as info:
            two_mode_standard_form(cov)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("c", [2.0, 1.0], ids=["indefinite", "singular"])
def test_two_mode_standard_form_refuses_a_matrix_that_only_its_blocks_leave_positive(c):
    # [[I, c I], [c I, I]]: both local blocks are I, positive definite, but
    # the whole is indefinite (c = 2) or singular (c = 1), so it is no
    # covariance; both routes refuse it, with no numpy warning
    cov = np.block([[np.eye(2), c * np.eye(2)], [c * np.eye(2), np.eye(2)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhysicalityError, match="positive-definite"):
            two_mode_standard_form(cov)
        with pytest.raises(PhysicalityError):
            GaussianState(cov)


def test_two_mode_standard_form_preserves_entanglement():
    rng = np.random.default_rng(11)
    nf = TwoModeNormalForm(3.0, 2.0, 1.9)
    S_loc = np.zeros((4, 4))
    S_loc[:2, :2] = _random_local_symplectic(rng)
    S_loc[2:, 2:] = _random_local_symplectic(rng)
    scrambled = GaussianState(S_loc @ nf.cov() @ S_loc.T)
    e_before = log_negativity(scrambled, [0])
    a, b, c_plus, c_minus = two_mode_standard_form(scrambled.cov)
    form = GaussianState([[a, 0, c_plus, 0], [0, a, 0, c_minus], [c_plus, 0, b, 0], [0, c_minus, 0, b]])
    e_after = log_negativity(form, [0])
    assert e_after == pytest.approx(e_before, abs=1e-10)
    assert e_after == pytest.approx(nf.log_negativity(), abs=1e-10)


# --- closed-form two-mode spectra ------------------------------------------


def _beam_splitter(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])


def _random_two_mode(rng):
    """(V, nu_1, nu_2): thermal pair -> local squeezers -> beam splitter -> local squeezers."""
    nu_1, nu_2 = rng.uniform(1.0, 4.0, 2)
    locals_ = []
    for _ in range(2):
        S_loc = np.zeros((4, 4))
        S_loc[:2, :2] = _random_local_symplectic(rng)
        S_loc[2:, 2:] = _random_local_symplectic(rng)
        locals_.append(S_loc)
    S = locals_[0] @ _beam_splitter(rng.uniform(0, 2 * np.pi)) @ locals_[1]
    V = S @ np.diag([nu_1, nu_1, nu_2, nu_2]) @ S.T
    return 0.5 * (V + V.T), nu_1, nu_2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_mode_spectra_match_williamson(seed):
    V, nu_1, nu_2 = _random_two_mode(np.random.default_rng(seed))
    nus, pt_nus = _two_mode_spectra(V)
    tol = 1e-12 * np.linalg.norm(V, 2)
    np.testing.assert_allclose(nus, symplectic_eigenvalues(V), rtol=0, atol=tol)
    np.testing.assert_allclose(
        pt_nus, symplectic_eigenvalues(partial_transpose(V, [0])), rtol=0, atol=tol
    )
    np.testing.assert_allclose(sorted(nus), sorted([nu_1, nu_2]), rtol=0, atol=tol)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_mode_log_negativity_matches_williamson_route(seed):
    V, _, _ = _random_two_mode(np.random.default_rng(seed))
    state = GaussianState(V)
    for part in ([0], [1]):
        pt_nus = symplectic_eigenvalues(partial_transpose(V, part))
        williamson = float(np.sum(np.clip(-np.log(pt_nus), 0.0, None)))
        # an absolute error delta in nu~_- moves -ln nu~_- by delta / nu~_-
        tol = 1e-12 * np.linalg.norm(V, 2) / min(1.0, pt_nus[0])
        assert log_negativity(state, part) == pytest.approx(williamson, rel=0, abs=tol)


@pytest.mark.parametrize("m", [8, 14, 21])
def test_two_mode_spectra_of_strongly_squeezed_tmsv(m):
    # mu = cosh(2r) with e^{2r} = 2^m (mu ~ 1e2, 1e4, 1e6): mu and sinh(2r) are
    # exact doubles, so the stored matrix is an exactly pure TMSV, whose
    # partial transpose has nu~_- = 1 / (mu + sqrt(mu^2 - 1)) = 2^-m
    t = 2.0**m
    mu, z = 0.5 * (t + 1.0 / t), 0.5 * (t - 1.0 / t)
    nf = TwoModeNormalForm(mu, mu, z)
    (_, _), (pt_minus, pt_plus) = _two_mode_spectra(nf.cov())
    exact = 1.0 / (mu + np.sqrt(mu * mu - 1.0))
    assert pt_minus == pytest.approx(exact, rel=1e-12, abs=0)
    assert pt_plus == pytest.approx(1.0 / exact, rel=1e-12, abs=0)
    assert nf.log_negativity() == pytest.approx(-np.log(exact), rel=1e-12, abs=0)


def _assert_ascending(spectra):
    for low, high in spectra:
        assert np.all(np.asarray(low) <= np.asarray(high)), spectra


def test_two_mode_spectra_of_pure_tmsvs_come_in_ascending_order():
    # nu_- = sqrt(det V) / nu_+ carries det V's rounding; for these pure
    # states nu_- = nu_+ = 1, and the quotient read above nu_+ at 193 of them
    covs = np.array([tmsv(float(mu)).cov() for mu in np.geomspace(1.0001, 1e6, 400)])
    for V in covs:
        _assert_ascending(_two_mode_spectra(V))
    _assert_ascending(_two_mode_spectra(covs))


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(1.0, 1e6),
    power=st.integers(0, 1000),
    diagonal=st.floats(1.0, 1.7e308),
    seed=st.integers(0, 2**32 - 1),
)
@example(mu=1.0001, power=0, diagonal=1.7e308, seed=0)
def test_two_mode_spectra_come_in_ascending_order(mu, power, diagonal, seed):
    # pure TMSVs, as stored and scaled by 2^power (past 2^250 the kernel
    # rescales), diagonals up to the largest double, and random states, one
    # by one and as one stack
    rng = np.random.default_rng(seed)
    pure = tmsv(mu).cov()
    covs = [
        pure,
        np.ldexp(pure, power),
        np.diag([diagonal] * 4),
        np.diag(diagonal * rng.uniform(0.5, 1.0, 4)),
        *_random_stack(rng, (4,)),
    ]
    for V in covs:
        _assert_ascending(_two_mode_spectra(V))
    _assert_ascending(_two_mode_spectra(np.array(covs)))


def test_two_mode_spectra_of_pure_products_are_exactly_one():
    # degenerate spectra: the invariant quadratic formula would lose sqrt(eps) here
    squeezed = np.diag([4.0, 0.25])
    for V in (np.eye(4), np.block([[squeezed, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])):
        nus, pt_nus = _two_mode_spectra(V)
        np.testing.assert_allclose(nus, [1.0, 1.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(pt_nus, [1.0, 1.0], rtol=0, atol=1e-15)


def test_two_mode_spectra_reject_non_positive_definite():
    for V in (np.diag([1.0, 1.0, 1.0, -1.0]), np.zeros((4, 4)), tmsv(2.0).cov() - np.eye(4)):
        with pytest.raises(PhysicalityError, match="positive-definite"):
            _two_mode_spectra(V)


def _random_stack(rng, shape):
    return np.array([_random_two_mode(rng)[0] for _ in range(int(np.prod(shape)))]).reshape(
        *shape, 4, 4
    )


def test_two_mode_spectra_of_a_stack_match_per_matrix_calls():
    rng = np.random.default_rng(11)
    for shape in ((40,), (3, 5)):
        stack = _random_stack(rng, shape)
        (nu_m, nu_p), (pt_m, pt_p) = _two_mode_spectra(stack)
        for k in np.ndindex(*shape):
            (s_m, s_p), (s_pt_m, s_pt_p) = _two_mode_spectra(stack[k])
            np.testing.assert_allclose(
                [nu_m[k], nu_p[k], pt_m[k], pt_p[k]], [s_m, s_p, s_pt_m, s_pt_p], rtol=1e-14, atol=0
            )


def test_two_mode_spectra_read_nested_lists_as_arrays():
    # both forms read the upper triangle only, so noise below the diagonal
    # changes no bit of either result
    rng = np.random.default_rng(12)
    for _ in range(50):
        V, _, _ = _random_two_mode(rng)
        skewed = V + np.tril(rng.normal(size=(4, 4)), -1)
        results = [_two_mode_spectra(V), _two_mode_spectra(skewed), _two_mode_spectra(skewed.tolist())]
        bits = [[nu.hex() for pair in spectra for nu in pair] for spectra in results]
        assert bits[1] == bits[0] and bits[2] == bits[0]


def test_two_mode_spectra_refuse_a_stack_with_one_non_positive_definite_matrix():
    stack = _random_stack(np.random.default_rng(13), (8,))
    stack[5] = tmsv(2.0).cov() - np.eye(4)
    with pytest.raises(PhysicalityError, match="positive-definite"):
        _two_mode_spectra(stack)


def _local_symplectic(rng):
    S = np.zeros((4, 4))
    S[:2, :2] = _random_local_symplectic(rng)
    S[2:, 2:] = _random_local_symplectic(rng)
    return S


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stacked=st.booleans())
def test_two_mode_spectra_invariant_under_local_symplectics(seed, stacked):
    # S_A (+) S_B leaves the spectrum of V and, since the partial transpose
    # maps it to another local symplectic, the spectrum of V^T_A unchanged
    rng = np.random.default_rng(seed)
    shape = (6,) if stacked else ()
    V = _random_stack(rng, shape)
    S = np.array([_local_symplectic(rng) for _ in range(int(np.prod(shape)))]).reshape(V.shape)
    moved = S @ V @ np.swapaxes(S, -1, -2)
    moved = 0.5 * (moved + np.swapaxes(moved, -1, -2))
    tol = 1e-12 * np.max(np.linalg.norm(moved, 2, axis=(-2, -1)))
    np.testing.assert_allclose(
        np.array(_two_mode_spectra(moved)), np.array(_two_mode_spectra(V)), rtol=0, atol=tol
    )


def _near_pure_two_mode_state(rng):
    # thermal pair -> local squeezers -> beam splitter -> local squeezers
    nu_1, nu_2 = rng.uniform(1.0, 1.1, 2)
    locals_ = []
    for _ in range(2):
        S_loc = np.zeros((4, 4))
        S_loc[:2, :2] = _random_local_symplectic(rng)
        S_loc[2:, 2:] = _random_local_symplectic(rng)
        locals_.append(S_loc)
    S = locals_[0] @ _beam_splitter(rng.uniform(0, 2 * np.pi)) @ locals_[1]
    V = S @ np.diag([nu_1, nu_1, nu_2, nu_2]) @ S.T
    return 0.5 * (V + V.T)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.9, 1.1))
def test_two_mode_verdict_matches_williamson(seed, s):
    # scaling by s pushes some states below bona fide; the two-mode check runs
    # through the closed-form kernel and must agree with the Williamson spectrum
    V = s * _near_pure_two_mode_state(np.random.default_rng(seed))
    nu_min = symplectic_eigenvalues(V)[0]
    edge = 1.0 - BONA_FIDE_TOL
    assume(abs(nu_min - edge) > 1e-10 * np.linalg.norm(V, 2))
    try:
        GaussianState(V)
        accepted = True
    except PhysicalityError:
        accepted = False
    assert accepted == (nu_min >= edge)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 3, 4, 5, 6, 7, 8]),
    s=st.one_of(st.floats(0.9, 1.1), st.floats(1.0 - 1e-8, 1.0 + 1e-8)),
)
def test_certified_verdict_matches_williamson(seed, n, s):
    # one-mode and N >= 3 states are accepted by a complex Cholesky of
    # V + i(1 - tol) Omega, and a failed factorization leaves the verdict to
    # the Williamson spectrum; scaling nu_min to s puts states on each side
    # of the edge, some of them within 1e-8 of it
    V, nus = _random_williamson_form(np.random.default_rng(seed), n)
    V = V * (s / nus.min())
    nu_min = symplectic_eigenvalues(V)[0]
    edge = 1.0 - BONA_FIDE_TOL
    assume(abs(nu_min - edge) > 1e-10 * np.linalg.norm(V, 2))
    try:
        GaussianState(V)
        accepted = True
    except PhysicalityError:
        accepted = False
    assert accepted == (nu_min >= edge)


def _count_williamson(monkeypatch):
    calls = []
    original = gaussian._williamson

    def counted(cov, part=None):
        calls.append(cov.shape[0] // 2)
        return original(cov, part)

    monkeypatch.setattr(gaussian, "_williamson", counted)
    return calls


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("failing", [False, True], ids=["certificate", "failing-certificate"])
def test_spectrum_decides_where_the_certificate_fails(monkeypatch, n, failing):
    # a certified TMSV(5) cluster makes no eigensolve; with the shift scaled
    # to i 3 Omega the certificate fails on every state with nu_min < 3, so
    # the cluster (nu_min 1) reaches the spectrum and is accepted by it. A
    # state that is not bona fide fails the certificate either way and is
    # refused by the spectrum, with its message
    if failing:
        shift = gaussian._certificate_shift
        monkeypatch.setattr(gaussian, "_certificate_shift", lambda d: 3.0 / (1.0 - BONA_FIDE_TOL) * shift(d))
    calls = _count_williamson(monkeypatch)
    nf = tmsv(5.0)
    GaussianState(cluster_closed_form(nf.x, nf.y, nf.z, n).assemble() if n > 1 else 2.0 * np.eye(2))
    assert calls == ([n] if failing else [])
    for build, message in zip(_NOT_BONA_FIDE.values(), ["not bona fide: min symplectic eigenvalue", "positive-definite"]):
        calls.clear()
        with pytest.raises(PhysicalityError, match=message):
            GaussianState(build(n))
        assert calls == [n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_entries_above_half_the_largest_double_stay_finite(n):
    # 0.5 * (V + V^T) would overflow to inf; a state holds only finite
    # entries, so its marginals need no second check
    cov = np.diag([1.7e308] * (2 * n))
    state = GaussianState(cov, check=False)
    np.testing.assert_array_equal(state.cov, cov)
    np.testing.assert_array_equal(reduce(state, [0]).cov, cov[:2, :2])
    GaussianState(cov)


def test_two_mode_state_past_1e154_reads_as_its_six_mode_embedding():
    # det V grows as max|V|^4, so the kernel scales such a pair by a power of
    # four and its nu back: the pair is accepted, as inside six modes, and its
    # spectra and log-negativity match the Williamson route of that embedding
    a, c = 1e160, 5e159
    z = c * np.diag([1.0, -1.0])
    V = np.block([[a * np.eye(2), z], [z, a * np.eye(2)]])
    pair = GaussianState(V)
    six = tensor(pair, vacuum(4))
    assert log_negativity(pair, [0]) == 0.0
    assert log_negativity(six, [0]) == pytest.approx(0.0, abs=1e-12)  # its vacuum modes' nu~ round below 1
    (nu_minus, nu_plus), (pt_minus, pt_plus) = _two_mode_spectra(pair.cov)
    nus, pt_nus = _williamson(six.cov, [0])
    np.testing.assert_allclose([nu_minus, nu_plus], nus[-2:], rtol=1e-12)
    np.testing.assert_allclose([pt_minus, pt_plus], pt_nus[-2:], rtol=1e-12)
    # in a stack with an ordinary state and a state past half the largest
    # double, each matrix reads as on its own, with no overflow warning
    covs = np.stack([V, tmsv(3.0).cov(), np.diag([1.7e308] * 4)])
    stacked = _two_mode_spectra(covs)
    for k, cov in enumerate(covs):
        np.testing.assert_allclose(
            [nu[k] for pair_nus in stacked for nu in pair_nus],
            [nu for pair_nus in _two_mode_spectra(cov) for nu in pair_nus],
            rtol=1e-12,
        )
    assert (stacked[0][0] >= 1.0 - BONA_FIDE_TOL).all()


def test_a_partially_transposed_nu_plus_past_the_largest_double_reads_inf():
    # nu~_+ = x + |z| here: a pair whose entries are all finite can have a
    # spectrum past the largest double; the kernel reads it as inf, with no
    # OverflowError or numpy warning, and the verdict quantities stay finite
    x, z = 1.7e308, 1.6e308
    V = np.array([[x, 0.0, z, 0.0], [0.0, x, 0.0, -z], [z, 0.0, x, 0.0], [0.0, -z, 0.0, x]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (nu_minus, nu_plus), (pt_minus, pt_plus) = _two_mode_spectra(V)
        stacked = _two_mode_spectra(np.stack([V, tmsv(3.0).cov()]))
    assert pt_plus == math.inf and stacked[1][1][0] == math.inf
    assert nu_minus == pytest.approx(math.sqrt(x - z) * math.sqrt(0.5 * x + 0.5 * z) * math.sqrt(2.0), rel=1e-12)
    assert nu_plus == pytest.approx(nu_minus, rel=1e-12)
    assert pt_minus == pytest.approx(x - z, rel=1e-12)
    assert stacked[0][0][0] == nu_minus and stacked[1][0][0] == pt_minus


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reduce_returns_the_checked_marginal_bit_for_bit(seed, data):
    # reduce gathers a marginal by one direct fancy index and skips the
    # symmetry check on a state's submatrix: on random bona-fide states and
    # ordered mode lists of any length and order (the identity list returns
    # the state itself) it must give the matrix the np.ix_ twin gathers, bit
    # for bit and read-only, which the check returns unchanged, since
    # 0.5 * (a + a) == a
    n = data.draw(st.integers(1, 8))
    modes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    V, _ = _random_williamson_form(np.random.default_rng(seed), n)
    state = GaussianState(V)
    marginal = reduce(state, modes)
    want = reduce_ix(state.cov, modes)
    assert marginal.n_modes == len(modes)
    assert marginal.cov.dtype == want.dtype and marginal.cov.shape == want.shape
    assert marginal.cov.tobytes() == want.tobytes()
    np.testing.assert_array_equal(marginal.cov, GaussianState(want, check=False).cov)
    assert not marginal.cov.flags.writeable
