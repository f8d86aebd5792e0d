import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap.gaussian import (
    GaussianState,
    PhysicalityError,
    _two_mode_spectra,
    apply_symplectic,
    displace,
    is_symplectic,
    log_negativity,
    min_symplectic_eigenvalue,
    partial_transpose,
    reduce,
    rotation,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    two_mode_standard_form,
    vacuum,
)
from cvswap.sources import TwoModeNormalForm, tmsv


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
    np.testing.assert_array_equal(st.mean, np.zeros(6))
    np.testing.assert_allclose(st.symplectic_eigenvalues(), np.ones(3))


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
    with pytest.raises(ValueError):
        # not positive definite
        symplectic_eigenvalues(np.diag([1.0, -1.0]))


def test_bona_fide_tolerance_band():
    # clearly unphysical: vacuum squeezed "for free"
    with pytest.raises(PhysicalityError):
        GaussianState(0.5 * np.eye(2))
    with pytest.raises(PhysicalityError):
        GaussianState((1.0 - 1e-8) * np.eye(2))
    # within the numerical tolerance band: accepted
    st = GaussianState((1.0 - 5e-10) * np.eye(2))
    assert st.is_bona_fide()
    assert min_symplectic_eigenvalue(st.cov) < 1.0


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


def test_apply_symplectic_transforms_cov_and_mean():
    st = displace(vacuum(1), 0, 1.5, -0.5)
    S = rotation(np.pi / 2)
    out = apply_symplectic(st, S)
    np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(out.mean, S @ st.mean)
    with pytest.raises(ValueError):
        apply_symplectic(st, np.diag([2.0, 1.0]))


def test_displace_changes_mean_only():
    st = tmsv(3.0).state()
    out = displace(st, 1, 0.7, -2.0)
    np.testing.assert_array_equal(out.cov, st.cov)
    np.testing.assert_allclose(out.mean, [0, 0, 0.7, -2.0])


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


def test_json_round_trip():
    st = displace(tmsv(2.5).state(), 0, 0.25, -1.0)
    again = GaussianState.from_json(st.to_json())
    np.testing.assert_array_equal(again.cov, st.cov)
    np.testing.assert_array_equal(again.mean, st.mean)
    payload = json.loads(st.to_json())
    assert payload["n_modes"] == 2


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

        a, b, c_plus, c_minus, S = two_mode_standard_form(scrambled)
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


def test_two_mode_standard_form_preserves_entanglement():
    rng = np.random.default_rng(11)
    nf = TwoModeNormalForm(3.0, 2.0, 1.9)
    S_loc = np.zeros((4, 4))
    S_loc[:2, :2] = _random_local_symplectic(rng)
    S_loc[2:, 2:] = _random_local_symplectic(rng)
    scrambled = GaussianState(S_loc @ nf.cov() @ S_loc.T)
    e_before = log_negativity(scrambled, [0])
    _, _, _, _, S = two_mode_standard_form(scrambled.cov)
    e_after = log_negativity(apply_symplectic(scrambled, S), [0])
    assert e_after == pytest.approx(e_before, abs=1e-10)
    assert e_after == pytest.approx(nf.log_negativity(), abs=1e-10)


# --- closed-form two-mode spectra ------------------------------------------


def _beam_splitter(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_mode_spectra_match_williamson(seed):
    # thermal pair -> local squeezers -> beam splitter -> local squeezers
    rng = np.random.default_rng(seed)
    nu_1, nu_2 = rng.uniform(1.0, 4.0, 2)
    locals_ = []
    for _ in range(2):
        S_loc = np.zeros((4, 4))
        S_loc[:2, :2] = _random_local_symplectic(rng)
        S_loc[2:, 2:] = _random_local_symplectic(rng)
        locals_.append(S_loc)
    S = locals_[0] @ _beam_splitter(rng.uniform(0, 2 * np.pi)) @ locals_[1]
    V = S @ np.diag([nu_1, nu_1, nu_2, nu_2]) @ S.T
    V = 0.5 * (V + V.T)
    nus, pt_nus = _two_mode_spectra(V)
    tol = 1e-12 * np.linalg.norm(V, 2)
    np.testing.assert_allclose(nus, symplectic_eigenvalues(V), rtol=0, atol=tol)
    np.testing.assert_allclose(
        pt_nus, symplectic_eigenvalues(partial_transpose(V, [0])), rtol=0, atol=tol
    )
    np.testing.assert_allclose(sorted(nus), sorted([nu_1, nu_2]), rtol=0, atol=tol)


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


def test_two_mode_spectra_of_pure_products_are_exactly_one():
    # degenerate spectra: the invariant quadratic formula would lose sqrt(eps) here
    squeezed = np.diag([4.0, 0.25])
    for V in (np.eye(4), np.block([[squeezed, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])):
        nus, pt_nus = _two_mode_spectra(V)
        np.testing.assert_allclose(nus, [1.0, 1.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(pt_nus, [1.0, 1.0], rtol=0, atol=1e-15)


def test_two_mode_spectra_reject_non_positive_definite():
    for V in (np.diag([1.0, 1.0, 1.0, -1.0]), np.zeros((4, 4)), tmsv(2.0).cov() - np.eye(4)):
        with pytest.raises(ValueError, match="positive-definite"):
            _two_mode_spectra(V)
