"""Every closed form and its independent numerical twin, each run with the other disabled.

Each row pairs a closed form (or the faster of two routes) with a twin
that derives the same quantity another way. The test runs each side while
every function of the other side raises if called, in every module that
holds it, and then holds the two results within the tolerance an existing
test already uses for that pair. So a twin that starts calling its partner
fails here, even where the values would still agree. Each row's first
comment line says what its twin checks on its own. A completeness scan
checks that every public ``*_formula``, ``*_closed_form`` and ``*_bound``
has a row.
"""

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
import scipy.linalg

import cvswap
from cvswap import analysis, gaussian, optomech, relay, sources
from cvswap.analysis import NetworkPoint
from cvswap.sources import sample_normal_form, tmsv
import gaussian_reference


@dataclass(frozen=True)
class Row:
    name: str
    closed: Callable[[], list]  # values in one fixed order
    closed_parts: tuple  # functions of the closed side: they raise while the twin runs
    twin: Callable[[], list]
    twin_parts: tuple  # and these raise while the closed side runs
    tol: object  # an absolute tolerance, a scalar or one per value


def _flat(values):
    return np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values])


# --- inputs ------------------------------------------------------------------

_RNG = np.random.default_rng(16)
_NORMAL_FORMS = [sample_normal_form(_RNG, 10.0) for _ in range(4)]
_SIZES = (2, 3, 5, 8)
# one network point at each N = 3..8, and three at N = 2
_POINTS = [
    NetworkPoint(*point, n)
    for n, point in zip(
        range(3, 9),
        [(2.0, 1.0, 1.0), (3.0, 0.75, 1.6), (5.0, 0.9, 1.1), (7.5, 0.6, 1.3), (9.0, 0.95, 2.5), (4.0, 0.8, 1.0)],
    )
]
_PAIR_POINTS = [NetworkPoint(*point, 2) for point in [(2.0, 1.0, 1.0), (5.0, 0.9, 1.1), (3.0, 0.75, 1.6)]]


def _two_mode_states():
    """Normal forms mixed on a beam splitter and turned by local rotations: bona-fide pairs."""
    rng = np.random.default_rng(7)
    covs = []
    for nf in _NORMAL_FORMS:
        theta = rng.uniform(0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        R = np.zeros((4, 4))
        R[:2, :2], R[2:, 2:] = gaussian_reference.rotation(rng.uniform(0, np.pi)), gaussian_reference.rotation(rng.uniform(0, np.pi))
        S = R @ np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
        V = S @ nf.cov() @ S.T
        covs.append(0.5 * (V + V.T))
    return covs


_PAIRS = _two_mode_states()


def _williamson_forms():
    """Williamson forms at N = 1, 3, 5 rescaled so nu_min is 0.9 or 1.1: off the bona-fide edge."""
    rng = np.random.default_rng(3)
    covs = []
    for n in (1, 3, 5):
        nus = np.repeat(rng.uniform(1.0, 3.0, n), 2)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        O = np.zeros((2 * n, 2 * n))  # a passive symplectic from the unitary Q = X + iY
        O[0::2, 0::2], O[0::2, 1::2], O[1::2, 0::2], O[1::2, 1::2] = Q.real, -Q.imag, Q.imag, Q.real
        squeeze = np.repeat(np.exp(rng.uniform(-1.0, 1.0, n)), 2) ** np.tile([1.0, -1.0], n)
        S = O @ np.diag(squeeze)
        for s in (0.9, 1.1):
            V = S @ np.diag(nus * s / nus.min()) @ S.T
            covs.append(0.5 * (V + V.T))
    return covs


_VERDICT_STATES = _williamson_forms()


def _drifts():
    """Random stable 4x4 drifts with positive diffusions, as in test_optomech."""
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(3):
        B = rng.normal(size=(4, 4))
        A = B - (np.max(np.linalg.eigvals(B).real) + rng.uniform(0.1, 3.0)) * np.eye(4)
        G = rng.normal(size=(4, 4))
        pairs.append((A, G @ G.T))
    return pairs


_DRIFTS = _drifts()


def _stability_drifts():
    """fig2c's couplings across delta in [-2, 2] omega_m (both verdicts), and _DRIFTS with their negatives."""
    drifts = [A for A, _ in _DRIFTS] + [-A for A, _ in _DRIFTS]
    for g_mhz in (4.0, 8.0, 8.5):
        base = optomech.standard_params(g_eff=2 * np.pi * g_mhz * 1e6)
        drifts += [optomech.drift_diffusion(base.with_delta(r * base.omega_m))[0] for r in np.linspace(-2.0, 2.0, 17)]
    return drifts


_STABILITY_DRIFTS = _stability_drifts()


def _lines():
    """A (6, 6, 6) stack of bona-fide (pair, mode) blocks S diag(nu) S^T, each mode rotated and squeezed."""
    rng = np.random.default_rng(9)
    blocks = []
    for _ in range(6):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        O = np.zeros((6, 6))  # a passive symplectic from the unitary Q = X + iY
        O[0::2, 0::2], O[0::2, 1::2], O[1::2, 0::2], O[1::2, 1::2] = Q.real, -Q.imag, Q.imag, Q.real
        squeeze = np.repeat(np.exp(rng.uniform(-1.0, 1.0, 3)), 2) ** np.tile([1.0, -1.0], 3)
        S = O @ np.diag(squeeze)
        V = S @ np.diag(np.repeat(rng.uniform(1.0, 1.5, 3), 2)) @ S.T
        blocks.append(0.5 * (V + V.T))
    return np.array(blocks)


_LINES = _lines()


def _lyapunov_tolerance(A, V):
    """test_optomech's _solver_tolerance: max(1e-12, eps cond(K)) ||V||."""
    K = np.kron(A, np.eye(4)) + np.kron(np.eye(4), A)
    return max(1e-12, np.finfo(float).eps * np.linalg.cond(K)) * np.linalg.norm(V, 2)


def _standard_form_values(route, V):
    """(a, b, c_plus, c_minus) and S V S^T: S itself is not unique when c_plus = |c_minus|."""
    *values, S = route(V)
    return np.concatenate([values, np.ravel(S @ V @ S.T)])


def _certified(cov):
    """The constructor's certificate alone: does V + i(1 - tol) Omega factor?"""
    try:
        np.linalg.cholesky(cov + gaussian._certificate_shift(cov.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


# --- the table ---------------------------------------------------------------

_FORMULA_PARTS = (
    analysis.e2_formula,
    analysis.pairwise_logneg_formula,
    analysis.gle_formula,
    analysis.block_logneg_formula,
    analysis.full_house_logneg,
    analysis._e2,
    analysis._gle,
    analysis._block,
)
_ORACLE_PARTS = (
    analysis.pairwise_logneg_numeric,
    analysis.block_logneg_numeric,
    analysis.gle_numeric,
    analysis._read_last,
    gaussian.log_negativity,
    gaussian._two_mode_spectra,
    gaussian._williamson,
)
_CM = analysis.network_cluster_cm  # the oracles' input: the closed-form cluster, checked by row 1

ROWS = [
    Row(
        # the twin conditions N real copies through the relay and validates the output as bona fide
        "cluster_closed_form <-> bell_detect",
        lambda: [
            relay.cluster_closed_form(nf.x, nf.y, nf.z, n).assemble() for nf in _NORMAL_FORMS for n in _SIZES
        ],
        (relay.cluster_closed_form,),
        lambda: [
            relay.bell_detect([nf.state()] * n, relay.build_relay(n))[0].cov for nf in _NORMAL_FORMS for n in _SIZES
        ],
        (relay.bell_detect,),
        1e-10,  # test_relay::test_pipeline_agrees_with_closed_form_on_random_states
    ),
    Row(
        # the twin checks the rows are what a chain of splitters of transmissivity 1 - 1/k builds
        "relay_orthogonal <-> relay_from_cascade",
        lambda: [relay.relay_orthogonal(n) for n in range(2, 9)],
        (relay.relay_orthogonal,),
        lambda: [gaussian_reference.relay_from_cascade(n) for n in range(2, 9)],
        (gaussian_reference.relay_from_cascade,),
        1e-12,  # test_relay::test_cascade_reproduces_orthogonal_rows
    ),
    Row(
        # the oracle reads the pair marginal's partially transposed spectrum and checks it is bona fide
        "e2_formula <-> pairwise_logneg_numeric at N = 2",
        lambda: [analysis.e2_formula(pt) for pt in _PAIR_POINTS],
        _FORMULA_PARTS,
        lambda: [analysis.pairwise_logneg_numeric(_CM(pt)) for pt in _PAIR_POINTS],
        _ORACLE_PARTS,
        1e-9,  # acceptance criterion 2
    ),
    Row(
        # the oracle checks that every pair marginal of the relay cluster has the formula's spectrum
        "pairwise_logneg_formula <-> pairwise_logneg_numeric",
        lambda: [analysis.pairwise_logneg_formula(pt) for pt in _POINTS],
        _FORMULA_PARTS,
        lambda: [analysis.pairwise_logneg_numeric(_CM(pt)) for pt in _POINTS],
        _ORACLE_PARTS,
        1e-9,  # acceptance criterion 2
    ),
    Row(
        # the oracle checks the k-vs-k marginal by a Williamson eigensolve, not the 2x2 reduction
        "block_logneg_formula <-> block_logneg_numeric",
        lambda: [analysis.block_logneg_formula(pt, k) for pt in _POINTS for k in range(1, pt.n_users // 2 + 1)],
        _FORMULA_PARTS,
        lambda: [
            analysis.block_logneg_numeric(_CM(pt), range(k), range(k, 2 * k))
            for pt in _POINTS
            for k in range(1, pt.n_users // 2 + 1)
        ],
        _ORACLE_PARTS,
        1e-9,  # acceptance criterion 2
    ),
    Row(
        # the oracle checks the half-vs-half split of the whole cluster, with no mode traced out
        "full_house_logneg <-> block_logneg_numeric at N' = N/2",
        lambda: [analysis.full_house_logneg(pt) for pt in _POINTS if pt.n_users % 2 == 0],
        _FORMULA_PARTS,
        lambda: [
            analysis.block_logneg_numeric(_CM(pt), range(pt.n_users // 2), range(pt.n_users // 2, pt.n_users))
            for pt in _POINTS
            if pt.n_users % 2 == 0
        ],
        _ORACLE_PARTS,
        1e-9,  # acceptance criterion 2
    ),
    Row(
        # the ascent checks that no other choice of readout angles beats the formula's common angle
        "gle_formula <-> gle_numeric",
        lambda: [analysis.gle_formula(pt) for pt in _POINTS[:4]],
        _FORMULA_PARTS,
        lambda: [analysis.gle_numeric(_CM(pt)) for pt in _POINTS[:4]],
        _ORACLE_PARTS,
        1e-6,  # acceptance criterion 2
    ),
    Row(
        # the twin checks that no angle of a 64-angle scan refined by two 97-point levels beats the candidates
        "exact line search <-> grid line search",
        lambda: [analysis._line_search(_LINES)[1]],
        (analysis._line_search, analysis._stationary_angles),
        lambda: [gaussian_reference.grid_line_search(_LINES)[1]],
        (gaussian_reference.grid_line_search, gaussian_reference.grid_max_linspace),
        # the grids' resolution (the gap reads 3.5e-11 at most on these lines);
        # test_analysis::test_exact_line_search_scores_at_least_the_grid_search holds the other side to 1e-13
        1e-9,
    ),
    Row(
        # the z search checks that the best z lies on the physical boundary
        "frontier_closed_form <-> max_swap_logneg_at_asymmetry",
        lambda: [sources.frontier_closed_form(d, 10.0) for d in (-1.5, -0.5, 0.0, 0.5, 2.0)],
        (sources.frontier_closed_form,),
        lambda: [sources.max_swap_logneg_at_asymmetry(d, 10.0) for d in (-1.5, -0.5, 0.0, 0.5, 2.0)],
        (sources.max_swap_logneg_at_asymmetry, sources._best_over_z),
        1e-6,  # test_sources and perfbench's frontier check
    ),
    Row(
        # the twin checks the formula is the log-negativity of the relay's actual two-user output
        "swap_logneg_two <-> bell_detect and log_negativity at N = 2",
        lambda: [analysis.swap_logneg_two(nf.x, nf.y, nf.z) for nf in _NORMAL_FORMS],
        (analysis.swap_logneg_two,),
        lambda: [
            gaussian.log_negativity(relay.bell_detect([nf.state()] * 2, relay.build_relay(2))[0], [0])
            for nf in _NORMAL_FORMS
        ],
        (relay.bell_detect, gaussian.log_negativity),
        1e-9,  # acceptance criterion 2, formula vs matrix oracle
    ),
    Row(
        # the twin checks the bound is attained by pure symmetric inputs, the TMSVs
        "tmsv_swap_bound <-> swap_logneg_two on TMSVs",
        lambda: [analysis.tmsv_swap_bound(tmsv(mu).log_negativity()) for mu in (1.0, 1.5, 3.0, 20.0)],
        (analysis.tmsv_swap_bound,),
        lambda: [analysis.swap_logneg_two(tmsv(mu).x, tmsv(mu).y, tmsv(mu).z) for mu in (1.0, 1.5, 3.0, 20.0)],
        (analysis.swap_logneg_two,),
        1e-9,  # test_sources::test_symmetric_states_attain_tmsv_curve_only_at_purity
    ),
    Row(
        # the twin checks the wedge split of the kernel against a Hermitian eigensolve of L^T Omega L
        "_two_mode_spectra <-> _williamson",
        lambda: [np.ravel(gaussian._two_mode_spectra(V)) for V in _PAIRS],
        (gaussian._two_mode_spectra,),
        lambda: [np.ravel(gaussian._williamson(gaussian._require_symmetric(V), [0])) for V in _PAIRS],
        (gaussian._williamson, gaussian.symplectic_eigenvalues),
        # test_gaussian::test_two_mode_spectra_match_williamson: 1e-12 ||V||
        np.repeat([1e-12 * np.linalg.norm(V, 2) for V in _PAIRS], 4),
    ),
    Row(
        # the SVD twin checks that the closed-form angles diagonalize C and that c_minus keeps det C's sign
        "two_mode_standard_form <-> standard_form_per_block",
        lambda: [_standard_form_values(gaussian.two_mode_standard_form, V) for V in _PAIRS],
        (gaussian._standard_form, gaussian.two_mode_standard_form),
        lambda: [_standard_form_values(gaussian_reference.standard_form_per_block, V) for V in _PAIRS],
        (gaussian_reference.standard_form_per_block,),
        # test_gaussian::test_two_mode_standard_form_matches_the_svd_twin: 1e-12 ||V||
        np.repeat([1e-12 * np.linalg.norm(V, 2) for V in _PAIRS], 20),
    ),
    Row(
        # the twin checks the Kronecker ordering of the 16x16 system by a Schur-form solve
        "_kron_lyapunov <-> scipy's Bartels-Stewart",
        lambda: [optomech._kron_lyapunov(A, D) for A, D in _DRIFTS],
        (optomech._kron_lyapunov, optomech._steady_state),
        lambda: [scipy.linalg.solve_continuous_lyapunov(A, -D) for A, D in _DRIFTS],
        (scipy.linalg.solve_continuous_lyapunov,),
        # test_optomech::test_kronecker_lyapunov_matches_scipy_on_random_stable_drifts
        np.repeat(
            [_lyapunov_tolerance(A, scipy.linalg.solve_continuous_lyapunov(A, -D)) for A, D in _DRIFTS], 16
        ),
    ),
    Row(
        # the twin reads the largest real part off an eigensolve, against a margin scaled by ||A||_2 from an svd
        "is_stable's Routh-Hurwitz test <-> eigenvalue_is_stable",
        lambda: [optomech.is_stable(A) for A in _STABILITY_DRIFTS],
        (optomech.is_stable,),
        lambda: [gaussian_reference.eigenvalue_is_stable(A) for A in _STABILITY_DRIFTS],
        (gaussian_reference.eigenvalue_is_stable,),
        0.0,  # test_optomech::test_routh_hurwitz_matches_the_eigenvalue_twin_on_the_drift_grid: the same flags
    ),
    Row(
        # the spectrum checks the sign and scale of the shift: it accepts exactly nu_min >= 1 - tol
        "the constructor's complex-Cholesky certificate <-> the Williamson verdict",
        lambda: [_certified(V) for V in _VERDICT_STATES],
        (gaussian._certificate_shift, gaussian._require_bona_fide_cov),
        lambda: [
            gaussian.symplectic_eigenvalues(V)[0] >= 1.0 - gaussian.BONA_FIDE_TOL for V in _VERDICT_STATES
        ],
        (gaussian._williamson, gaussian.symplectic_eigenvalues),
        0.0,  # test_gaussian::test_certified_verdict_matches_williamson: the same verdict
    ),
    Row(
        # N / mu and 2 / mu are the variances of cluster_closed_form's TMSV cluster;
        # the twin reads them off the relay's actual output, the GHZ limit the paper names
        "N / mu and 2 / mu <-> sum_p_variance and diff_x_variance of bell_detect",
        lambda: [v for mu in (2.0, 10.0) for n in _SIZES for v in (n / mu, 2.0 / mu)],
        (relay.cluster_closed_form,),
        lambda: [
            v
            for mu in (2.0, 10.0)
            for n in _SIZES
            for cm in [relay.bell_detect([tmsv(mu).state()] * n, relay.build_relay(n))[0].cov]
            for v in (relay.sum_p_variance(cm), relay.diff_x_variance(cm, 0, n - 1))
        ],
        (relay.bell_detect, relay.sum_p_variance, relay.diff_x_variance),
        1e-9,  # acceptance criterion 3
    ),
]


def _is_scanned(module_name):
    root = module_name.partition(".")[0]
    return root in ("cvswap", "gaussian_reference") or module_name.startswith("scipy.linalg")


def _disable(monkeypatch, parts):
    """Make every module attribute holding one of ``parts`` raise when called."""
    modules = [m for name, m in list(sys.modules.items()) if _is_scanned(name) and m is not None]
    for part in parts:
        holders = [(m, attr) for m in modules for attr, value in list(vars(m).items()) if value is part]
        # a part no module holds would be patched nowhere, and the row would check nothing
        assert holders, f"no module holds {part.__qualname__}"

        def refuse(*args, _name=part.__qualname__, **kwargs):
            raise AssertionError(f"{_name} called from its twin's route")

        for module, attr in holders:
            monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_each_route_runs_without_its_twin_and_they_agree(monkeypatch, row):
    with monkeypatch.context() as m:
        _disable(m, row.twin_parts)
        closed = _flat(row.closed())
    with monkeypatch.context() as m:
        _disable(m, row.closed_parts)
        twin = _flat(row.twin())
    assert closed.shape == twin.shape and closed.size
    gap = np.abs(twin - closed)
    assert (gap <= row.tol).all(), f"largest gap {gap.max():.3e} at value {int(np.argmax(gap - row.tol))}"


def test_every_public_closed_form_has_a_row():
    closed = {part.__name__ for row in ROWS for part in row.closed_parts}
    public = [name for name in cvswap.__all__ if name.endswith(("_formula", "_closed_form", "_bound"))]
    assert public and [name for name in public if name not in closed] == []
