"""Network entanglement formulas and their independent numerical oracles.

The closed forms describe N users who each share a two-mode squeezed vacuum
of variance mu whose travelling arm crossed a thermal-loss channel
(transmissivity eta, noise omega) before the relay. Every formula here has a
matrix-side twin computed directly from the output covariance matrix via
Williamson spectra (the GLE optimizer uses the closed-form two-mode spectrum
of the conditioned pair) — the two roads are kept separate on purpose and
the tests drive them against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    BONA_FIDE_TOL,
    GaussianState,
    PhysicalityError,
    _two_mode_spectra,
    partial_transpose,
    reduce as reduce_state,
    symplectic_eigenvalues,
)
from .relay import bell_detect, build_relay, cluster_closed_form
from .sources import TwoModeNormalForm, _golden_max, thermal_loss_on_a, tmsv

__all__ = [
    "NetworkPoint",
    "e2_formula",
    "pairwise_logneg_formula",
    "gle_formula",
    "block_logneg_formula",
    "full_house_logneg",
    "network_cluster_cm",
    "pairwise_logneg_numeric",
    "pairwise_logneg_numeric_raw",
    "gle_numeric",
    "block_logneg_numeric",
    "swap_logneg_two",
    "tmsv_swap_bound",
]


@dataclass(frozen=True)
class NetworkPoint:
    """One (mu, eta, omega, N) configuration of the symmetric network."""

    mu: float
    eta: float
    omega: float
    n_users: int

    def __post_init__(self):
        if self.mu < 1.0:
            raise ValueError("mu must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.omega < 1.0:
            raise ValueError("omega must be >= 1")
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2")

    @property
    def alpha(self) -> float:
        """alpha = eta (mu^2 - 1) / (eta + (1 - eta) mu omega), recomputed."""
        return self.eta * (self.mu**2 - 1.0) / (self.eta + (1.0 - self.eta) * self.mu * self.omega)

    def normal_form(self) -> TwoModeNormalForm:
        return thermal_loss_on_a(tmsv(self.mu), self.eta, self.omega)


def _clamp(value: float, clamped: bool) -> float:
    return max(0.0, value) if clamped else value


def e2_formula(pt: NetworkPoint, clamped: bool = True) -> float:
    """Two-user swapped log-negativity ln[(eta mu + (1-eta) omega) / (eta + (1-eta) mu omega)]."""
    num = pt.eta * pt.mu + (1.0 - pt.eta) * pt.omega
    den = pt.eta + (1.0 - pt.eta) * pt.mu * pt.omega
    return _clamp(float(np.log(num / den)), clamped)


def pairwise_logneg_formula(pt: NetworkPoint, clamped: bool = True) -> float:
    """Entanglement between any two users: E2 - ln(1 + alpha (N-2)/N) / 2."""
    N = pt.n_users
    raw = e2_formula(pt, clamped=False) - 0.5 * np.log(1.0 + pt.alpha * (N - 2) / N)
    return _clamp(float(raw), clamped)


def gle_formula(pt: NetworkPoint, clamped: bool = True) -> float:
    """Localizable entanglement when the other N-2 users homodyne optimally.

    Algebraically identical to E2 - ln(1 + (N-2)/(N/alpha + 2)) / 2 but
    written so that alpha = 0 is regular (the correction vanishes there).
    """
    N = pt.n_users
    a = pt.alpha
    raw = e2_formula(pt, clamped=False) - 0.5 * np.log(1.0 + a * (N - 2) / (N + 2.0 * a))
    return _clamp(float(raw), clamped)


def block_logneg_formula(pt: NetworkPoint, n_prime: int, clamped: bool = True) -> float:
    """Entanglement between two disjoint groups of n_prime users each."""
    N = pt.n_users
    if 2 * n_prime > N:
        raise ValueError("2 * n_prime must not exceed n_users")
    if n_prime < 1:
        raise ValueError("n_prime must be >= 1")
    raw = e2_formula(pt, clamped=False) - 0.5 * np.log(1.0 + pt.alpha * (N - 2 * n_prime) / N)
    return _clamp(float(raw), clamped)


def full_house_logneg(pt: NetworkPoint, clamped: bool = True) -> float:
    """Block entanglement of the even split N' = N/2 — exactly E2."""
    if pt.n_users % 2:
        raise ValueError("full-house splitting needs an even number of users")
    return block_logneg_formula(pt, pt.n_users // 2, clamped=clamped)


# --- numerical oracles ---------------------------------------------------


def network_cluster_cm(pt: NetworkPoint, pipeline: bool = False) -> np.ndarray:
    """Output covariance of the N kept modes.

    By default assembles the closed form; with ``pipeline=True`` runs the
    full tensor/relay/conditioning machinery instead (slower, used to
    cross-check the closed form).
    """
    nf = pt.normal_form()
    if pipeline:
        copies = [nf.state() for _ in range(pt.n_users)]
        out, _ = bell_detect(copies, build_relay(pt.n_users))
        return out.cov
    return cluster_closed_form(nf.x, nf.y, nf.z, pt.n_users).assemble()


def _pt_spectrum(cluster_cov: np.ndarray, group_a, group_b) -> np.ndarray:
    """Williamson spectrum of the (group_a, group_b) marginal with group_a partially transposed."""
    group_a = [int(m) for m in group_a]
    group_b = [int(m) for m in group_b]
    if not group_a or not group_b:
        raise ValueError("partition must be a nonempty proper subset of modes")
    if set(group_a) & set(group_b):
        raise ValueError("groups must be disjoint")
    sub = reduce_state(GaussianState(cluster_cov, check=False), group_a + group_b)
    return symplectic_eigenvalues(partial_transpose(sub.cov, range(len(group_a))))


def pairwise_logneg_numeric(cluster_cov: np.ndarray, i: int = 0, j: int = 1) -> float:
    """Log-negativity of the (i, j) pair reduced out of the cluster."""
    nus = _pt_spectrum(cluster_cov, [i], [j])
    return float(np.sum(np.clip(-np.log(nus), 0.0, None)))


def pairwise_logneg_numeric_raw(cluster_cov: np.ndarray, i: int = 0, j: int = 1) -> float:
    """Unclamped -ln(nu_min) of the partially transposed (i, j) pair.

    Negative values mean the pair is separable with that much margin; this is
    the matrix-side twin of the unclamped formulas.
    """
    return float(-np.log(_pt_spectrum(cluster_cov, [i], [j])[0]))


def block_logneg_numeric(cluster_cov: np.ndarray, group_a, group_b) -> float:
    """Log-negativity across two disjoint groups of cluster modes."""
    nus = _pt_spectrum(cluster_cov, group_a, group_b)
    return float(np.sum(np.clip(-np.log(nus), 0.0, None)))


def block_logneg_numeric_raw(cluster_cov: np.ndarray, group_a, group_b) -> float:
    """Unclamped -ln(nu_min) across two disjoint groups of cluster modes."""
    return float(-np.log(_pt_spectrum(cluster_cov, group_a, group_b)[0]))


#: The GLE ascent scans _GLE_GRID angles on [0, pi) and stops when a full pass
#: gains less than _GLE_TOL, or after _GLE_MAX_PASSES passes.
_GLE_GRID = 64
_GLE_TOL = 1e-8
_GLE_MAX_PASSES = 40


def gle_numeric(cluster_cov: np.ndarray, i: int = 0, j: int = 1) -> float:
    """Localizable entanglement by optimized homodynes on the other modes.

    Every mode except (i, j) is measured along an adjustable quadrature
    angle; the input is validated once. The readouts sit on distinct modes
    and commute, so each angle set is one Schur complement: with U the rows
    (cos theta, -sin theta) of the rotated X quadratures, the pair keeps
    V_pp - C M^-1 C^T with M = U V_oo U^T and C = V_po U^T, taken through a
    Cholesky factor of M, and its log-negativity comes from the closed-form
    two-mode spectrum. The ascent starts from the best common angle on a
    grid, then optimizes one angle at a time (grid scan plus golden-section
    refinement) until a full pass improves the pair log-negativity by less
    than 1e-8.
    """
    state = GaussianState(cluster_cov)
    n = state.n_modes
    reduce_state(state, [i, j])  # rejects a repeated or out-of-range pair
    others = [m for m in range(n) if m not in (i, j)]
    p_idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    o_idx = [2 * m + q for m in others for q in (0, 1)]
    v_pp = state.cov[np.ix_(p_idx, p_idx)]
    v_po = state.cov[np.ix_(p_idx, o_idx)]
    v_oo = state.cov[np.ix_(o_idx, o_idx)]
    k = len(others)
    U = np.zeros((k, 2 * k))
    u_x = U.reshape(-1)[0 :: 2 * k + 2]  # U[m, 2m], the X weight of row m
    u_p = U.reshape(-1)[1 :: 2 * k + 2]  # U[m, 2m + 1], its P weight

    def pair_logneg(cov):
        (nu_min, _), pt_nus = _two_mode_spectra(cov)
        if nu_min < 1.0 - BONA_FIDE_TOL:
            raise PhysicalityError(f"conditioned pair is not bona fide: nu_min {nu_min!r}")
        return sum(max(0.0, -math.log(nu)) for nu in pt_nus)

    def objective(thetas):
        u_x[:] = np.cos(thetas)
        u_p[:] = -np.sin(thetas)
        C = v_po @ U.T
        try:
            L = np.linalg.cholesky(U @ v_oo @ U.T)
            degenerate = L.diagonal().min() ** 2 < 1e-12
        except np.linalg.LinAlgError:
            degenerate = True
        if degenerate:
            raise ValueError("measured quadrature variance is numerically degenerate")
        G = np.linalg.solve(L, C.T)
        return pair_logneg(v_pp - G.T @ G)

    if not others:
        return pair_logneg(v_pp)

    # Coordinate moves cannot leave a configuration whose whole single-angle
    # neighborhood is separable (the clamped value is identically zero there),
    # so seed the ascent with the best common angle instead of a fixed corner.
    grid = np.linspace(0.0, np.pi, _GLE_GRID, endpoint=False)
    half_step = np.pi / _GLE_GRID
    seed_vals = [objective(np.full(k, g)) for g in grid]
    thetas = np.full(k, grid[int(np.argmax(seed_vals))])
    best = float(np.max(seed_vals))
    for _ in range(_GLE_MAX_PASSES):
        start = best
        for m in range(k):

            def f(theta):
                trial = thetas.copy()
                trial[m] = theta
                return objective(trial)

            centre = grid[int(np.argmax([f(g) for g in grid]))]
            theta_m, val = _golden_max(f, centre - half_step, centre + half_step, 1e-10)
            if val > best:
                best = val
                thetas[m] = theta_m
        if best - start < _GLE_TOL:
            break
    return float(best)


def swap_logneg_two(x: float, y: float, z: float, clamped: bool = True) -> float:
    """Two-user swapped output entanglement -ln(y - z^2 / x) for one copy pair."""
    arg = y - z * z / x
    if arg <= 0:
        raise ValueError("invalid normal form: conditional variance not positive")
    return _clamp(float(-np.log(arg)), clamped)


def tmsv_swap_bound(e_in: float) -> float:
    """Swapped output entanglement of a pure two-mode squeezed vacuum, ln cosh(E_in).

    A TMSV of variance mu has E_in = ln(mu + sqrt(mu^2 - 1)) and swapped
    output ln mu, hence E_out = ln cosh(E_in). This is the symmetric (d = 0)
    frontier against which sampled states are compared.
    """
    return float(np.log(np.cosh(e_in)))
