"""Network entanglement formulas and their independent numerical oracles.

The closed forms describe N users who each share a two-mode squeezed vacuum
of variance mu whose travelling arm crossed a thermal-loss channel
(transmissivity eta, noise omega) before the relay. Every formula here has a
matrix-side twin computed directly from the output covariance matrix: the
pairwise and block oracles read the log-negativity of a marginal, the GLE
optimizer the closed-form two-mode spectrum of the conditioned pair. The two
roads are kept separate on purpose and the tests drive them against each
other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    _as_index,
    _require_bona_fide,
    _two_mode_spectra,
    log_negativity,
    reduce as reduce_state,
)
from .relay import _DEGENERATE, _MIN_READOUT_VARIANCE, _as_size, cluster_closed_form
from .sources import TwoModeNormalForm, _grid_max, thermal_loss_on_a, tmsv

__all__ = [
    "NetworkPoint",
    "e2_formula",
    "pairwise_logneg_formula",
    "gle_formula",
    "block_logneg_formula",
    "full_house_logneg",
    "network_cluster_cm",
    "pairwise_logneg_numeric",
    "gle_numeric",
    "block_logneg_numeric",
    "swap_logneg_two",
    "tmsv_swap_bound",
]


@dataclass(frozen=True)
class NetworkPoint:
    """One (mu, eta, omega, N) configuration of the symmetric network.

    N must be an integer >= 2; an integral float such as 4.0 is stored as 4.
    """

    mu: float
    eta: float
    omega: float
    n_users: int

    def __post_init__(self):
        if not (self.mu >= 1.0 and math.isfinite(self.mu)):
            raise ValueError("mu must be finite and >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not (self.omega >= 1.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be finite and >= 1")
        object.__setattr__(self, "n_users", _as_size(self.n_users, 2, "n_users"))

    @property
    def alpha(self) -> float:
        """alpha = eta (mu^2 - 1) / (eta + (1 - eta) mu omega), recomputed."""
        return self.eta * (self.mu**2 - 1.0) / (self.eta + (1.0 - self.eta) * self.mu * self.omega)

    def normal_form(self) -> TwoModeNormalForm:
        return thermal_loss_on_a(tmsv(self.mu), self.eta, self.omega)


# Each formula's value before the cut at 0: negative where the users it names
# are separable. The public formula returns max(0.0, value).


def _e2(pt: NetworkPoint) -> float:
    # ln(num / den) with num = eta mu + (1 - eta) omega, taken as log1p of
    # num - den = (mu - 1)(eta - (1 - eta) omega) over den: num / den rounds
    # near 1 as mu -> 1, which would let E2 move the wrong way by one ulp
    den = pt.eta + (1.0 - pt.eta) * pt.mu * pt.omega
    return float(np.log1p((pt.mu - 1.0) * (pt.eta - (1.0 - pt.eta) * pt.omega) / den))


def _gle(pt: NetworkPoint) -> float:
    N = pt.n_users
    a = pt.alpha
    return float(_e2(pt) - 0.5 * np.log1p(a * (N - 2) / (N + 2.0 * a)))


def _block(pt: NetworkPoint, n_prime: int) -> float:
    N = pt.n_users
    n_prime = _as_size(n_prime, 1, "n_prime")
    if 2 * n_prime > N:
        raise ValueError("2 * n_prime must not exceed n_users")
    return float(_e2(pt) - 0.5 * np.log1p(pt.alpha * (N - 2 * n_prime) / N))


def e2_formula(pt: NetworkPoint) -> float:
    """Two-user swapped log-negativity ln[(eta mu + (1-eta) omega) / (eta + (1-eta) mu omega)]."""
    return max(0.0, _e2(pt))


def pairwise_logneg_formula(pt: NetworkPoint) -> float:
    """Entanglement between any two users: E2 - ln(1 + alpha (N-2)/N) / 2, the block formula at N' = 1."""
    return max(0.0, _block(pt, 1))


def gle_formula(pt: NetworkPoint) -> float:
    """Localizable entanglement when the other N-2 users homodyne optimally.

    Algebraically identical to E2 - ln(1 + (N-2)/(N/alpha + 2)) / 2 but
    written so that alpha = 0 is regular (the correction vanishes there).
    """
    return max(0.0, _gle(pt))


def block_logneg_formula(pt: NetworkPoint, n_prime: int) -> float:
    """Entanglement between two disjoint groups of n_prime users each (an integer >= 1)."""
    return max(0.0, _block(pt, n_prime))


def full_house_logneg(pt: NetworkPoint) -> float:
    """Block entanglement of the even split N' = N/2 — exactly E2."""
    if pt.n_users % 2:
        raise ValueError("full-house splitting needs an even number of users")
    return block_logneg_formula(pt, pt.n_users // 2)


# --- numerical oracles ---------------------------------------------------


def network_cluster_cm(pt: NetworkPoint) -> np.ndarray:
    """Output covariance of the N kept modes, assembled from the closed form."""
    nf = pt.normal_form()
    return cluster_closed_form(nf.x, nf.y, nf.z, pt.n_users).assemble()


def pairwise_logneg_numeric(cluster_cov: np.ndarray, i: int = 0, j: int = 1) -> float:
    """Log-negativity of the (i, j) pair reduced out of the cluster."""
    return block_logneg_numeric(cluster_cov, [i], [j])


def block_logneg_numeric(cluster_cov: np.ndarray, group_a, group_b) -> float:
    """Log-negativity across two disjoint groups of cluster modes.

    The (group_a, group_b) marginal goes through :func:`cvswap.gaussian.log_negativity`
    with group_a partially transposed: the closed-form two-mode spectrum for a
    pair, one Cholesky of the marginal for larger groups. ``reduce`` refuses
    a mode listed twice, and ``log_negativity`` an empty group. Only the
    marginal is read, so only it is checked, by ``log_negativity`` from the
    same spectra: one that is not bona fide raises PhysicalityError.
    """
    group_a = list(group_a)
    marginal = reduce_state(GaussianState(cluster_cov, check=False), group_a + list(group_b))
    return log_negativity(marginal, range(len(group_a)))


#: The GLE ascent scans _GLE_GRID angles on [0, pi) and stops after a sweep
#: whose best gain is below _GLE_TOL, or after _GLE_MAX_SWEEPS sweeps.
_GLE_GRID = 64
_GLE_TOL = 1e-10
_GLE_MAX_SWEEPS = 60


@functools.cache
def _coordinate_index(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices of the k coordinate blocks of the GLE ascent, and each coordinate's reads.

    Coordinate a orders the (pair, measured modes) covariance v as (pair, a,
    the rest) and reads the rest from the last: ``v[rows, cols]`` is the
    (k, 2k + 4, 2k + 4) stack of those matrices, and ``reads[a]`` the rest in
    reading order. Built once per k and read-only.
    """
    q, reads = [], []
    for a in range(k):
        rest = [b for b in range(k) if b != a]
        q.append([0, 1, 2, 3] + [4 + 2 * b + s for b in [a] + rest for s in (0, 1)])
        reads.append(rest[::-1])
    q, reads = np.array(q), np.array(reads, dtype=int).reshape(k, k - 1)
    q.flags.writeable = reads.flags.writeable = False
    return q[:, :, None], q[:, None, :], reads


def _read_last(v: np.ndarray, theta) -> np.ndarray:
    """Condition on reading the last mode along X cos(theta) - P sin(theta), then drop it.

    ``v`` is a covariance or a stack of them, shape (..., d, d), and ``theta``
    a scalar or an array that broadcasts against that stack, whose shape
    leads the result's. With u = (cos theta, -sin theta), c = V u and the
    readout variance M = u^T V_mm u, the other modes keep V_oo - c_o c_o^T / M,
    formed as g g^T with g = c_o / sqrt(M), one step of a Cholesky
    factorization. A readout variance below _MIN_READOUT_VARIANCE raises
    ValueError.
    """
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    c = cos * v[..., -2] - sin * v[..., -1]
    var = cos * c[..., -2:-1] - sin * c[..., -1:]
    if not np.min(var) >= _MIN_READOUT_VARIANCE:
        raise ValueError(_DEGENERATE)
    g = c[..., :-2] / np.sqrt(var)
    return v[..., :-2, :-2] - g[..., :, None] * g[..., None, :]


def gle_numeric(cluster_cov: np.ndarray, i: int = 0, j: int = 1) -> float:
    """Localizable entanglement by optimized homodynes on the other modes.

    Every mode except (i, j) is measured along an adjustable quadrature
    angle; the input is validated once, and every candidate pair is checked
    for physicality and read through the closed-form two-mode spectrum. The
    readouts sit on distinct modes and commute, so reading them one after
    another by the rank-one step :func:`_read_last` conditions the pair on
    all of them. The search maximizes the unclamped -ln nu~_- of the
    conditioned pair (a physical pair has nu~_+ >= 1, so that is its whole
    log-negativity when positive) and clamps only the returned value at 0.
    The ascent starts from the best common angle on a grid: every measured
    mode is read at the 64 grid angles as one stack, and one kernel call
    scores the (64, 4, 4) stack of pairs. It then moves one angle per sweep.
    Each coordinate m orders the modes as (pair, m, the rest) and reads the
    rest at their current angles, which leaves the 6x6 covariance of the
    pair and m; each angle of m is then one more read of that matrix. A
    sweep builds the k blocks of all k = N - 2 coordinates with k - 1
    stacked reads, scans the 64 grid angles of all of them as one (k, 64)
    stack, then refines within one grid step of each best angle by the
    nested grids of :func:`cvswap.sources._grid_max`, one (k, 97) stack per
    level. The objective has period pi, so a bracket may reach past 0 or pi.
    Only the coordinate with the largest gain moves (the first on a tie), and
    the ascent stops after a sweep whose best gain is below 1e-10. A sweep
    costs 3 stacked kernel calls at any N, so a cluster whose common-angle
    seed is already best, as an unrotated one is, takes 4 with the seeds. A
    stack passes the bona-fide check only if its smallest nu_- does (a NaN
    fails), so one unphysical angle raises PhysicalityError.
    """
    state = GaussianState(cluster_cov)
    n = state.n_modes
    i, j = (_as_index(m, n) for m in (i, j))
    if i == j:
        raise ValueError("duplicate mode indices")
    others = [m for m in range(n) if m not in (i, j)]
    order = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1] + [2 * m + q for m in others for q in (0, 1)]
    v = state.cov[np.ix_(order, order)]

    def pair_logneg(covs):
        """Unclamped -ln nu~_- of a pair covariance or of each in a (..., 4, 4) stack."""
        if covs.ndim > 3:  # the kernel's entry-wise reads cost less on a flat stack
            return pair_logneg(covs.reshape(-1, 4, 4)).reshape(covs.shape[:-2])
        (nu_min, _), (pt_minus, _) = _two_mode_spectra(covs)
        _require_bona_fide(float(np.min(nu_min)), "conditioned pair")
        return -np.log(pt_minus)

    if not others:
        return max(0.0, float(pair_logneg(v)))

    # The unclamped objective has no separable plateau, so coordinate moves
    # climb out of angles where the pair is separable; seeding with the best
    # common angle rather than a fixed corner starts near the global optimum.
    grid = np.linspace(0.0, np.pi, _GLE_GRID, endpoint=False)
    step = np.pi / _GLE_GRID
    k = len(others)
    seeds = v
    for _ in range(k):
        seeds = _read_last(seeds, grid)
    seed_vals = pair_logneg(seeds)
    thetas = np.full(k, grid[int(np.argmax(seed_vals))])
    best = float(np.max(seed_vals))
    rows, cols, reads = _coordinate_index(k)
    blocks = v[rows, cols]
    for _ in range(_GLE_MAX_SWEEPS):
        W = blocks
        for angles in thetas[reads].T:
            W = _read_last(W, angles)
        W = W[:, None]
        centres = grid[np.argmax(pair_logneg(_read_last(W, grid)), axis=-1)]
        tops, vals = _grid_max(lambda t: pair_logneg(_read_last(W, t)), centres - step, centres + step)
        m = int(np.argmax(vals))
        gain = float(vals[m]) - best
        if gain > 0:
            best = float(vals[m])
            thetas[m] = tops[m]
        if gain < _GLE_TOL:
            break
    return max(0.0, float(best))


def swap_logneg_two(x: float, y: float, z: float) -> float:
    """Two-user swapped output entanglement max(0, -ln(y - z^2 / x)) for one copy pair.

    x, y and z must be finite with x > 0, as in :func:`cvswap.relay.cluster_closed_form`.
    """
    if not (x > 0 and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("x, y and z must be finite and x positive")
    arg = y - z * z / x
    if not arg > 0:
        raise ValueError("invalid normal form: conditional variance not positive")
    return max(0.0, float(-np.log(arg)))


def tmsv_swap_bound(e_in: float) -> float:
    """Swapped output entanglement of a pure two-mode squeezed vacuum, ln cosh(E_in).

    A TMSV of variance mu has E_in = ln(mu + sqrt(mu^2 - 1)) and swapped
    output ln mu, hence E_out = ln cosh(E_in). This is the symmetric (d = 0)
    frontier against which sampled states are compared.
    """
    return float(np.log(np.cosh(e_in)))
