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
    _require_bona_fide,
    _two_mode_spectra,
    log_negativity,
    reduce as reduce_state,
)
from .relay import _DEGENERATE, _MIN_READOUT_VARIANCE, _as_size, cluster_closed_form
from .sources import TwoModeNormalForm, thermal_loss_on_a, tmsv

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
        """alpha = eta (mu^2 - 1) / (eta + (1 - eta) mu omega), recomputed.

        Finite wherever it can be represented: where mu^2 or the denominator
        overflows, both are divided by mu first. An alpha past the largest
        double raises OverflowError.
        """
        eta, mu, omega = self.eta, self.mu, self.omega
        num, den = mu * mu - 1.0, eta + (1.0 - eta) * mu * omega
        if num < math.inf and den < math.inf:
            return eta * num / den  # den >= 1 here, so this is finite
        alpha = eta * (mu - 1.0 / mu) / (eta / mu + (1.0 - eta) * omega)
        if alpha == math.inf:
            raise OverflowError(f"alpha at mu = {mu:g}, eta = {eta:g}, omega = {omega:g} is too large")
        return alpha

    def normal_form(self) -> TwoModeNormalForm:
        return thermal_loss_on_a(tmsv(self.mu), self.eta, self.omega)


# Each formula's value before the cut at 0: negative where the users it names
# are separable. The public formula returns max(0.0, value).


def _e2(pt: NetworkPoint) -> float:
    # ln(num / den) with num = eta mu + (1 - eta) omega, taken as log1p of
    # num - den = (mu - 1)(eta - (1 - eta) omega) over den: num / den rounds
    # near 1 as mu -> 1, which would let E2 move the wrong way by one ulp.
    # Far below 1 that quotient rounds to -1, so there ln num - ln den is
    # read; num and den are both >= 1, so neither log can fail. So is it
    # where den or the quotient overflows. num, a convex combination of mu
    # and omega, stays finite; a den past the largest double has
    # (1 - eta) mu omega > eta / eps, so ln den is ln((1 - eta) mu) + ln omega
    eta, mu, omega = pt.eta, pt.mu, pt.omega
    den = eta + (1.0 - eta) * mu * omega
    rel = (mu - 1.0) * (eta - (1.0 - eta) * omega) / den
    if rel < -0.5 or not (math.isfinite(rel) and den < math.inf):
        ln_num = math.log(eta * mu + (1.0 - eta) * omega)
        ln_den = math.log(den) if den < math.inf else math.log((1.0 - eta) * mu) + math.log(omega)
        return ln_num - ln_den
    return float(np.log1p(rel))


def _gle(pt: NetworkPoint) -> float:
    # a (N - 2) / (N + 2a), written so that neither a (N - 2) nor 2a can
    # overflow for an alpha near the largest double
    N = pt.n_users
    a = pt.alpha
    return float(_e2(pt) - 0.5 * np.log1p((N - 2) / (N / a + 2.0) if a > 0.0 else 0.0))


def _block(pt: NetworkPoint, n_prime: int) -> float:
    N = pt.n_users
    n_prime = _as_size(n_prime, 1, "n_prime")
    if 2 * n_prime > N:
        raise ValueError("2 * n_prime must not exceed n_users")
    # (N - 2 n') / N <= 1, so the product stays finite wherever alpha is
    return float(_e2(pt) - 0.5 * np.log1p(pt.alpha * ((N - 2 * n_prime) / N)))


def e2_formula(pt: NetworkPoint) -> float:
    """Two-user swapped log-negativity ln[(eta mu + (1-eta) omega) / (eta + (1-eta) mu omega)]."""
    return max(0.0, _e2(pt))


def pairwise_logneg_formula(pt: NetworkPoint) -> float:
    """Entanglement between any two users: E2 - ln(1 + alpha (N-2)/N) / 2, the block formula at N' = 1."""
    return max(0.0, _block(pt, 1))


def gle_formula(pt: NetworkPoint) -> float:
    """Localizable entanglement when the other N-2 users homodyne optimally.

    E2 - ln(1 + alpha (N-2)/(N + 2 alpha)) / 2, taken as
    E2 - ln(1 + (N-2)/(N/alpha + 2)) / 2 so that it stays finite for an
    alpha near the largest double; the correction vanishes at alpha = 0.
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


def pairwise_logneg_numeric(cluster_cov: np.ndarray) -> float:
    """Log-negativity of modes 0 and 1 reduced out of the cluster; any other pair is a block of one."""
    return block_logneg_numeric(cluster_cov, [0], [1])


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


#: The GLE ascent seeds from _GLE_GRID common angles on [0, pi) and stops
#: after a sweep whose best gain is below _GLE_TOL, or after _GLE_MAX_SWEEPS sweeps.
_GLE_GRID = 64
_GLE_TOL = 1e-12
_GLE_MAX_SWEEPS = 60


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


#: The seed grid's angles and their (cos, sin), computed once and read-only.
_SEED_ANGLES = _read_only(np.linspace(0.0, np.pi, _GLE_GRID, endpoint=False))
_SEED_READS = tuple(_read_only(f(_SEED_ANGLES)) for f in (np.cos, np.sin))
#: An exact line search (:func:`_stationary_angles`) reads each block's mode
#: at theta = 0, pi/4 and pi/2, that is at phi = 2 theta = 0, pi/2 and pi;
#: these are their (cos, sin). With the reads of M, p or q at those phi in
#: a row, ``row @ _LINE_COEF`` is its (c0, c1, c2) in c0 + c1 cos phi + c2 sin phi.
_LINE_READS = tuple(_read_only(f(np.array([0.0, 0.25 * np.pi, 0.5 * np.pi]))) for f in (np.cos, np.sin))
_LINE_COEF = _read_only(np.array([[0.5, 0.5, -0.5], [0.0, 0.0, 1.0], [0.5, -0.5, -0.5]]))
#: The Minkowski metric diag(1, -1, -1) on (c0, c1, c2).
_MINKOWSKI = _read_only(np.array([1.0, -1.0, -1.0]))
#: With G the Gram matrix of (M, p, q) under that metric, flattened row by
#: row, ``G @ _QUARTIC`` is h's x^3 .. x^0 coefficients: -2 <M, p>,
#: <p, p> + 2 <M, q>, -2 <p, q> and <q, q>. Each sums at most two terms
#: scaled by powers of two, so it rounds once, as those expressions do.
_QUARTIC = np.zeros((9, 4))
_QUARTIC[[1, 4, 2, 5, 8], [0, 1, 1, 2, 3]] = [-2.0, 1.0, 2.0, -2.0, 1.0]
_read_only(_QUARTIC)
#: A (4, 4) companion matrix below its first row: ones on the subdiagonal.
_COMPANION_SHIFT = _read_only(np.eye(4, k=-1))
#: The part of a (pair, mode) block each row and column belongs to: 0 the pair, 1 the mode.
_BLOCK_PART = np.array([0, 0, 0, 0, 1, 1])


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


def _read_last(v: np.ndarray, cos, sin) -> np.ndarray:
    """Condition on reading the last mode along X cos(theta) - P sin(theta), then drop it.

    ``v`` is a covariance or a stack of them, shape (..., d, d), and ``cos``
    and ``sin`` are cos theta and sin theta, arrays or numpy scalars that
    broadcast against that stack, whose shape leads the result's. With
    u = (cos theta, -sin theta), c = V u and the readout variance
    M = u^T V_mm u, the other modes keep V_oo - c_o c_o^T / M, formed as
    g g^T with g = c_o / sqrt(M), one step of a Cholesky factorization. A
    readout variance below _MIN_READOUT_VARIANCE raises ValueError. Callers
    take cos and sin of a fixed set of angles once, not once per read.
    """
    cos, sin = cos[..., None], sin[..., None]
    c = cos * v[..., -2] - sin * v[..., -1]
    var = cos * c[..., -2:-1] - sin * c[..., -1:]
    if not var.min() >= _MIN_READOUT_VARIANCE:
        raise ValueError(_DEGENERATE)
    g = c[..., :-2] / np.sqrt(var)
    return v[..., :-2, :-2] - g[..., :, None] * g[..., None, :]


def _pair_logneg(covs):
    """Unclamped -ln nu~_- of a pair covariance or of each in a (..., 4, 4) stack.

    A stack passes the bona-fide check only if its smallest nu_- does (a NaN
    fails), so one unphysical pair raises PhysicalityError. The kernel
    returns Python floats for one pair, so the smallest is taken by the
    ufunc, which reads both.
    """
    if covs.ndim > 3:  # the kernel's entry-wise reads cost less on a flat stack
        return _pair_logneg(covs.reshape(-1, 4, 4)).reshape(covs.shape[:-2])
    (nu_min, _), (pt_minus, _) = _two_mode_spectra(covs)
    _require_bona_fide(float(np.minimum.reduce(nu_min, axis=None)), "conditioned pair")
    return -np.log(pt_minus)


def _stationary_angles(W: np.ndarray) -> np.ndarray:
    """The (k, 4) candidate angles of exact line searches on a (k, 6, 6) stack of (pair, mode) blocks.

    Reading the mode along u = (cos theta, -sin theta) leaves the pair with
    the partial-transpose invariant Delta~ = det A + det B - 2 det C = p / M
    and det V' = q / M, where M = u^T V_mm u and, by the matrix determinant
    lemma, M, p and q are each c0 + c1 cos phi + c2 sin phi in phi = 2 theta;
    one stacked read at phi = 0, pi/2 and pi gives their values there, and
    one product with the constant _LINE_COEF their coefficients.
    x = nu~_-^2 solves F = M x^2 - p x + q = 0, and at fixed x,
    F = A + B cos phi + C sin phi vanishes at some phi iff A^2 <= B^2 + C^2.
    So the least x on a line, and every other extreme x, is a real root of
    the quartic h = A^2 - B^2 - C^2, whose coefficients are Minkowski
    products of the coefficient vectors of M, p and q, all six read off one
    Gram product, and whose x^4 coefficient is det V_mm > 0; it is reached
    at cos phi = -B/A, sin phi = -C/A. The roots are the eigenvalues of one
    real (k, 4, 4) companion stack, copied from a constant shift; a complex
    root's real part only adds a candidate, which is scored as the others
    are, so the best score among the four is the line's maximum. h grows as
    |W|^10, so each block is first scaled, exactly, by the power of two that
    puts its largest diagonal entry in [1/2, 1), and then the rows and
    columns of whichever of the pair and the mode has the smaller diagonal
    by the power of two that brings it within a factor 4 of the other's:
    the conditioned pair only scales, so the angles do not change, and a
    measured variance far below the pair's does not drop under
    _MIN_READOUT_VARIANCE. A block and its multiples by powers of two give
    the same candidates bit for bit. Every step is elementwise, one BLAS or
    LAPACK call per matrix, or the exact _QUARTIC product, so a line's
    candidates do not depend on the stack it sits in.
    """
    _, e = np.frexp(np.maximum.reduceat(W.diagonal(axis1=1, axis2=2), [0, 4], axis=1))  # pair, mode
    top = e.max(axis=1, keepdims=True)
    lift = ((top - e) // 2)[:, _BLOCK_PART]  # per row and column
    W = np.ldexp(W, lift[:, :, None] + (lift - top)[:, None, :])
    pairs = _read_last(W[:, None], *_LINE_READS)
    a, b, c, d = (pairs[..., r, :] for r in range(4))
    tilde = a[..., 0] * b[..., 1] - a[..., 1] ** 2 + c[..., 2] * d[..., 3] - c[..., 3] ** 2
    tilde -= 2.0 * (a[..., 2] * b[..., 3] - a[..., 3] * b[..., 2])
    vxx, vxp, vpp = W[:, 4, 4], W[:, 4, 5], W[:, 5, 5]
    m = np.stack([vxx, 0.5 * (vxx + vpp) - vxp, vpp], axis=-1)
    # rows M, p, q of each line; columns their reads at phi = 0, pi/2, pi, then c0, c1, c2
    coef = np.stack([m, m * tilde, m * np.linalg.det(pairs)], axis=1) @ _LINE_COEF
    gram = ((coef * _MINKOWSKI) @ coef.transpose(0, 2, 1)).reshape(-1, 9)
    companion = np.empty((len(W), 4, 4))
    companion[:] = _COMPANION_SHIFT
    companion[:, 0] = (gram @ _QUARTIC) / -gram[:, :1]  # h's x^3 .. x^0 over its x^4 coefficient <M, M>
    x = np.linalg.eigvals(companion).real[..., None]
    A, B, C = (coef[:, None, 0] * (x * x) - coef[:, None, 1] * x + coef[:, None, 2]).transpose(2, 0, 1)
    return 0.5 * np.arctan2(-C * A, -B * A)


def _line_search(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best angle and value of each line of a (k, 6, 6) stack, by one kernel call on its candidates."""
    candidates = _stationary_angles(W)
    vals = _pair_logneg(_read_last(W[:, None], np.cos(candidates), np.sin(candidates)))
    lines, best = np.arange(len(W)), vals.argmax(axis=1)
    return candidates[lines, best], vals[lines, best]


def gle_numeric(cluster_cov: np.ndarray) -> float:
    """Localizable entanglement of modes 0 and 1 by optimized homodynes on the other modes.

    Every mode but the pair is measured along an adjustable quadrature
    angle; any other pair is the caller's permutation of the covariance, as
    for :func:`pairwise_logneg_numeric`, and a one-mode input raises
    ValueError. The input is validated once, and every candidate pair is
    checked for physicality and read through the closed-form two-mode
    spectrum. The readouts sit on distinct modes and commute, so reading
    them one after another by the rank-one step :func:`_read_last`
    conditions the pair on all of them. The search maximizes the unclamped -ln nu~_- of the
    conditioned pair (a physical pair has nu~_+ >= 1, so that is its whole
    log-negativity when positive) and clamps only the returned value at 0.
    The ascent starts from the best common angle on a grid: every measured
    mode is read at the 64 constant grid angles as one stack, and one kernel
    call scores the (64, 4, 4) stack of pairs. It then moves one angle per
    sweep. Each coordinate m orders the modes as (pair, m, the rest) and
    reads the rest at their current angles, which leaves the 6x6 covariance
    of the pair and m. A sweep takes cos and sin of those angles once,
    builds the k blocks of all k = N - 2 coordinates with k - 1 stacked
    reads and searches each line exactly (:func:`_stationary_angles`): a
    line's best reading is among the 4 roots of a quartic, and one kernel
    call scores the (k, 4) candidates. Only the coordinate with the largest
    gain moves (the first on a tie), and the ascent stops after a sweep
    whose best gain is below 1e-12. A sweep costs 1 stacked kernel call and
    k + 1 reads at any N, so a cluster whose common-angle seed is already
    best, as an unrotated one is, takes 2 kernel calls and 2k + 1 reads
    with the seeds. One unphysical angle in a scored stack raises
    PhysicalityError.
    The conditioned pair is formed from entries of order mu that cancel, so
    the value drifts from :func:`gle_formula` as the cluster is squeezed
    harder, with no error or warning: at N = 4 (eta 0.9, omega 1.1) the gap
    is 6.6e-12 at mu = 1e6, 6.5e-8 at 1e8 and 9.7e-6 at 1e10, and at 1e15
    the value is rounding noise, about 0.46 below the formula.
    """
    state = GaussianState(cluster_cov)
    v = state.cov
    k = state.n_modes - 2
    if k < 0:
        raise ValueError("the GLE needs a pair: the cluster has one mode")
    if not k:
        return max(0.0, float(_pair_logneg(v)))

    # The unclamped objective has no separable plateau, so coordinate moves
    # climb out of angles where the pair is separable; seeding with the best
    # common angle rather than a fixed corner starts near the global optimum.
    seeds = v
    for _ in range(k):
        seeds = _read_last(seeds, *_SEED_READS)
    seed_vals = _pair_logneg(seeds)
    top = seed_vals.argmax()
    thetas = np.full(k, _SEED_ANGLES[top])
    best = float(seed_vals[top])
    rows, cols, reads = _coordinate_index(k)
    blocks = v[rows, cols]
    for _ in range(_GLE_MAX_SWEEPS):
        W = blocks
        angles = thetas[reads].T
        for cos, sin in zip(np.cos(angles), np.sin(angles)):
            W = _read_last(W, cos, sin)
        tops, vals = _line_search(W)
        m = vals.argmax()
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
