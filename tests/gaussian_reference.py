"""Test-side references for the Gaussian core.

``williamson_eigvals`` is a three-pass Williamson route: a positive-definite
pre-check, the nonsymmetric eigenvalues of Omega V and a fold of their
+/- i nu pairs. Apart from the input check and Omega it shares no step
with the package's Cholesky-Hermitian ``symplectic_eigenvalues``, which the
tests check against it. ``omega_product_eigvals`` is the package's route
as it was before Omega stopped being built: the same Cholesky and
``eigvalsh``, with L^T Omega L formed by multiplying by ``symplectic_form``;
the package must match it bit for bit. ``standard_form_per_block`` is
the SVD twin of ``two_mode_standard_form``'s closed-form rotations: one
``det``, ``cholesky`` and ``inv`` call per block, an ``svd`` of the whitened
cross block with its determinant-sign repairs and the two branches that put
the larger correlation on X with a positive sign. The package must match
its (a, b, c_plus, c_minus) and S V S^T to 1e-12 ||V||, not bit for bit; S
itself is not unique when c_plus = |c_minus|.
``tensor`` builds direct sums for test setup, and ``embed_orthogonal``
promotes a passive mode mixer to a symplectic on a whole register: the
register route that the relay's block-wise ``bell_detect`` is checked
against, reading one quadrature at a time with ``read_quadrature``: the
plain rank-one update, which shares no step with the Cholesky and solve of
``bell_detect``. ``relay_from_cascade`` builds the relay's
mode mixer splitter by splitter, the hardware route that the package's
row-by-row ``relay_orthogonal`` is checked against, and
``thermal_loss_map`` is the thermal-loss channel on one mode of any state,
the general route that the package's normal-form ``thermal_loss_on_a`` is
checked against. ``symplectic_form``, ``rotation``, ``is_symplectic``,
``apply_symplectic`` and ``vacuum`` are the symplectic algebra the tests
build and check states with; no package code path calls them. ``unclamped_logneg`` is the
unclamped -ln nu~_min of a partially transposed marginal from the Williamson
spectrum: the matrix-side value of the unclamped network formulas, and the
reference the pairwise and block oracles are checked against.
``reduce_ix`` is ``reduce``'s gather as it was before it became one direct
fancy index: ``np.concatenate`` of each mode's rows, then ``np.ix_``; the
package must gather the same matrix bit for bit.
``partial_transpose`` is the library's partial transpose as it was before
``log_negativity`` read it from the Cholesky factor of V: F V F with F the
diagonal sign matrix built and multiplied, the independent reference the
package's (2, d, d) Williamson stack [L, F L F] is checked against.
``gle_sequential`` is the GLE oracle's coordinate ascent with every
sweep searched one coordinate at a time: each coordinate's block gathered
by ``np.ix_``, read and searched on its own by the package's own
``_read_last`` and ``_line_search``; the package's stacked sweep must
match it bit for bit. ``grid_line_search`` is the GLE oracle's line search
as it was before it became exact: a 64-angle scan of each line, then two
levels of 97-point nested grids within one scan step of its best angle
(``grid_max_linspace``), the twin the exact search is checked against.
``grid_max_linspace`` is a nested-grid search: each level's grid from
``np.linspace`` and its best point and value by ``take_along_axis``, so
its ``f`` must leave the grid intact. ``frontier_linspace`` is
``max_swap_logneg_at_asymmetry`` on one level of it, scoring the grid out
of place; the package's in-place frontier must match it bit for bit, and
raise what it raises. ``lyapunov_residual`` reads the relative residual of
the Lyapunov equation off a steady state the package returned, as the
benchmark's optomech check does, so no private solver step is called.
``eigenvalue_is_stable`` is ``optomech.is_stable`` as it was before it
became a Routh-Hurwitz test: the largest singular value by ``svd`` and the
largest real part by ``eigvals``, with the margin STABILITY_MARGIN ||A||_2.
The package's margin is STABILITY_MARGIN ||A||_F, which is at least as
large, so the two verdicts may differ only where max Re lambda lies between
the two margins; they must agree everywhere else.
"""

import math

import numpy as np

from cvswap.analysis import _GLE_GRID, _GLE_TOL, _line_search, _pair_logneg, _read_last
from cvswap.gaussian import (
    GaussianState,
    _require_symmetric,
    symplectic_eigenvalues,
)
from cvswap.optomech import STABILITY_MARGIN, drift_diffusion
from cvswap.sources import _FRONTIER_GRID, _GRID_POINTS, _feasible_x_range


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, a direct sum of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    k = np.arange(n_modes)
    omega.reshape(n_modes, 2, n_modes, 2)[k, :, k, :] = [[0.0, 1.0], [-1.0, 0.0]]
    return omega


def rotation(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation (a symplectic 2x2 matrix)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def is_symplectic(S: np.ndarray, tol: float = 1e-10) -> bool:
    """Check S Omega S^T = Omega to within ``tol`` (max-abs)."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        return False
    omega = symplectic_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ omega @ S.T - omega)) <= tol)


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Map cov -> S cov S^T after verifying S is symplectic."""
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S):
        raise ValueError("matrix is not symplectic")
    if S.shape[0] != 2 * state.n_modes:
        raise ValueError("symplectic size does not match state")
    return GaussianState(S @ state.cov @ S.T)


def vacuum(n_modes: int) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes))


def williamson_eigvals(cov):
    """Ascending symplectic eigenvalues as the paired magnitudes of eig(Omega V)."""
    cov = _require_symmetric(cov)
    if np.min(np.linalg.eigvalsh(cov)) <= 0:
        raise ValueError("covariance matrix must be positive-definite")
    n = cov.shape[0] // 2
    mags = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ cov)))
    # eigenvalues come in +/- pairs: fold and verify the pairing
    spread = np.abs(mags[0::2] - mags[1::2])
    if np.max(spread) > 1e-8 * max(1.0, float(mags[-1])):
        raise ValueError("could not pair symplectic eigenvalues")
    return 0.5 * (mags[0::2] + mags[1::2])


def partial_transpose(cov, partition) -> np.ndarray:
    """F V F: flip the sign of P on every mode in ``partition`` (an involution)."""
    cov = np.asarray(cov, dtype=float)
    signs = np.ones(cov.shape[0])
    for m in partition:
        signs[2 * int(m) + 1] = -1.0
    F = np.diag(signs)
    return F @ cov @ F


def reduce_ix(cov, modes) -> np.ndarray:
    """The marginal covariance on ``modes`` as ``reduce`` once gathered it: ``np.concatenate``, then ``np.ix_``."""
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)
    return np.asarray(cov)[np.ix_(idx, idx)]


def unclamped_logneg(cov, group_a, group_b):
    """-ln nu~_min of the (group_a, group_b) marginal of ``cov`` with group_a partially transposed.

    Negative where the groups are separable, by that margin. The
    log-negativity is max(0, this) whenever at most one nu~ lies below 1, as
    for any physical pair.
    """
    group_a, group_b = list(group_a), list(group_b)
    idx = [2 * m + q for m in group_a + group_b for q in (0, 1)]
    marginal = np.asarray(cov, dtype=float)[np.ix_(idx, idx)]
    nus = symplectic_eigenvalues(partial_transpose(marginal, range(len(group_a))))
    return float(-np.log(nus[0]))


def omega_product_eigvals(cov):
    """Upper half of eigvalsh(i L^T Omega L), V = L L^T, with Omega built and multiplied."""
    L = np.linalg.cholesky(_require_symmetric(cov))
    n = L.shape[0] // 2
    return np.linalg.eigvalsh(1j * (L.T @ symplectic_form(n) @ L))[n:]


def standard_form_per_block(cov):
    """(a, b, c_plus, c_minus, S) of a two-mode covariance, whitening block by block."""
    cov = _require_symmetric(cov)
    A, B, C = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]

    def _whiten(block):
        s = np.sqrt(np.linalg.det(block))
        L = np.linalg.cholesky(block)
        return s, np.sqrt(s) * np.linalg.inv(L)  # det = 1, hence symplectic

    a, SA = _whiten(A)
    b, SB = _whiten(B)
    C1 = SA @ C @ SB.T
    U, sig, Wt = np.linalg.svd(C1)
    du, dw = np.linalg.det(U), np.linalg.det(Wt)
    U[:, 1] *= np.sign(du) if du != 0 else 1.0
    Wt[1, :] *= np.sign(dw) if dw != 0 else 1.0
    RA, RB = U.T, Wt
    Cd = RA @ C1 @ RB.T
    c_plus, c_minus = float(Cd[0, 0]), float(Cd[1, 1])
    if abs(c_minus) > abs(c_plus):
        J = rotation(np.pi / 2.0)
        RA, RB = J @ RA, J @ RB
        Cd = RA @ C1 @ RB.T
        c_plus, c_minus = float(Cd[0, 0]), float(Cd[1, 1])
    if c_plus < 0:
        RA = rotation(np.pi) @ RA
        c_plus, c_minus = -c_plus, -c_minus
    S = np.zeros((4, 4))
    S[:2, :2] = RA @ SA
    S[2:, 2:] = RB @ SB
    return float(a), float(b), c_plus, c_minus, S


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Direct sum of covariances (a first, then b)."""
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(cov, check=False)


def read_quadrature(state: GaussianState, mode, quad) -> GaussianState:
    """Homodyne ``quad`` ("X" or "P") of ``mode``, then drop that mode.

    With q the measured quadrature, c = V[:, q] and m = V[q, q]:
    V -> V - c c^T / m, whatever the readout. The other modes keep their
    order; the result is validated.
    """
    q = 2 * mode + (quad == "P")
    c = state.cov[:, q]
    cov = state.cov - np.outer(c, c) / c[q]
    keep = [k for k in range(2 * state.n_modes) if k // 2 != mode]
    return GaussianState(cov[np.ix_(keep, keep)])


def embed_orthogonal(U: np.ndarray, modes, n_modes_total: int) -> np.ndarray:
    """Promote an orthogonal mode-mixer to a symplectic on the full register.

    ``U`` acts identically on the X and the P quadratures of the listed modes
    (orthogonal x identity-per-mode is symplectic); all other modes are left
    alone.
    """
    U = np.asarray(U, dtype=float)
    modes = np.array([int(m) for m in modes], dtype=int)
    if U.shape != (len(modes), len(modes)):
        raise ValueError("matrix size does not match the mode list")
    if len(set(modes.tolist())) != len(modes):
        raise ValueError("duplicate mode indices")
    if np.any((modes < 0) | (modes >= n_modes_total)):
        raise IndexError("mode index out of range")
    S = np.eye(2 * n_modes_total)
    x = 2 * modes
    S[np.ix_(x, x)] = U
    S[np.ix_(x + 1, x + 1)] = U
    return S


def relay_from_cascade(n_users: int) -> np.ndarray:
    """The relay's N x N mode mixer built the way the hardware does it: a beam-splitter chain.

    Splitter k = 2..N, of transmissivity T = 1 - 1/k, acts on (bus, port k)
    as [[sqrt(T), sqrt(1-T)], [-sqrt(1-T), sqrt(T)]]; the bus (slot 1)
    accumulates the uniform combination and the reflected output of
    splitter k is row k.
    """
    U = np.eye(n_users)
    for k in range(2, n_users + 1):
        T = 1.0 - 1.0 / k
        t, r = np.sqrt(T), np.sqrt(1.0 - T)
        bs = np.eye(n_users)
        bs[0, 0] = t
        bs[0, k - 1] = r
        bs[k - 1, 0] = -r
        bs[k - 1, k - 1] = t
        U = bs @ U
    return U


def thermal_loss_map(state: GaussianState, mode: int, eta: float, omega: float) -> GaussianState:
    """Thermal-loss channel of transmissivity ``eta`` and noise variance ``omega`` on one mode.

    Mixing the mode with a thermal environment on a beam splitter scales its
    rows and columns by sqrt(eta) and adds (1 - eta) omega to its diagonal
    block; the result is validated.
    """
    scale = np.ones(2 * state.n_modes)
    scale[2 * mode : 2 * mode + 2] = np.sqrt(eta)
    add = np.zeros(2 * state.n_modes)
    add[2 * mode : 2 * mode + 2] = (1.0 - eta) * omega
    cov = scale[:, None] * state.cov * scale[None, :] + np.diag(add)
    return GaussianState(cov)


def lyapunov_residual(p, state: GaussianState) -> float:
    """max|A V + V A^T + D| / max|D| of ``state``, the steady state of ``p``, rates over omega_m.

    ``state`` is in (cavity, mechanics) order; V is read back in the
    solver's (q, p, X, P) order.
    """
    A, D = drift_diffusion(p)
    order = [2, 3, 0, 1]
    V = state.cov[np.ix_(order, order)]
    An, Dn = A / p.omega_m, D / p.omega_m
    return float(np.max(np.abs(An @ V + V @ An.T + Dn)) / np.max(np.abs(Dn)))


def eigenvalue_is_stable(A) -> bool:
    """True iff every drift eigenvalue sits strictly in the left half plane, by STABILITY_MARGIN ||A||_2."""
    A = np.asarray(A, dtype=float)
    scale = np.linalg.svd(A, compute_uv=False)[0]  # the largest, norm(A, 2)
    if scale == 0.0:
        return False
    return bool(np.max(np.linalg.eigvals(A).real) < -STABILITY_MARGIN * scale)


def gle_sequential(cluster_cov, i: int, j: int, max_sweeps: int) -> float:
    """The GLE of the (i, j) pair by coordinate ascent, one coordinate per line search.

    The same seeds, tolerance and acceptance rule as
    ``cvswap.analysis.gle_numeric``, with at most ``max_sweeps`` sweeps:
    each sweep reads every coordinate's block at the current angles and
    searches its line on its own, then moves the coordinate with the
    largest gain, the first on a tie. The input is symmetrized as
    ``GaussianState`` stores it.
    """
    cov = GaussianState(cluster_cov).cov
    n = cov.shape[0] // 2
    others = [m for m in range(n) if m not in (i, j)]
    order = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1] + [2 * m + q for m in others for q in (0, 1)]
    v = cov[np.ix_(order, order)]

    grid = np.linspace(0.0, np.pi, _GLE_GRID, endpoint=False)
    k = len(others)
    seeds = v
    for _ in range(k):
        seeds = _read_last(seeds, np.cos(grid), np.sin(grid))
    seed_vals = _pair_logneg(seeds)
    thetas = np.full(k, grid[int(np.argmax(seed_vals))])
    best = float(np.max(seed_vals))
    for _ in range(max_sweeps):
        scored = []
        for a in range(k):
            rest = [b for b in range(k) if b != a]
            q = [0, 1, 2, 3] + [4 + 2 * b + s for b in [a] + rest for s in (0, 1)]
            W = v[np.ix_(q, q)]
            for b in reversed(rest):
                W = _read_last(W, np.cos(thetas[b]), np.sin(thetas[b]))
            top, val = _line_search(W[None])
            scored.append((top[0], val[0]))
        a = max(range(k), key=lambda c: scored[c][1])
        gain = float(scored[a][1]) - best
        if gain > 0:
            best = float(scored[a][1])
            thetas[a] = scored[a][0]
        if gain < _GLE_TOL:
            break
    return max(0.0, float(best))


#: The grid line search scans _LINE_GRID angles, then refines by _LINE_LEVELS nested-grid levels.
_LINE_GRID = 64
_LINE_LEVELS = 2


def grid_line_search(W):
    """Best angle and value of each line of a (k, 6, 6) stack of (pair, mode) blocks, by grids.

    Scans _LINE_GRID angles on [0, pi) as one (k, 64) stack, then refines
    within one scan step of each best angle by ``grid_max_linspace``, one
    (k, 97) stack per level; the objective has period pi, so a bracket may
    reach past 0 or pi. The best found lies within the grids' resolution of
    the line's maximum, never above it.
    """
    grid = np.linspace(0.0, np.pi, _LINE_GRID, endpoint=False)
    step = np.pi / _LINE_GRID
    W = W[:, None]
    centres = grid[np.argmax(_pair_logneg(_read_last(W, np.cos(grid), np.sin(grid))), axis=-1)]

    def score(t):
        return _pair_logneg(_read_last(W, np.cos(t), np.sin(t)))

    return grid_max_linspace(score, centres - step, centres + step, _LINE_LEVELS)


def grid_max_linspace(f, lo, hi, levels: int):
    """Nested-grid maximum of f over every bracket [lo, hi]: ``levels`` levels of _GRID_POINTS points.

    Each level scores np.linspace's grid across every bracket, ends
    included, and narrows each bracket to its best point +- one spacing, cut
    back to the bracket itself. Returns the best points and their values.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(levels):
        pts = np.linspace(lo, hi, _GRID_POINTS, axis=-1)
        vals = f(pts)
        k = np.argmax(vals, axis=-1)[..., None]
        best, val = (np.take_along_axis(arr, k, axis=-1)[..., 0] for arr in (pts, vals))
        step = (hi - lo) / (_GRID_POINTS - 1)
        lo, hi = np.maximum(best - step, lo), np.minimum(best + step, hi)
    return best, val


def frontier_linspace(d: float, x_max: float) -> float:
    """The two-user swap frontier at asymmetry d by one level of :func:`grid_max_linspace`, as the package searches it."""
    lo, hi = _feasible_x_range(d, x_max)
    xs = np.linspace(lo, hi, _FRONTIER_GRID)
    ys = xs - 2.0 * d
    x, y = xs[:, None], ys[:, None]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        zm = np.sqrt(np.maximum(xs * ys - 1.0 - np.abs(xs - ys), 0.0))
        _, val = grid_max_linspace(lambda z: -np.log(y - z * z / x), np.zeros(len(xs)), zm, 1)
        best = float(np.max(np.maximum(val, 0.0)))
    if not math.isfinite(best):
        raise FloatingPointError(f"frontier search at d = {d!r}, x_max = {x_max!r} gave {best}")
    return best
