"""Linearized cavity optomechanics: steady states feeding the swap relay.

One building block is a single-mode cavity coupled to a mechanical
oscillator by the standard linearized radiation-pressure interaction
(Vitali et al., PRL 98, 030405 (2007) and the review literature). All
rates are stored in angular units (rad/s); the Langevin drift/diffusion
pair is normalized by omega_m before the Lyapunov solve so the linear
algebra runs on O(1) numbers.

Fluctuation ordering inside the solver is (q, p, X, P) — mechanics first;
the returned two-mode state is reordered to (cavity, mechanics) so the
cavity plays the travelling role expected by the relay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import GaussianState, _standard_form, log_negativity, reduce as reduce_state
from .relay import _as_size, bell_detect, build_relay

__all__ = [
    "OptomechParams",
    "standard_params",
    "mean_occupation",
    "drift_diffusion",
    "is_stable",
    "steady_state_cm",
    "mechanical_cluster",
    "detuning_sweep",
]

# Exact SI values of the 2019 redefinition.
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23

STABILITY_MARGIN = 1e-12
_RESIDUAL_LIMIT = 1e-8


def mean_occupation(omega_m: float, temp: float) -> float:
    """Bose-Einstein phonon occupation of a bath at temperature ``temp`` (K).

    Finite and >= 0 at every finite temp >= 0: it falls to the smallest
    floats, then to exactly 0.0, as temp goes to 0.
    """
    # chained comparisons, so NaN fails them as inf does
    if not 0 < omega_m < math.inf:
        raise ValueError("omega_m must be positive and finite")
    if not 0 <= temp < math.inf:
        raise ValueError("temperature must be non-negative and finite")
    kt = k_B * temp
    if kt == 0.0:  # T = 0, or a T so small that k_B T underflows
        return 0.0
    x = hbar * omega_m / kt
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:  # e^x beyond the float range: 1 / (e^x - 1) is e^-x
        return math.exp(-x)


@dataclass(frozen=True)
class OptomechParams:
    """Rates of one optomechanical block, all in rad/s; temp in kelvin.

    ``delta`` is the effective cavity detuning and may take any sign;
    ``g_eff`` is the effective (drive-enhanced) coupling and may be zero,
    which decouples the block into thermal mechanics x vacuum cavity. Every
    field must be finite; NaN is refused.
    """

    omega_m: float
    gamma_m: float
    kappa: float
    delta: float
    g_eff: float
    temp: float

    def __post_init__(self):
        # chained comparisons, so NaN fails them as inf does
        if not all(0 < rate < math.inf for rate in (self.omega_m, self.gamma_m, self.kappa)):
            raise ValueError("omega_m, gamma_m and kappa must be positive and finite")
        if not -math.inf < self.delta < math.inf:
            raise ValueError("delta must be finite")
        if not 0 <= self.g_eff < math.inf:
            raise ValueError("g_eff must be non-negative and finite")
        if not 0 <= self.temp < math.inf:
            raise ValueError("temperature must be non-negative and finite")

    @property
    def n_bar(self) -> float:
        return mean_occupation(self.omega_m, self.temp)

    def with_delta(self, delta: float) -> "OptomechParams":
        return replace(self, delta=delta)


def standard_params(
    g_eff: float = 2 * np.pi * 8e6,
    kappa_convention: str = "angular",
    temp: float = 0.4e-3,
) -> OptomechParams:
    """Representative membrane-in-cavity parameters.

    gamma_m/2pi = 100 Hz, omega_m/2pi = 10 MHz, T = 0.4 mK. The cavity
    linewidth is quoted as 31.4 MHz, which reads either as an angular rate
    (kappa = 3.14e7 rad/s, i.e. about 2pi x 5 MHz) or as an ordinary
    frequency (kappa = 2pi x 31.4e6 rad/s); both are supported and the
    angular reading is the default. The detuning is delta = omega_m; move it
    with :meth:`OptomechParams.with_delta`.
    """
    omega_m = 2 * np.pi * 10e6
    if kappa_convention == "angular":
        kappa = 3.14e7
    elif kappa_convention == "ordinary":
        kappa = 2 * np.pi * 31.4e6
    else:
        raise ValueError("kappa_convention must be 'angular' or 'ordinary'")
    return OptomechParams(
        omega_m=omega_m,
        gamma_m=2 * np.pi * 100.0,
        kappa=kappa,
        delta=omega_m,
        g_eff=g_eff,
        temp=temp,
    )


def drift_diffusion(p: OptomechParams) -> tuple[np.ndarray, np.ndarray]:
    """Langevin drift A and diffusion D in (q, p, X, P) ordering.

    The diffusion normalization is pinned by the decoupled limit: at
    g_eff = 0 the steady state must be exactly diag(2n+1, 2n+1, 1, 1)
    (thermal mechanics, vacuum cavity) in these hbar = 2 units.
    """
    w, g, k, d, gm = p.omega_m, p.g_eff, p.kappa, p.delta, p.gamma_m
    A = np.array(
        [
            [0.0, w, 0.0, 0.0],
            [-w, -gm, g, 0.0],
            [0.0, 0.0, -k, d],
            [g, 0.0, -d, -k],
        ]
    )
    nb = p.n_bar
    D = np.diag([0.0, 2.0 * gm * (2.0 * nb + 1.0), 2.0 * k, 2.0 * k])
    return A, D


def is_stable(A: np.ndarray) -> bool:
    """True iff every eigenvalue of the 4 x 4 drift A has Re < -STABILITY_MARGIN ||A||_F.

    The Routh-Hurwitz test (Vitali et al., PRL 98, 030405 (2007)), in
    Python floats with no eigensolve. A is scaled by a power of two so that
    its largest |entry| lies in [1/2, 1), which is exact and scales the
    margin with it, so no coefficient below overflows or underflows. Shifted by
    sigma = STABILITY_MARGIN ||A||_F, M = A + sigma I has every Re lambda < 0
    iff A has every Re lambda < -sigma, and the quartic
    det(lambda I - M) = lambda^4 + c1 lambda^3 + c2 lambda^2 + c3 lambda + c4
    has all its roots there iff c1, c3, c4 > 0, c1 c2 - c3 > 0 and
    (c1 c2 - c3) c3 - c1^2 c4 > 0. Each c_k is (-1)^k times the sum of the
    k x k principal minors of M, written out from the 2 x 2 minors of its
    rows (0, 1) and (2, 3). The zero drift is not stable (c1 = 0). An A that
    is not 4 x 4, or has an entry that is not finite, raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise ValueError("the drift matrix must be 4 x 4")
    entries = A.ravel().tolist()
    scale = -math.frexp(max(map(abs, entries)))[1]
    entries = [math.ldexp(x, scale) for x in entries]
    norm = math.hypot(*entries)
    if not norm < math.inf:  # NaN fails this as inf does
        raise ValueError("the drift matrix must be finite")
    sigma = STABILITY_MARGIN * norm
    # M row by row: (a b c d), (e f g h), (i j k l), (m n o p)
    a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = entries
    a, f, k, p = a + sigma, f + sigma, k + sigma, p + sigma
    # s_xy and t_xy: the 2 x 2 minors on columns (x, y) of rows (0, 1) and of rows (2, 3)
    s01, s02, s03 = a * f - b * e, a * g - c * e, a * h - d * e
    s12, s13, s23 = b * g - c * f, b * h - d * f, c * h - d * g
    t01, t02, t03 = i * n - j * m, i * o - k * m, i * p - l * m
    t12, t13, t23 = j * o - k * n, j * p - l * n, k * p - l * o
    c1 = -(a + f + k + p)
    c2 = s01 + (a * k - c * i) + (a * p - d * m) + (f * k - g * j) + (f * p - h * n) + t23
    c3 = -(
        (s01 * k - s02 * j + s12 * i)  # the principal minors on rows (0, 1, 2)
        + (s01 * p - s03 * n + s13 * m)  # (0, 1, 3)
        + (a * t23 - c * t03 + d * t02)  # (0, 2, 3)
        + (f * t23 - g * t13 + h * t12)  # (1, 2, 3)
    )
    c4 = s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01  # Laplace on rows (0, 1)
    hurwitz_2 = c1 * c2 - c3
    return c1 > 0.0 and c3 > 0.0 and c4 > 0.0 and hurwitz_2 > 0.0 and hurwitz_2 * c3 > c1 * c1 * c4


_I4 = np.eye(4)


def _kron_lyapunov(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve A V + V A^T = -D for 4 x 4 matrices as one 16 x 16 linear system.

    In row-major vec order the equation is K vec(V) = -vec(D) with
    K = A (x) I + I (x) A, built by broadcasting:
    K[i, j, k, l] = A[i, k] delta_jl + delta_ik A[j, l].
    """
    K = A[:, None, :, None] * _I4[None, :, None, :] + _I4[:, None, :, None] * A[None, :, None, :]
    return np.linalg.solve(K.reshape(16, 16), -D.reshape(16)).reshape(4, 4)


_CAVITY_FIRST = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])  # (q, p, X, P) -> (X, P, q, p)


def _steady_state(A: np.ndarray, D: np.ndarray, omega_m: float) -> GaussianState:
    """Steady state of a stable drift pair, reordered to (cavity, mechanics).

    ``(A, D)`` is the pair :func:`drift_diffusion` returns, in rad/s, and A
    must be stable. Solves A V + V A^T = -D with both divided by
    ``omega_m`` (the solution is invariant under the common rescaling),
    symmetrizes V, raises RuntimeError if the relative residual exceeds
    _RESIDUAL_LIMIT, and validates the reordered state.
    """
    An = A / omega_m
    Dn = D / omega_m
    V = _kron_lyapunov(An, Dn)
    V = 0.5 * (V + V.T)
    residual = np.max(np.abs(An @ V + V @ An.T + Dn)) / np.max(np.abs(Dn))
    if residual > _RESIDUAL_LIMIT:
        raise RuntimeError(f"Lyapunov solver residual {residual:.3e} exceeds {_RESIDUAL_LIMIT}")
    return GaussianState(V[_CAVITY_FIRST])


def steady_state_cm(p: OptomechParams) -> GaussianState:
    """Steady-state two-mode covariance, reordered to (cavity, mechanics).

    An unstable drift raises ValueError; the solve (:func:`_steady_state`)
    checks its residual against 1e-8 relative and validates the state.
    """
    A, D = drift_diffusion(p)
    if not is_stable(A):
        raise ValueError("drift matrix is not stable; no steady state exists")
    return _steady_state(A, D, p.omega_m)


def _relay_copy(single: GaussianState) -> GaussianState:
    """The state each block hands the relay: ``single`` in two-mode standard form.

    The copy is built from the four invariants of :func:`_standard_form`
    alone, so it is exactly [[a I, C], [C, b I]] with C = diag(c_plus,
    c_minus), zeros included, and no local symplectic or matrix product is
    formed. The validated state's covariance is already symmetric, so its
    standard form is taken without a second symmetry check; the copy is
    validated as any state is.
    """
    a, b, c_plus, c_minus = _standard_form(single.cov)
    return GaussianState(
        [[a, 0.0, c_plus, 0.0], [0.0, a, 0.0, c_minus], [c_plus, 0.0, b, 0.0], [0.0, c_minus, 0.0, b]]
    )


def _swap_blocks(copy: GaussianState, n_users: int):
    """Bell-detect ``n_users`` copies of one block: (mechanical state, pairwise E)."""
    cluster, _ = bell_detect([copy] * n_users, build_relay(n_users))
    return cluster, log_negativity(reduce_state(cluster, [0, 1]), [0])


def mechanical_cluster(p: OptomechParams, n_users: int) -> tuple[GaussianState, float]:
    """Swap N identical optomechanical blocks into an N-mode mechanical state.

    Each block contributes its cavity mode to the relay and keeps its
    mechanical mode. Each copy is first taken (by local operations on cavity
    and mechanics separately) to two-mode standard form, built from its four
    invariants, which aligns the correlated quadratures with the relay's
    fixed measurement pattern.
    Returns the mechanical state and the pairwise log-negativity between
    the first two mechanics.
    """
    return _swap_blocks(_relay_copy(steady_state_cm(p)), n_users)


def detuning_sweep(base: OptomechParams, deltas, n_users=(2, 3, 4, 5)):
    """Scan detuning and cluster size; yields one row per (delta, N).

    Rows are (delta / omega_m, N, E_in optical-mechanical, E pairwise
    mechanical, stable flag). Unstable points carry NaN entanglement
    entries and flag 0. Every N must be an integer >= 2 (an integral float
    such as 2.0 is read as that integer); anything else raises ValueError
    before any point is computed.
    """
    sizes = [_as_size(n, 2, "cluster size") for n in n_users]
    rows = []
    for delta in deltas:
        p = base.with_delta(float(delta))
        A, D = drift_diffusion(p)
        if not is_stable(A):
            for n in sizes:
                rows.append((p.delta / p.omega_m, n, float("nan"), float("nan"), 0))
            continue
        state = _steady_state(A, D, p.omega_m)
        e_in = log_negativity(state, [0])
        copy = _relay_copy(state)
        for n in sizes:
            _, e_pair = _swap_blocks(copy, n)
            rows.append((p.delta / p.omega_m, n, e_in, e_pair, 1))
    return rows
