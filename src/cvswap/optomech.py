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

from .gaussian import (
    GaussianState,
    apply_symplectic,
    log_negativity,
    reduce as reduce_state,
    two_mode_standard_form,
)
from .relay import bell_detect, build_relay

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

# Exact SI values (identical to scipy.constants); scipy itself is imported only
# by the Lyapunov solves, so importing cvswap does not load it.
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23

STABILITY_MARGIN = 1e-12
_RESIDUAL_LIMIT = 1e-8


def mean_occupation(omega_m: float, temp: float) -> float:
    """Bose-Einstein phonon occupation of a bath at temperature ``temp`` (K)."""
    if omega_m <= 0:
        raise ValueError("omega_m must be positive")
    if temp < 0:
        raise ValueError("temperature must be non-negative")
    if temp == 0:
        return 0.0
    return 1.0 / math.expm1(hbar * omega_m / (k_B * temp))


@dataclass(frozen=True)
class OptomechParams:
    """Rates of one optomechanical block, all in rad/s; temp in kelvin.

    ``delta`` is the effective cavity detuning and may take any sign;
    ``g_eff`` is the effective (drive-enhanced) coupling and may be zero,
    which decouples the block into thermal mechanics x vacuum cavity.
    """

    omega_m: float
    gamma_m: float
    kappa: float
    delta: float
    g_eff: float
    temp: float

    def __post_init__(self):
        if self.omega_m <= 0 or self.gamma_m <= 0 or self.kappa <= 0:
            raise ValueError("omega_m, gamma_m and kappa must be positive")
        if self.g_eff < 0:
            raise ValueError("g_eff must be non-negative")
        if self.temp < 0:
            raise ValueError("temperature must be non-negative")

    @property
    def n_bar(self) -> float:
        return mean_occupation(self.omega_m, self.temp)

    def with_delta(self, delta: float) -> "OptomechParams":
        return replace(self, delta=delta)


def standard_params(
    delta: float | None = None,
    g_eff: float = 2 * np.pi * 8e6,
    kappa_convention: str = "angular",
    temp: float = 0.4e-3,
) -> OptomechParams:
    """Representative membrane-in-cavity parameters.

    gamma_m/2pi = 100 Hz, omega_m/2pi = 10 MHz, T = 0.4 mK. The cavity
    linewidth is quoted as 31.4 MHz, which reads either as an angular rate
    (kappa = 3.14e7 rad/s, i.e. about 2pi x 5 MHz) or as an ordinary
    frequency (kappa = 2pi x 31.4e6 rad/s); both are supported and the
    angular reading is the default. ``delta`` defaults to omega_m.
    """
    omega_m = 2 * np.pi * 10e6
    if kappa_convention == "angular":
        kappa = 3.14e7
    elif kappa_convention == "ordinary":
        kappa = 2 * np.pi * 31.4e6
    else:
        raise ValueError("kappa_convention must be 'angular' or 'ordinary'")
    if delta is None:
        delta = omega_m
    return OptomechParams(
        omega_m=omega_m,
        gamma_m=2 * np.pi * 100.0,
        kappa=kappa,
        delta=delta,
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
    """True iff every drift eigenvalue sits strictly in the left half plane."""
    A = np.asarray(A, dtype=float)
    scale = np.linalg.norm(A, 2)
    if scale == 0.0:
        return False
    return bool(np.max(np.linalg.eigvals(A).real) < -STABILITY_MARGIN * scale)


def _solve_lyapunov(p: OptomechParams) -> tuple[np.ndarray, float]:
    """Normalized solve of A V + V A^T = -D: (V in (q, p, X, P) order, relative residual)."""
    from scipy.linalg import solve_continuous_lyapunov

    A, D = drift_diffusion(p)
    An = A / p.omega_m
    Dn = D / p.omega_m
    V = solve_continuous_lyapunov(An, -Dn)
    V = 0.5 * (V + V.T)
    return V, float(np.max(np.abs(An @ V + V @ An.T + Dn)) / np.max(np.abs(Dn)))


def steady_state_cm(p: OptomechParams) -> GaussianState:
    """Steady-state two-mode covariance, reordered to (cavity, mechanics).

    Solves A V + V A^T = -D with the rates normalized by omega_m (the
    solution is invariant under the common rescaling), checks the residual
    against 1e-8 relative, and asserts the result is a bona fide state.
    """
    A, _ = drift_diffusion(p)
    if not is_stable(A):
        raise ValueError("drift matrix is not stable; no steady state exists")
    return _stable_steady_state(p)


def _stable_steady_state(p: OptomechParams) -> GaussianState:
    """``steady_state_cm`` for parameters already known to be stable."""
    V, residual = _solve_lyapunov(p)
    if residual > _RESIDUAL_LIMIT:
        raise RuntimeError(f"Lyapunov solver residual {residual:.3e} exceeds {_RESIDUAL_LIMIT}")
    order = [2, 3, 0, 1]  # (q, p, X, P) -> (X, P, q, p)
    return GaussianState(V[np.ix_(order, order)])


def lyapunov_residual(p: OptomechParams) -> float:
    """Max-abs residual of the normalized Lyapunov solve, relative to ||D||."""
    return _solve_lyapunov(p)[1]


def _swap_blocks(single: GaussianState, n_users: int, local_preprocessing: bool):
    """``mechanical_cluster`` on a solved single-block state."""
    if local_preprocessing:
        _, _, _, _, S = two_mode_standard_form(single.cov)
        single = apply_symplectic(single, S)
    cluster, _ = bell_detect([single] * n_users, build_relay(n_users))
    return cluster, log_negativity(reduce_state(cluster, [0, 1]), [0])


def mechanical_cluster(
    p: OptomechParams,
    n_users: int,
    local_preprocessing: bool = True,
) -> tuple[GaussianState, float]:
    """Swap N identical optomechanical blocks into an N-mode mechanical state.

    Each block contributes its cavity mode to the relay and keeps its
    mechanical mode. With ``local_preprocessing`` each copy is first rotated
    (locally on cavity and mechanics separately) into two-mode standard
    form, aligning the correlated quadratures with the relay's fixed
    measurement pattern. Returns the mechanical state and the pairwise
    log-negativity between the first two mechanics.
    """
    return _swap_blocks(steady_state_cm(p), n_users, local_preprocessing)


def detuning_sweep(
    base: OptomechParams,
    deltas,
    n_users=(2, 3, 4, 5),
    local_preprocessing: bool = True,
):
    """Scan detuning and cluster size; yields one row per (delta, N).

    Rows are (delta / omega_m, N, E_in optical-mechanical, E pairwise
    mechanical, stable flag). Unstable points carry NaN entanglement
    entries and flag 0.
    """
    rows = []
    for delta in deltas:
        p = base.with_delta(float(delta))
        A, _ = drift_diffusion(p)
        if not is_stable(A):
            for n in n_users:
                rows.append((p.delta / p.omega_m, int(n), float("nan"), float("nan"), 0))
            continue
        state = _stable_steady_state(p)
        e_in = log_negativity(state, [0])
        for n in n_users:
            _, e_pair = _swap_blocks(state, int(n), local_preprocessing)
            rows.append((p.delta / p.omega_m, int(n), e_in, e_pair, 1))
    return rows
