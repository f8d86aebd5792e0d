"""The N-port Bell-detection relay and its joint homodyne conditioning.

The relay interferes the N travelling modes through a fixed cascade of
beam splitters with transmissivities T_k = 1 - 1/k (k = 2..N), which is
equivalent to one orthogonal N x N matrix acting identically on the X and P
quadrature vectors; :func:`relay_orthogonal` writes that matrix row by row,
and the tests check it against the cascade built splitter by splitter.
Port 1 is homodyned in P, ports 2..N in X. That measurement depends on N
alone, so :func:`build_relay` builds its readout matrix once per N.
Broadcasting the readouts lets each user cancel the conditional
displacement locally, so the state left on the kept modes is fixed by its
covariance alone.

``bell_detect`` conditions the kept modes on all N readouts at once, in one
Schur complement built from the copies' 2 x 2 blocks, with no register of
all 2N modes. The tests check it against an independent register route that
reads one quadrature at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .gaussian import GaussianState, _as_index

__all__ = [
    "ClusterBlocks",
    "build_relay",
    "relay_orthogonal",
    "bell_detect",
    "cluster_closed_form",
    "sum_p_variance",
    "diff_x_variance",
]


def _as_size(n, minimum: int, name: str) -> int:
    """``n`` as an int >= ``minimum``, an integral float such as 4.0 read as 4.

    Anything else, NaN and infinities included, raises ValueError.
    """
    if not (math.isfinite(n) and n == int(n) and n >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return int(n)


def relay_orthogonal(n_users: int) -> np.ndarray:
    """Mode-mixing matrix of the relay, written row by row.

    Row 1 is the uniform vector (1/sqrt(N), ..., 1/sqrt(N)); row k for
    k = 2..N is sqrt(1 - 1/k) * (e_k - (k-1)^{-1} sum_{i<k} e_i). N must be
    an integer >= 2 (4.0 reads as 4).
    """
    N = _as_size(n_users, 2, "n_users")
    U = np.zeros((N, N))
    U[0, :] = 1.0 / np.sqrt(N)
    for k in range(2, N + 1):
        row = np.zeros(N)
        row[k - 1] = 1.0
        row[: k - 1] = -1.0 / (k - 1)
        U[k - 1, :] = np.sqrt(1.0 - 1.0 / k) * row
    return U


def build_relay(n_users: int) -> np.ndarray:
    """The relay's one Bell detection on ``n_users`` ports, built once per N (4.0 reads as 4).

    The relay mixes the N sent modes with :func:`relay_orthogonal` and
    homodynes P on port 0 and X on ports 1..N-1. The read-only 2N x N
    readout matrix W^T returned here holds, in column j, readout j's weights
    on the sent quadratures (X_1, P_1, ..., X_N, P_N), so one matrix serves
    every detection of its N, however N is written.
    """
    return _readout_matrix(_as_size(n_users, 2, "n_users"))


@cache
def _readout_matrix(N: int) -> np.ndarray:
    """:func:`build_relay`'s matrix for an int N >= 2, cached per N."""
    U = relay_orthogonal(N)
    # W^T, indexed (copy k, quadrature of A_k, readout j) until reshaped:
    # readout 0 is P of port 0, readout j >= 1 is X of port j
    wt = np.zeros((N, 2, N))
    wt[:, 1, 0] = U[0]
    wt[:, 0, 1:] = U[1:].T
    wt = wt.reshape(2 * N, N)
    wt.flags.writeable = False
    return wt


#: A measured readout whose conditional variance falls below this is degenerate.
_MIN_READOUT_VARIANCE = 1e-12
_DEGENERATE = "measured quadrature variance is numerically degenerate"


def bell_detect(copies, plan: np.ndarray):
    """Run the multipartite Bell detection on N two-mode copies.

    Each copy is a state on modes (A, B) with A the mode sent to the relay;
    write its covariance as [[a_k, c_k], [c_k^T, b_k]]. The relay mixes the
    A modes by U = :func:`relay_orthogonal`, then reads P of port 0 (readout
    0) and X of port j (readout j, j = 1..N-1): row j of W holds U[j, k] on
    that quadrature of A_k, and ``plan`` is W^T as :func:`build_relay`
    returns it; N is read from its shape. The readouts then have covariance
    M = W blockdiag(a_k) W^T and cross covariance C = blockdiag(c_k)^T W^T
    with the kept modes (B1..BN), whose own covariance is V_B = blockdiag(b_k).
    One Schur complement conditions on all readouts jointly,
    cov -> V_B - C M^-1 C^T, evaluated through the Cholesky factor
    M = L L^T and one solve G = L^-1 C^T as V_B - G^T G. No 4N-dimensional
    register is formed, and no readout value enters: the users undo the
    conditional displacement locally. The squared pivots of L are the
    readouts' conditional variances, measured one after another in port
    order (their product is det M); one below _MIN_READOUT_VARIANCE, or an
    M that is not positive definite, raises ValueError. Only the returned
    state is validated.

    Returns ``(state, readout_variances)``: the conditional N-mode state on
    (B1..BN), and those N variances in port order.
    """
    copies = list(copies)
    N = plan.shape[1]
    if len(copies) != N:
        raise ValueError("number of copies does not match the relay plan")
    for c in copies:
        if c.n_modes != 2:
            raise ValueError("each copy must have exactly two modes (A, B)")

    covs = np.array([c.cov for c in copies])
    # rows (a_k; c_k^T) of each copy times W_k^T, its (2, N) slice: the
    # readouts' covariance with A_k (to be summed over k into M) and with B_k
    # (C's rows)
    y = covs[:, :, :2] @ plan.reshape(N, 2, N)
    try:
        L = np.linalg.cholesky(plan.T @ y[:, :2].reshape(2 * N, N))
    except np.linalg.LinAlgError:
        raise ValueError(_DEGENERATE) from None
    variances = np.diagonal(L) ** 2
    if variances.min() < _MIN_READOUT_VARIANCE:
        raise ValueError(_DEGENERATE)

    # numpy has no triangular solver; N is small, so a general solve on L is cheap
    G = np.linalg.solve(L, y[:, 2:].reshape(2 * N, N).T)
    v_b = np.zeros((N, 2, N, 2))
    v_b[np.arange(N), :, np.arange(N), :] = covs[:, 2:, 2:]
    return GaussianState(v_b.reshape(2 * N, 2 * N) - G.T @ G), variances


@dataclass(frozen=True)
class ClusterBlocks:
    """The (V', C') block pair of the closed-form output state."""

    n_users: int
    v_prime: np.ndarray
    c_prime: np.ndarray

    def assemble(self) -> np.ndarray:
        """Full 2N x 2N covariance: V' on the diagonal, C' everywhere else."""
        N = self.n_users
        cov = np.empty((2 * N, 2 * N))
        blocks = cov.reshape(N, 2, N, 2)
        blocks[...] = self.c_prime[:, None, :]
        blocks[np.arange(N), :, np.arange(N), :] = self.v_prime
        return cov


def cluster_closed_form(x: float, y: float, z: float, n_users: int) -> ClusterBlocks:
    """Closed-form conditional covariance of the N kept modes.

    For identical copies in the (x, y, z) normal form the output has
    V' = diag(y - (N-1) z^2 / (N x), y - z^2 / (N x)) on the diagonal and
    C' = (z^2 / (N x)) * diag(1, -1) between any two modes. x, y and z must
    be finite with x > 0, and n_users an integer >= 2 (4.0 reads as 4).
    """
    N = _as_size(n_users, 2, "n_users")
    if not (x > 0 and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("x, y and z must be finite and x positive")
    w = z * z / (N * x)
    v_prime = np.diag([y - (N - 1) * w, y - w])
    c_prime = np.diag([w, -w])
    return ClusterBlocks(n_users=N, v_prime=v_prime, c_prime=c_prime)


def sum_p_variance(cov: np.ndarray) -> float:
    """Var of the total momentum sum_k P_k of an N-mode covariance matrix."""
    n = cov.shape[0] // 2
    u = np.zeros(2 * n)
    u[1::2] = 1.0
    return float(u @ cov @ u)


def diff_x_variance(cov: np.ndarray, i: int, j: int) -> float:
    """Var of the relative position X_i - X_j; an index outside range(N) raises IndexError."""
    n = cov.shape[0] // 2
    i, j = (_as_index(m, n) for m in (i, j))
    u = np.zeros(2 * n)
    u[2 * i] += 1.0
    u[2 * j] -= 1.0
    return float(u @ cov @ u)
