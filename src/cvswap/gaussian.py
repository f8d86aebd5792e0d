"""Core covariance-matrix toolbox for Gaussian continuous-variable states.

Conventions used throughout the package:

* hbar = 2, so the vacuum covariance matrix is the identity.
* Quadratures are interleaved, (X1, P1, X2, P2, ...).
* Commutators are [xi_l, xi_m] = 2i * Omega_lm with Omega the symplectic form
  built from 2x2 blocks [[0, 1], [-1, 0]].
* Logarithms are natural.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "PhysicalityError",
    "GaussianState",
    "symplectic_form",
    "symplectic_eigenvalues",
    "min_symplectic_eigenvalue",
    "is_symplectic",
    "partial_transpose",
    "log_negativity",
    "apply_symplectic",
    "displace",
    "tensor",
    "reduce",
    "vacuum",
    "rotation",
    "two_mode_standard_form",
]

#: States whose smallest symplectic eigenvalue drops below 1 - BONA_FIDE_TOL
#: are rejected; anything inside the band is accepted as numerical noise.
BONA_FIDE_TOL = 1e-9

#: Tolerance used when pairing the +/- eigenvalues of Omega V.
_PAIRING_TOL = 1e-8


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty principle."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, a direct sum of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    k = np.arange(n_modes)
    omega.reshape(n_modes, 2, n_modes, 2)[k, :, k, :] = [[0.0, 1.0], [-1.0, 0.0]]
    return omega


def is_symplectic(S: np.ndarray, tol: float = 1e-10) -> bool:
    """Check S Omega S^T = Omega to within ``tol`` (max-abs)."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        return False
    omega = symplectic_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ omega @ S.T - omega)) <= tol)


def _require_symmetric(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    scale = max(1.0, np.max(np.abs(cov)))
    if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
        raise ValueError("covariance matrix is not symmetric")
    # Symmetrize exactly so downstream linear algebra sees a clean input.
    return 0.5 * (cov + cov.T)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson spectrum of a symmetric positive-definite covariance matrix.

    Computed as the paired magnitudes of the eigenvalues of Omega V (a real
    matrix; the spectrum comes in +/- i nu pairs). Returns the n values in
    ascending order.
    """
    cov = _require_symmetric(cov)
    if np.min(np.linalg.eigvalsh(cov)) <= 0:
        raise ValueError("covariance matrix must be positive-definite")
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ cov)
    mags = np.sort(np.abs(ev))
    # eigenvalues come in +/- pairs: fold and verify the pairing
    nus = 0.5 * (mags[0::2] + mags[1::2])
    spread = np.abs(mags[0::2] - mags[1::2])
    if np.max(spread) > _PAIRING_TOL * max(1.0, float(mags[-1])):
        raise ValueError("could not pair symplectic eigenvalues")
    return nus


def min_symplectic_eigenvalue(cov: np.ndarray) -> float:
    return float(symplectic_eigenvalues(cov)[0])


class GaussianState:
    """A Gaussian state: mean vector + covariance matrix + mode count.

    The constructor validates symmetry and (by default) physicality: every
    symplectic eigenvalue must be >= 1 - 1e-9. Instances are value-like; all
    operations return new states and never mutate their inputs.
    """

    __slots__ = ("n_modes", "mean", "cov")

    def __init__(self, cov, mean=None, check: bool = True):
        cov = _require_symmetric(cov)
        n = cov.shape[0] // 2
        if mean is None:
            mean = np.zeros(2 * n)
        mean = np.asarray(mean, dtype=float).reshape(-1)
        if mean.shape[0] != 2 * n:
            raise ValueError("mean vector length does not match covariance size")
        if check:
            nu_min = min_symplectic_eigenvalue(cov)
            if nu_min < 1.0 - BONA_FIDE_TOL:
                raise PhysicalityError(
                    f"state is not bona fide: min symplectic eigenvalue {nu_min!r}"
                )
        self.n_modes = n
        self.mean = mean
        self.cov = cov

    def __repr__(self):
        return f"GaussianState(n_modes={self.n_modes})"

    def symplectic_eigenvalues(self) -> np.ndarray:
        return symplectic_eigenvalues(self.cov)

    def is_bona_fide(self, tol: float = BONA_FIDE_TOL) -> bool:
        return min_symplectic_eigenvalue(self.cov) >= 1.0 - tol

    # --- serialization (CLI interchange) -------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_modes": self.n_modes,
                "mean": self.mean.tolist(),
                "cov": self.cov.reshape(-1).tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GaussianState":
        doc = json.loads(text)
        n = int(doc["n_modes"])
        cov = np.array(doc["cov"], dtype=float).reshape(2 * n, 2 * n)
        return cls(cov, np.array(doc["mean"], dtype=float))


def vacuum(n_modes: int) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes))


def rotation(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation (a symplectic 2x2 matrix)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def partial_transpose(cov: np.ndarray, partition) -> np.ndarray:
    """Flip the sign of P on every mode in ``partition`` (an involution)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    signs = np.ones(2 * n)
    for m in partition:
        if not 0 <= m < n:
            raise IndexError(f"mode index {m} out of range")
        signs[2 * m + 1] = -1.0
    F = np.diag(signs)
    return F @ cov @ F


def log_negativity(state: GaussianState, partition) -> float:
    """Logarithmic negativity across ``partition`` | rest.

    Partial-transposes the modes in ``partition``, takes the symplectic
    eigenvalues nu~ of the result and returns sum(max(0, -ln nu~)).
    """
    part = sorted(set(int(m) for m in partition))
    if not part or len(part) >= state.n_modes:
        raise ValueError("partition must be a nonempty proper subset of modes")
    nus = symplectic_eigenvalues(partial_transpose(state.cov, part))
    return float(np.sum(np.clip(-np.log(nus), 0.0, None)))


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Map mean -> S mean and cov -> S cov S^T after verifying S is symplectic."""
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S):
        raise ValueError("matrix is not symplectic")
    if S.shape[0] != 2 * state.n_modes:
        raise ValueError("symplectic size does not match state")
    return GaussianState(S @ state.cov @ S.T, S @ state.mean)


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Shift the mean of one mode; the covariance is untouched."""
    if not 0 <= mode < state.n_modes:
        raise IndexError(f"mode index {mode} out of range")
    mean = state.mean.copy()
    mean[2 * mode] += dx
    mean[2 * mode + 1] += dp
    return GaussianState(state.cov, mean, check=False)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Direct sum of means and covariances (a first, then b)."""
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(cov, np.concatenate([a.mean, b.mean]), check=False)


def reduce(state: GaussianState, modes) -> GaussianState:
    """Marginal state on ``modes`` (rows/columns of the others deleted)."""
    keep = [int(m) for m in modes]
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate mode indices")
    for m in keep:
        if not 0 <= m < state.n_modes:
            raise IndexError(f"mode index {m} out of range")
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in keep]).astype(int)
    return GaussianState(state.cov[np.ix_(idx, idx)], state.mean[idx], check=False)


def two_mode_standard_form(cov: np.ndarray):
    """Reduce a two-mode covariance matrix to standard form by local symplectics.

    Returns ``(a, b, c_plus, c_minus, S)`` where S = S_1 (+) S_2 is symplectic
    and S cov S^T = [[a I, C], [C^T, b I]] with C = diag(c_plus, c_minus),
    c_plus >= |c_minus| and sign(c_minus) = sign(det of the input cross block).
    """
    cov = _require_symmetric(cov)
    if cov.shape[0] != 4:
        raise ValueError("standard form is defined for two-mode states")
    A, B, C = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]

    def _whiten(block):
        s = np.sqrt(np.linalg.det(block))
        L = np.linalg.cholesky(block)
        return s, np.sqrt(s) * np.linalg.inv(L)  # det = 1, hence symplectic

    a, SA = _whiten(A)
    b, SB = _whiten(B)
    C1 = SA @ C @ SB.T
    U, sig, Wt = np.linalg.svd(C1)
    # force proper rotations so the diagonal blocks stay a*I, b*I
    du, dw = np.linalg.det(U), np.linalg.det(Wt)
    U[:, 1] *= np.sign(du) if du != 0 else 1.0
    Wt[1, :] *= np.sign(dw) if dw != 0 else 1.0
    RA, RB = U.T, Wt
    Cd = RA @ C1 @ RB.T
    c_plus, c_minus = float(Cd[0, 0]), float(Cd[1, 1])
    if abs(c_minus) > abs(c_plus):  # keep the dominant correlation on X
        J = rotation(np.pi / 2.0)
        RA, RB = J @ RA, J @ RB
        Cd = RA @ C1 @ RB.T
        c_plus, c_minus = float(Cd[0, 0]), float(Cd[1, 1])
    if c_plus < 0:  # overall sign freedom: rotate one side by pi
        RA = rotation(np.pi) @ RA
        c_plus, c_minus = -c_plus, -c_minus
    S = np.zeros((4, 4))
    S[:2, :2] = RA @ SA
    S[2:, 2:] = RB @ SB
    return float(a), float(b), c_plus, c_minus, S
