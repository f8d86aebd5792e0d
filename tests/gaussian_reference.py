"""Test-side references for the Gaussian core.

``williamson_eigvals`` is a three-pass Williamson route: a positive-definite
pre-check, the nonsymmetric eigenvalues of Omega V and a fold of their
+/- i nu pairs. Apart from the input check and Omega it shares no step
with the package's Cholesky-Hermitian ``symplectic_eigenvalues``, which the
tests check against it. ``omega_product_eigvals`` is the package's route
as it was before Omega stopped being built: the same Cholesky and
``eigvalsh``, with L^T Omega L formed by multiplying by ``symplectic_form``;
the package must match it bit for bit. ``tensor`` builds direct sums for
test setup.
"""

import numpy as np

from cvswap.gaussian import GaussianState, _require_symmetric, symplectic_form


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


def omega_product_eigvals(cov):
    """Upper half of eigvalsh(i L^T Omega L), V = L L^T, with Omega built and multiplied."""
    L = np.linalg.cholesky(_require_symmetric(cov))
    n = L.shape[0] // 2
    return np.linalg.eigvalsh(1j * (L.T @ symplectic_form(n) @ L))[n:]


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Direct sum of means and covariances (a first, then b)."""
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(cov, np.concatenate([a.mean, b.mean]), check=False)
