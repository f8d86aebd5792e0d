"""Core covariance-matrix toolbox for Gaussian continuous-variable states.

Conventions used throughout the package:

* hbar = 2, so the vacuum covariance matrix is the identity.
* Quadratures are interleaved, (X1, P1, X2, P2, ...).
* Commutators are [xi_l, xi_m] = 2i * Omega_lm with Omega the symplectic form
  built from 2x2 blocks [[0, 1], [-1, 0]].
* Logarithms are natural.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "PhysicalityError",
    "GaussianState",
    "symplectic_eigenvalues",
    "log_negativity",
    "reduce",
    "two_mode_standard_form",
]

#: States whose smallest symplectic eigenvalue drops below 1 - BONA_FIDE_TOL
#: are rejected; anything inside the band is accepted as numerical noise.
BONA_FIDE_TOL = 1e-9


#: Above this, 0.5 * (a + b) overflows in a + b.
_HALF_MAX = 0.5 * np.finfo(float).max

#: Up to this trace (a stack: this largest entry) no two-mode kernel product
#: can overflow. Past it the kernel scales V by 4^-j, j the least that keeps
#: its largest diagonal entry below 2^500 and its diagonal's product (a bound
#: on det V) below 2^1000, and nu back by 4^j: nu is homogeneous of degree 1,
#: and a power-of-four scale commutes with every rounding in the kernel.
_SCALE_ABOVE = 2.0**250


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty principle."""


def _as_index(m, n: int) -> int:
    """Mode index ``m`` of an n-mode state as an int, an integral float such as 1.0 read as 1.

    A non-integral, NaN or infinite index raises ValueError, one outside
    range(n) IndexError.
    """
    if not (math.isfinite(m) and m == int(m)):
        raise ValueError(f"mode index must be an integer, got {m!r}")
    m = int(m)
    if not 0 <= m < n:
        raise IndexError(f"mode index {m} out of range")
    return m


def _require_symmetric(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    if not cov.size:
        raise ValueError("covariance matrix is empty (0 x 0)")
    # NaN and inf both reach this max; test it before max(1.0, .), which
    # would drop a NaN
    peak = float(abs(cov).max())
    if not math.isfinite(peak):
        raise ValueError("covariance matrix has non-finite entries")
    cov_t = cov.T
    if abs(cov - cov_t).max() > 1e-12 * max(1.0, peak):
        raise ValueError("covariance matrix is not symmetric")
    # Symmetrize exactly so downstream linear algebra sees a clean input;
    # above half the largest double, cov + cov_t would overflow to inf
    if peak > _HALF_MAX:
        return 0.5 * cov + 0.5 * cov_t
    return 0.5 * (cov + cov_t)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson spectrum of a symmetric positive-definite covariance matrix.

    With V = L L^T (Cholesky), L^T Omega L is real antisymmetric and has the
    same eigenvalues as Omega V, +/- i nu; so i L^T Omega L is Hermitian with
    eigenvalues +/- nu, and its upper half is the spectrum (Serafini, Quantum
    Continuous Variables, CRC 2017, ch. 3). Returns the n values in ascending
    order; a matrix that is not positive definite raises PhysicalityError.
    """
    return _williamson(_require_symmetric(cov))


def _williamson(cov: np.ndarray, part=None) -> np.ndarray:
    """:func:`symplectic_eigenvalues` of a matrix that ``_require_symmetric`` returned.

    Given mode indices ``part``, returns the (2, n) spectra of V and of F V F,
    F flipping P on those modes: F L F is the Cholesky factor of F V F, so
    [L, F L F] go through the rest as one stack. Omega has one +-1 per
    column, so L^T Omega is L^T with each column pair (2k, 2k+1) swapped
    and the new even column negated; no Omega is built.
    """
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise PhysicalityError("covariance matrix must be positive-definite") from None
    if part is not None:
        f = np.ones(cov.shape[0])
        f[[2 * m + 1 for m in part]] = -1.0
        # + 0.0 turns the -0 above the diagonal into the +0 numpy's Cholesky leaves there
        L = np.stack([L, f[:, None] * L * f + 0.0])
    n = cov.shape[-1] // 2
    lt = np.swapaxes(L, -1, -2)
    lt_omega = np.empty(lt.shape)  # C order, as the product L^T @ Omega is
    lt_omega[..., 1::2] = lt[..., 0::2]
    np.subtract(0.0, lt[..., 1::2], out=lt_omega[..., 0::2])  # 0 - 0 is +0, as in L^T @ Omega
    return np.linalg.eigvalsh(1j * (lt_omega @ L))[..., n:]


def _spectra(cov: np.ndarray, part=None):
    """(nu_min, E_N) of a symmetric covariance: E_N = sum(max(0, -ln nu~)) across ``part``, or None.

    Two-mode (4x4) matrices go through :func:`_two_mode_spectra` (transposing
    either mode gives the same spectrum); one mode and three or more through
    one Cholesky in :func:`_williamson`, a single eigensolve without ``part``.
    Without ``part`` it serves only the constructor's check, and for one mode
    and three or more only where :func:`_require_bona_fide_cov`'s certificate
    has failed.
    """
    if cov.shape[0] == 4:
        (nu_min, _), pt_nus = _two_mode_spectra(cov)
        return nu_min, None if part is None else sum(max(0.0, -math.log(nu)) for nu in pt_nus)
    if part is None:
        return float(_williamson(cov)[0]), None
    nus, pt_nus = _williamson(cov, part)
    return float(nus[0]), float(np.sum(np.clip(-np.log(pt_nus), 0.0, None)))


@functools.cache
def _certificate_shift(d: int) -> np.ndarray:
    """i (1 - BONA_FIDE_TOL) Omega of dimension d, built once per d and read-only."""
    shift = np.zeros((d, d), dtype=complex)
    even = np.arange(0, d, 2)
    shift[even, even + 1] = 1j * (1.0 - BONA_FIDE_TOL)
    shift[even + 1, even] = -1j * (1.0 - BONA_FIDE_TOL)
    shift.flags.writeable = False
    return shift


def _require_bona_fide_cov(cov: np.ndarray) -> None:
    """The constructor's check of a symmetric covariance: refuse it unless nu_min >= 1 - BONA_FIDE_TOL.

    A pair reads nu_min from the closed-form kernel. Any other size first
    tries one complex Cholesky of V + i c Omega, c = 1 - BONA_FIDE_TOL: the
    Hermitian V + i c Omega is positive semidefinite exactly when nu_min >= c
    (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)), so a factorization that
    succeeds certifies the state with no eigensolve. One that fails (a state
    that is not bona fide, or one so near the edge that rounding decides)
    leaves the verdict to the Williamson spectrum, so every state the
    spectrum accepts is accepted and every refusal keeps the spectrum's
    message. Within rounding of the edge the certificate may accept a state
    the spectrum would refuse; from a norm of about 1e4 on, that rounding
    exceeds BONA_FIDE_TOL on near-pure states for both routes. ``cov`` must
    be finite, as ``_require_symmetric`` leaves it: numpy's Cholesky passes
    a NaN through without raising.
    """
    if cov.shape[0] != 4:
        try:
            np.linalg.cholesky(cov + _certificate_shift(cov.shape[0]))
            return
        except np.linalg.LinAlgError:
            pass
    _require_bona_fide(_spectra(cov)[0])


def _require_bona_fide(nu_min, what: str = "state") -> None:
    """Refuse ``what`` unless its smallest symplectic eigenvalue is >= 1 - BONA_FIDE_TOL (a NaN fails)."""
    if not nu_min >= 1.0 - BONA_FIDE_TOL:
        raise PhysicalityError(f"{what} is not bona fide: min symplectic eigenvalue {nu_min!r}")


class GaussianState:
    """A Gaussian state up to displacement: covariance matrix + mode count.

    The constructor validates symmetry, finiteness and (unless the
    keyword-only ``check`` is False) physicality: every symplectic
    eigenvalue must be >= 1 - 1e-9 (a matrix that is not positive definite
    fails). Each covariance is checked for symmetry once. Two-mode states
    are checked through the closed-form two-mode spectrum (no eigensolve);
    states of one mode or of three or more by one complex Cholesky of
    V + i(1 - 1e-9) Omega, which exists exactly when nu_min >= 1 - 1e-9,
    with no eigensolve; where that factorization fails, the Williamson
    spectrum of :func:`symplectic_eigenvalues` decides and names the
    refusal. Marginals taken by :func:`reduce` are not checked again.

    Instances are value-like: ``cov`` is the state's own read-only array,
    an in-place write raises ValueError, and all operations return new
    states. One state can therefore be shared, for instance as all N copies
    handed to :func:`cvswap.relay.bell_detect`.
    """

    __slots__ = ("n_modes", "cov")

    def __init__(self, cov, *, check: bool = True):
        cov = _require_symmetric(cov)
        if check:
            _require_bona_fide_cov(cov)
        cov.flags.writeable = False
        self.n_modes = cov.shape[0] // 2
        self.cov = cov

    def __repr__(self):
        return f"GaussianState(n_modes={self.n_modes})"


def log_negativity(state: GaussianState, partition) -> float:
    """Logarithmic negativity across ``partition`` | rest.

    Returns sum(max(0, -ln nu~)) over the symplectic eigenvalues nu~ of the
    state with P flipped on the modes in ``partition``. One :func:`_spectra`
    call reads nu~ and the state's own nu_min, so a ``check=False`` state
    that is not bona fide raises PhysicalityError; symmetry is not rechecked.
    """
    part = sorted({_as_index(m, state.n_modes) for m in partition})
    if not part or len(part) >= state.n_modes:
        raise ValueError("partition must be a nonempty proper subset of modes")
    nu_min, neg = _spectra(state.cov, part)
    _require_bona_fide(nu_min)
    return neg


def _pivot(t):
    if not t > 0.0:
        raise PhysicalityError("covariance matrix must be positive-definite")
    return math.sqrt(t)


def _stack_pivot(t):
    if not (t > 0.0).all():
        raise PhysicalityError("covariance matrix must be positive-definite")
    return np.sqrt(t)


def _stack_hypot(a, b, c):
    return np.sqrt(a * a + b * b + c * c)


def _two_mode_spectra(cov):
    """Two-mode symplectic spectra of V and of its partial transpose, with no eigensolve.

    In the quadrature order (X1, X2, P1, P2) let V = R R^T (Cholesky) with
    rows x1, x2, p1, p2 of R. Then R^T Omega R = x1^p1 + x2^p2 as 4x4
    antisymmetric (wedge) matrices, and the partial transpose flips the sign
    of x1^p1. An antisymmetric 4x4 matrix H has eigenvalues +-i nu_+, +-i nu_-
    with nu_+ +- nu_- = |u|, |w| for its self-dual and anti-self-dual parts
    u = (h01 + h23, h02 - h13, h03 + h12), w = (h01 - h23, h02 + h13, h03 - h12),
    so nu_+ = (|u| + |w|) / 2 is a sum and stays accurate when nu_- = nu_+
    (pure states); nu_- = sqrt(det V) / nu_+ does not cancel when nu_- << nu_+
    (strong squeezing), but it carries det V's rounding, so where the two
    are equal it can round above nu_+, and it is cut to nu_+ there.
    det V = det V_X det S, with S = V_P - K^T V_X^-1 K the Schur complement
    that the Cholesky pass forms, and both 2x2 determinants taken as
    differences of products. For a state without X-P correlations
    (a normal form, a TMSV) these are the determinants of its X and P blocks,
    but each product rounds, so det V carries an error of order
    eps max|V|^2. That is large against det V when a strongly squeezed state
    is nearly pure: a TMSV of variance 1e6 reads nu_- = 1 - 3.8e-6 although
    its stored matrix has nu_- = 1 + 3.8e-6 (ROADMAP item 4 asks for exact
    two-products). The closed
    forms in det A, det B, det C and det V (Serafini, Illuminati, De Siena,
    J. Phys. B 37, L21 (2004)) lose sqrt(eps) to the root of their
    discriminant when nu_- = nu_+, which this form avoids.

    ``cov`` is one 4x4 matrix or a stack of shape (..., 4, 4), as anything
    :func:`numpy.asarray` reads. One body serves both: a single matrix takes
    ``sqrt``, ``hypot``, the cut and the pivot test from Python and returns
    Python floats; a stack takes them from numpy and returns arrays of shape
    ``cov.shape[:-2]``, to within rounding of the per-matrix results.

    Only the upper triangle is read; a matrix that is not positive definite
    (any matrix, for a stack) raises PhysicalityError, as
    :func:`symplectic_eigenvalues` does; one whose products could overflow
    is rescaled (see _SCALE_ABOVE), and a nu_+ past the largest double reads
    inf. Returns ``((nu_-, nu_+), (nu~_-, nu~_+))``, each pair in ascending
    order.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 2:
        rows, pivot, sqrt, hypot, low = cov.tolist(), _pivot, math.sqrt, math.hypot, min
        rescale = rows[0][0] + rows[1][1] + rows[2][2] + rows[3][3] > _SCALE_ABOVE
    else:  # entry (r, s) of every matrix at once, as an array of shape cov.shape[:-2]
        rows = cov.transpose(-2, -1, *range(cov.ndim - 2))
        pivot, sqrt, hypot, low = _stack_pivot, np.sqrt, _stack_hypot, np.minimum
        rescale = cov.max(initial=0.0) > _SCALE_ABOVE
    if rescale:  # each diagonal entry is below 2^e
        _, e = np.frexp(cov.diagonal(axis1=-2, axis2=-1))
        shift = 2 * np.maximum(np.maximum((e.max(axis=-1) - 499) // 2, (e.sum(axis=-1) - 993) // 8), 0)
        if shift.any():  # else no product overflows, and the matrix is read as it is
            spectra = _two_mode_spectra(np.ldexp(cov, -shift[..., None, None]))
            # 2^shift is finite (shift <= 774), so nu 2^shift is ldexp's
            # value bit for bit, but a nu_+ past the largest double reads
            # inf instead of raising OverflowError
            scale = np.ldexp(1.0, shift).tolist()
            with np.errstate(over="ignore"):
                return tuple(tuple(nu * scale for nu in pair) for pair in spectra)
    (x1x1, x1p1, x1x2, x1p2), (_, p1p1, p1x2, p1p2), (_, _, x2x2, x2p2), (_, _, _, p2p2) = rows

    # Cholesky of the (X1, X2, P1, P2) matrix [[V_X, K], [K^T, V_P]]
    r00 = pivot(x1x1)
    r10 = x1x2 / r00
    r11 = pivot(x2x2 - r10 * r10)
    r20 = x1p1 / r00
    r21 = (p1x2 - r20 * r10) / r11
    r30 = x1p2 / r00
    r31 = (x2p2 - r30 * r10) / r11
    s00 = p1p1 - r20 * r20 - r21 * r21
    s01 = p1p2 - r20 * r30 - r21 * r31
    s11 = p2p2 - r30 * r30 - r31 * r31
    r22 = pivot(s00)
    r32 = s01 / r22
    r33 = pivot(s11 - r32 * r32)
    sqrt_det_v = sqrt((x1x1 * x2x2 - x1x2 * x1x2) * (s00 * s11 - s01 * s01))

    # x1 = (r00, 0, 0, 0), so x1^p1 only adds r00 r21 to h01 and r00 r22 to h02,
    # with the sign the partial transpose flips; x2^p2 gives the rest (h23 = 0)
    q01 = r10 * r31 - r11 * r30
    h03, h12, h13 = r10 * r33, r11 * r32, r11 * r33

    def spectrum(sign):
        h01 = q01 + sign * r00 * r21
        h02 = r10 * r32 + sign * r00 * r22
        u, w = hypot(h01, h02 - h13, h03 + h12), hypot(h01, h02 + h13, h03 - h12)
        nu_plus = 0.5 * (u + w)
        return low(sqrt_det_v / nu_plus, nu_plus), nu_plus

    return spectrum(1.0), spectrum(-1.0)


def reduce(state: GaussianState, modes) -> GaussianState:
    """Marginal state on ``modes`` (rows/columns of the others deleted).

    ``modes`` listing every mode in order returns ``state`` itself: states
    are immutable, so there is nothing to copy. A marginal is not checked
    again: a submatrix of the state's exactly symmetric, finite covariance
    is exactly symmetric and finite, and the check's 0.5 (a + a) = a would
    return it bit for bit.
    """
    keep = [_as_index(m, state.n_modes) for m in modes]
    if not keep:
        raise ValueError("mode list is empty: a marginal needs at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate mode indices")
    if keep == list(range(state.n_modes)):
        return state
    idx = np.array([2 * m + q for m in keep for q in (0, 1)])
    cov = state.cov[idx[:, None], idx]
    cov.flags.writeable = False
    marginal = object.__new__(GaussianState)
    marginal.n_modes, marginal.cov = len(keep), cov
    return marginal


def two_mode_standard_form(cov: np.ndarray):
    """Two-mode standard form of a covariance matrix: its four local symplectic invariants.

    Returns ``(a, b, c_plus, c_minus)``: a local symplectic S = S_1 (+) S_2
    takes cov to [[a I, C], [C^T, b I]] with C = diag(c_plus, c_minus),
    c_plus >= |c_minus| and sign(c_minus) = sign(det of the input cross
    block), and these four numbers are the whole form (Serafini, Illuminati
    & De Siena, J. Phys. B 37, L21 (2004)); S itself is not formed.
    A matrix that is not positive definite raises PhysicalityError: a local
    block by its Cholesky, the whole by a b > c_plus^2 in standard form,
    compared as sqrt(a) sqrt(b) > c_plus so that no product overflows. The
    form is closed: two 2x2 Cholesky factors and the singular values of the
    whitened cross block in Python floats, with no :mod:`numpy.linalg` call.
    """
    cov = _require_symmetric(cov)
    if cov.shape[0] != 4:
        raise ValueError("standard form is defined for two-mode states")
    return _standard_form(cov)


def _whiten(x: float, y: float, z: float):
    """(s, w00, w10, w11) of the 2x2 block [[x, y], [y, z]]: s = sqrt(det), W = [[w00, 0], [w10, w11]].

    With the block = L L^T (Cholesky) and s = l00 l11, W = sqrt(s) L^-1 has
    det 1 (hence is symplectic) and takes the block to s I. A block that is
    not positive definite raises PhysicalityError.
    """
    l00 = _pivot(x)
    l10 = y / l00
    l11 = _pivot(z - l10 * l10)
    s = l00 * l11
    root = math.sqrt(s)
    w11 = root / l11
    return s, root / l00, -(l10 / l00) * w11, w11


def _standard_form(cov: np.ndarray):
    """:func:`two_mode_standard_form` of a covariance already checked: symmetric, 4x4 and finite.

    Python floats throughout: each local block is whitened by its closed-form
    2x2 Cholesky, and the whitened cross block's singular values, signed by
    its determinant, are c_plus and c_minus.
    """
    (x0, y0, c00, c01), (_, z0, c10, c11), (_, _, x1, y1), (_, _, _, z1) = cov.tolist()
    a, f0, g0, h0 = _whiten(x0, y0, z0)
    b, f1, g1, h1 = _whiten(x1, y1, z1)
    # C1 = W_A C W_B^T = [[p, q], [r, t]], W_A = [[f0, 0], [g0, h0]]
    m0, m1 = g0 * c00 + h0 * c10, g0 * c01 + h0 * c11
    p, q = f0 * c00 * f1, f0 * (c00 * g1 + c01 * h1)
    r, t = m0 * f1, m0 * g1 + m1 * h1
    # C1 is (|u| / 2) R(phi) plus (|w| / 2) R(psi) diag(1, -1), a rotation
    # plus a reflection, so local rotations take it to diag(c_plus, c_minus)
    # with c_plus, c_minus = (|u| +- |w|) / 2; |u|^2 - |w|^2 = 4 det C1 gives
    # c_minus the sign of det C with no branch
    u, w = math.hypot(p + t, r - q), math.hypot(p - t, q + r)
    c_plus = 0.5 * (u + w)
    # the local symplectic is invertible, so V is positive definite iff its standard form is:
    # both 2x2 minors a b - c_plus^2 and a b - c_minus^2 positive, c_plus >= |c_minus|.
    # a b > c_plus^2 is read as sqrt(a) sqrt(b) > c_plus, which cannot overflow
    if not math.sqrt(a) * math.sqrt(b) > c_plus:
        raise PhysicalityError("covariance matrix must be positive-definite")
    return a, b, c_plus, 0.5 * (u - w)
