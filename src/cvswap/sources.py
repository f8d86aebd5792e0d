"""State preparation, the thermal-loss channel, and random-state sampling.

Two-mode inputs are handled in the (x, y, z) normal form

    V = [[x I, z Z], [z Z, y I]],   I = diag(1, 1), Z = diag(1, -1),

which covers TMSV states (x = y = mu, z = sqrt(mu^2 - 1)) and their images
under the thermal-loss channel used in the optical-network analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _two_mode_spectra

__all__ = [
    "TwoModeNormalForm",
    "tmsv",
    "thermal_loss_on_a",
    "thermal_loss_map",
    "sample_normal_form",
    "max_swap_logneg_at_asymmetry",
]


@dataclass(frozen=True)
class TwoModeNormalForm:
    """The (x, y, z) triple; x is the variance of the mode sent to the relay."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (self.x >= 1.0 and self.y >= 1.0 and math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("x and y must be finite and >= 1")
        if not math.isfinite(self.z):
            raise ValueError("z must be finite")

    @property
    def d(self) -> float:
        """Asymmetry parameter d = (x - y) / 2."""
        return 0.5 * (self.x - self.y)

    def cov(self) -> np.ndarray:
        x, y, z = self.x, self.y, self.z
        return np.array(
            [
                [x, 0.0, z, 0.0],
                [0.0, x, 0.0, -z],
                [z, 0.0, y, 0.0],
                [0.0, -z, 0.0, y],
            ]
        )

    def state(self) -> GaussianState:
        return GaussianState(self.cov())

    def z_max(self) -> float:
        """Largest |z| compatible with the uncertainty principle."""
        val = self.x * self.y - 1.0 - abs(self.x - self.y)
        return float(np.sqrt(max(val, 0.0)))

    def is_bona_fide(self) -> bool:
        # (xy - z^2)^2 >= x^2 + y^2 - 2 z^2 - 1 to within 1e-9, plus x, y >= 1
        x, y, z2 = self.x, self.y, self.z * self.z
        return (x * y - z2) ** 2 + 1e-9 >= x * x + y * y - 2.0 * z2 - 1.0

    def is_entangled(self) -> bool:
        return self.z * self.z > (self.x - 1.0) * (self.y - 1.0)

    def log_negativity(self) -> float:
        """Input entanglement across A | B."""
        _, (nu, _) = _two_mode_spectra(self.cov())
        return max(0.0, -math.log(nu))


def tmsv(mu: float) -> TwoModeNormalForm:
    """Two-mode squeezed vacuum with quadrature variance mu >= 1."""
    if not (mu >= 1.0 and math.isfinite(mu)):
        raise ValueError("mu must be finite and >= 1")
    return TwoModeNormalForm(mu, mu, float(np.sqrt(mu * mu - 1.0)))


def thermal_loss_on_a(nf: TwoModeNormalForm, eta: float, omega: float) -> TwoModeNormalForm:
    """Send the A mode of a TMSV through a thermal-loss channel.

    Transmissivity eta in (0, 1], thermal noise variance omega >= 1. The
    output stays in normal form: x -> eta mu + (1 - eta) omega, y -> mu,
    z -> sqrt(eta) z.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    if not (omega >= 1.0 and math.isfinite(omega)):
        raise ValueError("omega must be finite and >= 1")
    return TwoModeNormalForm(
        eta * nf.x + (1.0 - eta) * omega, nf.y, float(np.sqrt(eta)) * nf.z
    )


def thermal_loss_map(state: GaussianState, mode: int, eta: float, omega: float) -> GaussianState:
    """General thermal-loss channel on one mode of any Gaussian state.

    Mixes the mode with a thermal environment of variance omega on a beam
    splitter of transmissivity eta: the mode's rows/columns scale by
    sqrt(eta) and (1 - eta) omega is added on its diagonal block. Used as an
    independent cross-check of :func:`thermal_loss_on_a`.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    if not (omega >= 1.0 and math.isfinite(omega)):
        raise ValueError("omega must be finite and >= 1")
    n = state.n_modes
    if not 0 <= mode < n:
        raise IndexError(f"mode index {mode} out of range")
    scale = np.ones(2 * n)
    scale[2 * mode] = scale[2 * mode + 1] = np.sqrt(eta)
    X = np.diag(scale)
    add = np.zeros((2 * n, 2 * n))
    add[2 * mode, 2 * mode] = add[2 * mode + 1, 2 * mode + 1] = (1.0 - eta) * omega
    mean = scale * state.mean
    return GaussianState(X @ state.cov @ X + add, mean)


def sample_normal_form(
    rng: np.random.Generator,
    x_max: float,
    require_entangled: bool = True,
    max_attempts: int = 100_000,
) -> TwoModeNormalForm:
    """Draw a random physical (and by default entangled) normal form.

    x and y are log-uniform on [1, x_max]; z is uniform on the physical
    interval (-z_max, z_max). Draws failing the bona-fide check or (when
    ``require_entangled``) with zero input log-negativity are rejected.
    """
    if not x_max > 1.0:
        raise ValueError("x_max must be > 1")
    span = np.log(x_max)
    for _ in range(max_attempts):
        x = float(np.exp(rng.uniform(0.0, span)))
        y = float(np.exp(rng.uniform(0.0, span)))
        zm = np.sqrt(max(x * y - 1.0 - abs(x - y), 0.0))
        if zm == 0.0:
            continue
        z = float(rng.uniform(-zm, zm))
        nf = TwoModeNormalForm(x, y, z)
        if not nf.is_bona_fide():
            continue
        if require_entangled and nf.log_negativity() <= 0.0:
            continue
        return nf
    raise RuntimeError("rejection sampling budget exhausted")


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization of a unimodal f on [lo, hi] to a bracket of tol."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    xbest = c if fc > fd else d
    return xbest, max(fc, fd)


#: The frontier search scans _FRONTIER_GRID values of x and runs a
#: golden-section search over z at each to a bracket of _FRONTIER_TOL.
_FRONTIER_GRID = 200
_FRONTIER_TOL = 1e-8


def _best_over_z_lockstep(d: float, xs: np.ndarray) -> np.ndarray:
    """Largest swapped output over z at each x of ``xs``, with y = x - 2d.

    Runs the golden-section search of :func:`_golden_max` on -ln(y - z^2/x)
    over z in [0, z_max(x)] for every x at once, in the same floating-point
    operations: each element takes the step its own comparison picks, and it
    leaves the batch, with max(0, max(f(c), f(d))), as soon as its bracket is
    no wider than _FRONTIER_TOL. So every value equals that of the scalar
    search bit for bit. An x with z_max = 0 reads 0. Each iteration forms
    the bracket widths b - a once, for the stopping test and for the new
    point, and compacts the batch only when some bracket has closed.
    """
    best = np.zeros(len(xs))
    ys = xs - 2.0 * d
    zm = np.sqrt(np.maximum(xs * ys - 1.0 - np.abs(xs - ys), 0.0))
    idx = np.flatnonzero(zm != 0.0)
    x, y, a, b = xs[idx], ys[idx], np.zeros(idx.size), zm[idx]
    width = b - a
    c = b - _INVPHI * width
    dd = a + _INVPHI * width
    fc, fd = -np.log(y - c * c / x), -np.log(y - dd * dd / x)
    while idx.size:
        live = width > _FRONTIER_TOL  # b >= a throughout, so the width needs no abs()
        if not live.all():
            done = ~live
            val = np.maximum(fc[done], fd[done])
            best[idx[done]] = np.where(val > 0.0, val, 0.0)
            idx, x, y, a, b, c, dd, fc, fd = (arr[live] for arr in (idx, x, y, a, b, c, dd, fc, fd))
            if not idx.size:
                break
        left = fc > fd  # the maximum lies left of d: [a, b] -> [a, d]
        b = np.where(left, dd, b)
        a = np.where(left, a, c)
        width = b - a
        step = _INVPHI * width
        new = np.where(left, b - step, a + step)
        f_new = -np.log(y - new * new / x)
        c, dd, fc, fd = (
            np.where(left, new, dd),
            np.where(left, c, new),
            np.where(left, f_new, fd),
            np.where(left, fc, f_new),
        )
    return best


def _feasible_x_range(d: float, x_max: float) -> tuple[float, float]:
    """The x interval at asymmetry d on which x and y = x - 2d both lie in [1, x_max].

    Raises ValueError for a non-finite d or x_max and when the interval is
    empty.
    """
    if not (math.isfinite(d) and math.isfinite(x_max)):
        raise ValueError("d and x_max must be finite")
    lo = max(1.0, 1.0 + 2.0 * d)
    hi = min(x_max, x_max + 2.0 * d)
    if not hi > lo:
        raise ValueError("x_max leaves no feasible x range")
    return lo, hi


def max_swap_logneg_at_asymmetry(d: float, x_max: float) -> float:
    """Largest two-user swapped log-negativity at fixed asymmetry d.

    Maximizes the swapped output -ln(y - z^2/x) over x (with y = x - 2d) and
    z within the physical region, both variances capped at x_max: a
    golden-section search over z at each of _FRONTIER_GRID grid values of x,
    all run in lockstep on arrays (:func:`_best_over_z_lockstep`), and the
    largest grid value. A refinement over x could gain no more than the z
    search's own error: on the physical boundary z^2 = xy - 1 - |x - y| the
    output is ln(x / (1 + 2|d|)), which increases in x, so the best grid
    point is the last one, x at its cap.
    This search never reads :func:`frontier_closed_form`, which the tests
    check it against.
    """
    lo, hi = _feasible_x_range(d, x_max)
    return float(np.max(_best_over_z_lockstep(d, np.linspace(lo, hi, _FRONTIER_GRID))))


def frontier_closed_form(d: float, x_max: float) -> float:
    """The asymmetry frontier in closed form: ln(min(x_max, x_max + 2d) / (1 + 2|d|)).

    At fixed (x, y) the output is largest on the physicality boundary
    z^2 = xy - 1 - |x - y|, where it collapses to ln(x / (1 + 2|d|)); the
    remaining maximization over x hits whichever of x <= x_max, y <= x_max
    binds first. Clamped at zero. Serves as the independent check on the
    grid-search maximizer.
    """
    _, hi = _feasible_x_range(d, x_max)
    return max(0.0, float(np.log(hi / (1.0 + 2.0 * abs(d)))))
