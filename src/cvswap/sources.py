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

from .gaussian import BONA_FIDE_TOL, GaussianState, PhysicalityError, _two_mode_spectra

__all__ = [
    "TwoModeNormalForm",
    "tmsv",
    "thermal_loss_on_a",
    "sample_normal_form",
    "max_swap_logneg_at_asymmetry",
    "frontier_closed_form",
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

    def log_negativity(self) -> float:
        """Input entanglement across A | B."""
        _, (nu, _) = _two_mode_spectra(self.cov())
        return max(0.0, -math.log(nu))


def tmsv(mu: float) -> TwoModeNormalForm:
    """Two-mode squeezed vacuum with quadrature variance mu >= 1.

    A mu whose square overflows raises OverflowError.
    """
    if not (mu >= 1.0 and math.isfinite(mu)):
        raise ValueError("mu must be finite and >= 1")
    square = mu * mu
    if square == math.inf:
        raise OverflowError(f"mu = {mu:g} is too large to square")
    return TwoModeNormalForm(mu, mu, float(np.sqrt(square - 1.0)))


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


#: :func:`sample_normal_form` gives up with RuntimeError after this many draws.
_SAMPLE_ATTEMPTS = 100_000


def _keeps(nf: TwoModeNormalForm, require_entangled: bool) -> bool:
    """The sampler's verdict on a draw, from one two-mode spectrum.

    A form is kept when it is bona fide as :class:`GaussianState` reads it
    (nu_min >= 1 - BONA_FIDE_TOL) and, if ``require_entangled``, its
    partially transposed nu~_- is below 1. A form the kernel refuses is not
    kept.
    """
    try:
        (nu_min, _), (pt_minus, _) = _two_mode_spectra(nf.cov())
    except PhysicalityError:
        return False
    return nu_min >= 1.0 - BONA_FIDE_TOL and (pt_minus < 1.0 or not require_entangled)


def sample_normal_form(
    rng: np.random.Generator, x_max: float, require_entangled: bool = True
) -> TwoModeNormalForm:
    """Draw a random physical (and by default entangled) normal form.

    x and y are log-uniform on [1, x_max]; z is uniform on the physical
    interval (-z_max, z_max), z_max^2 = x y - 1 - |x - y|. Draws that are
    not bona fide or (when ``require_entangled``) have zero input
    log-negativity are rejected. Where x y overflows, z_max is read from
    z_max^2 = (max + 1)(min - 1) as a product of square roots. z is drawn
    as 2 (z_max u - z_max / 2) from one ``rng.random()`` u, which cannot
    overflow: halving and doubling are exact, so that is
    ``rng.uniform(-z_max, z_max)``'s -z_max + (2 z_max) u bit for bit
    wherever the latter is finite.
    """
    if not (x_max > 1.0 and math.isfinite(x_max)):
        raise ValueError("x_max must be finite and > 1")
    span = np.log(x_max)
    for _ in range(_SAMPLE_ATTEMPTS):
        x = float(np.exp(rng.uniform(0.0, span)))
        y = float(np.exp(rng.uniform(0.0, span)))
        xy = x * y
        if xy < math.inf:
            zm = np.sqrt(max(xy - 1.0 - abs(x - y), 0.0))
        else:
            zm = math.sqrt(max(x, y) + 1.0) * math.sqrt(min(x, y) - 1.0)
        if zm == 0.0:
            continue
        z = float(2.0 * (zm * rng.random() - 0.5 * zm))
        nf = TwoModeNormalForm(x, y, z)
        if _keeps(nf, require_entangled):
            return nf
    raise RuntimeError("rejection sampling budget exhausted")


#: The frontier search scans _FRONTIER_GRID values of x, and _GRID_POINTS
#: values of z at each.
_FRONTIER_GRID = 200
_GRID_POINTS = 97


def _best_over_z(d: float, xs: np.ndarray) -> np.ndarray:
    """Largest swapped output max(0, -ln(y - z^2/x)) over z in [0, z_max(x)] at each x of ``xs``.

    y = x - 2d. One (len(xs), _GRID_POINTS) grid spans every x's z interval,
    ends included, and is scored in place; an x with z_max = 0 reads 0. The
    grid is np.linspace's arithmetic bit for bit (j * step, or
    (j / (P - 1)) * z_max when any z_max is 0, and z_max as the last point),
    because the frozen fig2b data file holds the search's values to 12 digits.
    Each row takes its least y - z^2/x and one log: -ln decreases, so that
    is the row's largest -ln, and a row holding a NaN or a negative entry
    reads NaN either way.
    """
    ys = xs - 2.0 * d
    zm = np.sqrt(np.maximum(xs * ys - 1.0 - np.abs(xs - ys), 0.0))
    j = np.arange(_GRID_POINTS, dtype=float)
    last = _GRID_POINTS - 1
    step = zm / last
    unit, scale = (j / last, zm) if (step == 0).any() else (j, step)
    z = np.multiply(unit, scale[:, None])
    z[:, -1] = zm
    # y - z^2/x, written over z
    z *= z
    z /= xs[:, None]
    np.subtract(ys[:, None], z, out=z)
    return np.maximum(-np.log(z.min(axis=1)), 0.0)


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
    z within the physical region, both variances capped at x_max: one
    grid of z at each of _FRONTIER_GRID grid values of x, all at once
    (:func:`_best_over_z`, one log per x), and the largest grid value. A
    refinement could gain no more than the search's own rounding: at fixed
    x the output increases in z^2, so its best z is the interval's upper
    end, z_max, which the grid holds; on that physical boundary
    z^2 = xy - 1 - |x - y| the output is ln(x / (1 + 2|d|)), which
    increases in x, so the best grid point is the last one, x at its cap.
    This search never reads :func:`frontier_closed_form`, which the tests
    check it against. Near the boundary y - z^2/x cancels, so the search
    drifts from the closed form as x_max grows: over fig2b's default 31-point
    d grid the largest gap is 2.3e-14 at x_max 10, 1.2e-10 at 1e3, 1.7e-8 at
    1e4 and 2.6e-6 at 1e5, past the 1e-6 the tests hold up to 1e4. From
    about 1e8 it is rounding noise, and a value that comes out NaN or
    infinite raises FloatingPointError instead of a numpy warning.
    """
    lo, hi = _feasible_x_range(d, x_max)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        best = float(_best_over_z(d, np.linspace(lo, hi, _FRONTIER_GRID)).max())
    if not math.isfinite(best):
        raise FloatingPointError(f"frontier search at d = {d!r}, x_max = {x_max!r} gave {best}")
    return best


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
