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

    def is_bona_fide(self) -> bool:
        # (xy - z^2)^2 >= x^2 + y^2 - 2 z^2 - 1 to within 1e-9, plus x, y >= 1
        x, y, z2 = self.x, self.y, self.z * self.z
        return (x * y - z2) ** 2 + 1e-9 >= x * x + y * y - 2.0 * z2 - 1.0

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


#: :func:`sample_normal_form` gives up with RuntimeError after this many draws.
_SAMPLE_ATTEMPTS = 100_000


def sample_normal_form(
    rng: np.random.Generator, x_max: float, require_entangled: bool = True
) -> TwoModeNormalForm:
    """Draw a random physical (and by default entangled) normal form.

    x and y are log-uniform on [1, x_max]; z is uniform on the physical
    interval (-z_max, z_max). Draws failing the bona-fide check or (when
    ``require_entangled``) with zero input log-negativity are rejected.
    """
    if not (x_max > 1.0 and math.isfinite(x_max)):
        raise ValueError("x_max must be finite and > 1")
    span = np.log(x_max)
    for _ in range(_SAMPLE_ATTEMPTS):
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


#: Each level of :func:`_grid_max` scores _GRID_POINTS points per bracket, and
#: it runs _GRID_LEVELS levels; one level shrinks a bracket (_GRID_POINTS - 1) / 2 times.
_GRID_POINTS = 97
_GRID_LEVELS = 2


def _grid_max(f, lo, hi):
    """Maximize f over every bracket [lo, hi] at once by nested grids.

    ``lo`` and ``hi`` are scalars or arrays of one shape S, and ``f`` maps
    points of shape S + (P,) to values of that shape. Each level scores
    _GRID_POINTS evenly spaced points across every bracket, ends included,
    and narrows each bracket to its best point +- one spacing, cut back to
    the bracket itself, so no point ever leaves the first [lo, hi]. Returns
    the best points and their values, each of shape S.

    Every level writes its grid into one buffer allocated per call, and
    ``f`` may overwrite the grid it is given: each bracket's best point is
    rebuilt from its index. A grid and a rebuilt point are np.linspace's
    arithmetic bit for bit (j * step + lo, or (j / (P - 1)) * (hi - lo) + lo
    when any bracket has zero width, and hi as the last point), because the
    frozen fig2b data file holds the search's values to 12 digits.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pts = np.empty(np.broadcast_shapes(lo.shape, hi.shape) + (_GRID_POINTS,))
    j = np.arange(_GRID_POINTS, dtype=float)
    last = _GRID_POINTS - 1
    for _ in range(_GRID_LEVELS):
        width = hi - lo
        step = width / last
        unit, scale = (j / last, width) if np.any(step == 0) else (j, step)
        np.multiply(unit, scale[..., None], out=pts)
        pts += lo[..., None]
        pts[..., -1] = hi
        vals = f(pts)
        k = np.argmax(vals, axis=-1)
        val = np.take_along_axis(vals, k[..., None], axis=-1)[..., 0]
        best = np.where(k == last, hi, unit[k] * scale + lo)
        lo, hi = np.maximum(best - step, lo), np.minimum(best + step, hi)
    return best, val


#: The frontier search scans _FRONTIER_GRID values of x.
_FRONTIER_GRID = 200


def _best_over_z(d: float, xs: np.ndarray) -> np.ndarray:
    """Largest swapped output max(0, -ln(y - z^2/x)) over z in [0, z_max(x)] at each x of ``xs``.

    y = x - 2d. One :func:`_grid_max` call searches every x's z interval at
    once, and scores each level's grid in place, so a level holds one
    (len(xs), _GRID_POINTS) array; an x with z_max = 0 reads 0.
    """
    ys = xs - 2.0 * d
    zm = np.sqrt(np.maximum(xs * ys - 1.0 - np.abs(xs - ys), 0.0))
    x, y = xs[:, None], ys[:, None]

    def score(z):
        """-ln(y - z^2/x), written over z."""
        z *= z
        z /= x
        np.subtract(y, z, out=z)
        np.log(z, out=z)
        return np.negative(z, out=z)

    _, val = _grid_max(score, np.zeros(len(xs)), zm)
    return np.maximum(val, 0.0)


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
    nested-grid search over z at each of _FRONTIER_GRID grid values of x,
    all at once (:func:`_best_over_z`), and the largest grid value. A
    refinement over x could gain no more than the z search's own error: on
    the physical boundary z^2 = xy - 1 - |x - y| the output is
    ln(x / (1 + 2|d|)), which increases in x, so the best grid point is the
    last one, x at its cap.
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
        best = float(np.max(_best_over_z(d, np.linspace(lo, hi, _FRONTIER_GRID))))
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
