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
    "frontier_curve",
]


@dataclass(frozen=True)
class TwoModeNormalForm:
    """The (x, y, z) triple; x is the variance of the mode sent to the relay."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.x < 1.0 or self.y < 1.0:
            raise ValueError("x and y must be >= 1")

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

    def is_bona_fide(self, tol: float = 1e-9) -> bool:
        # (xy - z^2)^2 >= x^2 + y^2 - 2 z^2 - 1, plus x, y >= 1
        x, y, z2 = self.x, self.y, self.z * self.z
        return (x * y - z2) ** 2 + tol >= x * x + y * y - 2.0 * z2 - 1.0

    def is_entangled(self) -> bool:
        return self.z * self.z > (self.x - 1.0) * (self.y - 1.0)

    def log_negativity(self) -> float:
        """Input entanglement across A | B."""
        _, (nu, _) = _two_mode_spectra(self.cov())
        return max(0.0, -math.log(nu))


def tmsv(mu: float) -> TwoModeNormalForm:
    """Two-mode squeezed vacuum with quadrature variance mu >= 1."""
    if mu < 1.0:
        raise ValueError("mu must be >= 1")
    return TwoModeNormalForm(mu, mu, float(np.sqrt(mu * mu - 1.0)))


def thermal_loss_on_a(nf: TwoModeNormalForm, eta: float, omega: float) -> TwoModeNormalForm:
    """Send the A mode of a TMSV through a thermal-loss channel.

    Transmissivity eta in (0, 1], thermal noise variance omega >= 1. The
    output stays in normal form: x -> eta mu + (1 - eta) omega, y -> mu,
    z -> sqrt(eta) z.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    if omega < 1.0:
        raise ValueError("omega must be >= 1")
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
    if omega < 1.0:
        raise ValueError("omega must be >= 1")
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
    if x_max <= 1.0:
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


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization of a unimodal f on [lo, hi] to a bracket of tol."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xbest = c if fc > fd else d
    return xbest, max(fc, fd)


#: The frontier search scans _FRONTIER_GRID values of x and refines both x
#: and z by golden section to a bracket of _FRONTIER_TOL.
_FRONTIER_GRID = 200
_FRONTIER_TOL = 1e-8


def max_swap_logneg_at_asymmetry(d: float, x_max: float) -> float:
    """Largest two-user swapped log-negativity at fixed asymmetry d.

    Maximizes the swapped output -ln(y - z^2/x) over x (with y = x - 2d) and
    z within the physical region, by golden-section search over z at each
    grid x followed by refinement around the best x. Both variances are
    capped at x_max.
    """
    lo = max(1.0, 1.0 + 2.0 * d)  # ensures x >= 1 and y = x - 2d >= 1
    hi = min(x_max, x_max + 2.0 * d)  # ensures both x and y stay <= x_max
    if hi <= lo:
        raise ValueError("x_max leaves no feasible x range")

    def best_over_z(x):
        y = x - 2.0 * d
        zm = np.sqrt(max(x * y - 1.0 - abs(x - y), 0.0))
        if zm == 0.0:
            return 0.0
        _, val = _golden_max(lambda z: -np.log(y - z * z / x), 0.0, zm, _FRONTIER_TOL)
        return max(0.0, val)

    xs = np.linspace(lo, hi, _FRONTIER_GRID)
    vals = [best_over_z(x) for x in xs]
    k = int(np.argmax(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, _FRONTIER_GRID - 1)]
    if a == b:
        return float(vals[k])
    _, val = _golden_max(best_over_z, a, b, _FRONTIER_TOL)
    return float(max(val, vals[k]))


def frontier_closed_form(d: float, x_max: float) -> float:
    """The asymmetry frontier in closed form: ln(min(x_max, x_max + 2d) / (1 + 2|d|)).

    At fixed (x, y) the output is largest on the physicality boundary
    z^2 = xy - 1 - |x - y|, where it collapses to ln(x / (1 + 2|d|)); the
    remaining maximization over x hits whichever of x <= x_max, y <= x_max
    binds first. Clamped at zero. Serves as the independent check on the
    grid-search maximizer.
    """
    hi = min(x_max, x_max + 2.0 * d)
    if hi <= max(1.0, 1.0 + 2.0 * d):
        raise ValueError("x_max leaves no feasible x range")
    return max(0.0, float(np.log(hi / (1.0 + 2.0 * abs(d)))))


def frontier_curve(d_values, x_max: float):
    """The maximum-output frontier over a grid of asymmetries."""
    return np.array([max_swap_logneg_at_asymmetry(d, x_max) for d in d_values])
