import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cvswap import sources
from cvswap.analysis import NetworkPoint, swap_logneg_two, tmsv_swap_bound
from cvswap.gaussian import GaussianState, PhysicalityError, log_negativity, symplectic_eigenvalues
from cvswap.optomech import standard_params
from cvswap.relay import cluster_closed_form
from cvswap.sources import (
    _FRONTIER_GRID,
    TwoModeNormalForm,
    _best_over_z,
    _feasible_x_range,
    _keeps,
    frontier_closed_form,
    max_swap_logneg_at_asymmetry,
    sample_normal_form,
    thermal_loss_on_a,
    tmsv,
)
from gaussian_reference import frontier_linspace, grid_max_linspace, thermal_loss_map


def test_normal_form_validation_and_derived_quantities():
    nf = TwoModeNormalForm(3.0, 2.0, 1.0)
    assert nf.d == 0.5
    # the largest physical |z| at (x, y) is sqrt(xy - 1 - |x - y|)
    z_edge = np.sqrt(3.0 * 2.0 - 1.0 - 1.0)
    TwoModeNormalForm(3.0, 2.0, z_edge).state()
    with pytest.raises(PhysicalityError):
        TwoModeNormalForm(3.0, 2.0, 1.001 * z_edge).state()
    with pytest.raises(ValueError):
        TwoModeNormalForm(0.9, 2.0, 0.0)
    with pytest.raises(ValueError):
        TwoModeNormalForm(2.0, 0.5, 0.0)


@settings(max_examples=400, deadline=None)
@given(x=st.floats(1.0, 1e3), y=st.floats(1.0, 1e3), t=st.floats(-1.5, 1.5), at_edge=st.booleans())
def test_sampler_verdict_matches_the_state_constructor(x, y, t, at_edge):
    # z across and past the physical interval: a fraction of sqrt(xy), past
    # which the form is not positive definite, or within 0.1 % of the
    # physical edge sqrt(xy - 1 - |x - y|)
    if at_edge:
        z = (1.0 + t / 1500.0) * math.sqrt(max(x * y - 1.0 - abs(x - y), 0.0))
    else:
        z = t * math.sqrt(x * y)
    nf = TwoModeNormalForm(x, y, z)
    try:
        state = GaussianState(nf.cov())
    except PhysicalityError:
        bona_fide = entangled = False
    else:
        bona_fide, entangled = True, log_negativity(state, [0]) > 0.0
    assert _keeps(nf, require_entangled=False) == bona_fide
    assert _keeps(nf, require_entangled=True) == (bona_fide and entangled)


# each meets (nu_-^2 - 1)(nu_+^2 - 1) >= 0, a necessary condition only, so a
# verdict that reads it alone accepts all three; the last is not even
# positive definite
@pytest.mark.parametrize("x, y, z", [(1.0, 1.0, 0.5), (2.0, 2.0, 1.9), (3.0, 2.0, 2.5)])
def test_sampler_verdict_refuses_unphysical_forms(x, y, z):
    nf = TwoModeNormalForm(x, y, z)
    assert not _keeps(nf, require_entangled=False)
    assert not _keeps(nf, require_entangled=True)
    with pytest.raises(PhysicalityError):
        nf.state()


def test_normal_form_entanglement_threshold():
    # entangled iff z^2 > (x-1)(y-1)
    x, y = 2.0, 3.0
    z_crit = np.sqrt((x - 1.0) * (y - 1.0))
    assert TwoModeNormalForm(x, y, z_crit * 0.999).log_negativity() == 0.0
    assert TwoModeNormalForm(x, y, z_crit * 1.001).log_negativity() > 0.0


def test_tmsv_examples():
    nf = tmsv(1.0)
    assert (nf.x, nf.y, nf.z) == (1.0, 1.0, 0.0)
    nf = tmsv(5.0 / 3.0)
    assert nf.z == pytest.approx(4.0 / 3.0, abs=1e-15)
    # purity: both symplectic eigenvalues are 1
    np.testing.assert_allclose(symplectic_eigenvalues(tmsv(7.0).cov()), [1, 1], atol=1e-12)
    with pytest.raises(ValueError):
        tmsv(0.5)
    # finite, but its square is not: refused, not read as z = inf
    with pytest.raises(OverflowError):
        tmsv(1e300)
    assert np.isfinite(tmsv(1.3e154).z)


def test_tmsv_log_negativity_closed_form():
    for mu in (1.0, 2.0, 10.0):
        expected = np.log(mu + np.sqrt(mu**2 - 1.0))
        assert tmsv(mu).log_negativity() == pytest.approx(expected, abs=1e-12)


def test_thermal_loss_examples():
    nf = thermal_loss_on_a(tmsv(2.0), 0.5, 1.0)
    assert (nf.x, nf.y) == (1.5, 2.0)
    assert nf.z == pytest.approx(np.sqrt(1.5), abs=1e-12)

    nf = thermal_loss_on_a(tmsv(3.0), 0.9, 2.0)
    assert nf.x == pytest.approx(2.9, abs=1e-12)
    assert nf.y == 3.0
    assert nf.z == pytest.approx(np.sqrt(0.9) * np.sqrt(8.0), abs=1e-12)

    # identity channel
    nf = thermal_loss_on_a(tmsv(4.0), 1.0, 3.0)
    assert (nf.x, nf.y, nf.z) == (tmsv(4.0).x, tmsv(4.0).y, tmsv(4.0).z)


def test_thermal_loss_parameter_validation():
    with pytest.raises(ValueError):
        thermal_loss_on_a(tmsv(2.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_loss_on_a(tmsv(2.0), 0.5, 0.9)


_NAN = float("nan")
_NAN_CASES = {
    "NetworkPoint-mu": lambda: NetworkPoint(mu=_NAN, eta=0.5, omega=1.0, n_users=3),
    "NetworkPoint-omega": lambda: NetworkPoint(mu=2.0, eta=0.5, omega=_NAN, n_users=3),
    "tmsv": lambda: tmsv(_NAN),
    "TwoModeNormalForm-x": lambda: TwoModeNormalForm(_NAN, 2.0, 1.0),
    "TwoModeNormalForm-y": lambda: TwoModeNormalForm(2.0, _NAN, 1.0),
    "thermal_loss_on_a-omega": lambda: thermal_loss_on_a(tmsv(2.0), 0.5, _NAN),
    "sample_normal_form-x_max": lambda: sample_normal_form(np.random.default_rng(0), _NAN),
    "OptomechParams-g_eff": lambda: replace(standard_params(), g_eff=_NAN),
    "frontier-d": lambda: max_swap_logneg_at_asymmetry(_NAN, 10.0),
    "frontier-x_max": lambda: max_swap_logneg_at_asymmetry(0.0, _NAN),
    "frontier_closed_form-d": lambda: frontier_closed_form(_NAN, 10.0),
    "frontier_closed_form-x_max": lambda: frontier_closed_form(0.0, _NAN),
    "swap_logneg_two-x": lambda: swap_logneg_two(_NAN, 2.0, 1.0),
    "swap_logneg_two-y": lambda: swap_logneg_two(2.0, _NAN, 1.0),
    "swap_logneg_two-z": lambda: swap_logneg_two(2.0, 2.0, _NAN),
    "cluster_closed_form-x": lambda: cluster_closed_form(_NAN, 2.0, 1.0, 3),
}


@pytest.mark.parametrize("build", list(_NAN_CASES.values()), ids=list(_NAN_CASES))
def test_range_checks_refuse_nan(build):
    with pytest.raises(ValueError):
        build()


# each builder refuses its parameter by name, before any matrix is formed
_NON_FINITE_CASES = {
    "TwoModeNormalForm-x": ("x", lambda v: TwoModeNormalForm(v, 2.0, 1.0)),
    "TwoModeNormalForm-y": ("y", lambda v: TwoModeNormalForm(2.0, v, 1.0)),
    "TwoModeNormalForm-z": ("z", lambda v: TwoModeNormalForm(2.0, 2.0, v)),
    "tmsv": ("mu", tmsv),
    "thermal_loss_on_a-omega": ("omega", lambda v: thermal_loss_on_a(tmsv(2.0), 0.5, v)),
    "NetworkPoint-mu": ("mu", lambda v: NetworkPoint(mu=v, eta=0.5, omega=1.0, n_users=3)),
    "NetworkPoint-omega": ("omega", lambda v: NetworkPoint(mu=2.0, eta=0.5, omega=v, n_users=3)),
    "swap_logneg_two-x": ("x", lambda v: swap_logneg_two(v, 2.0, 1.0)),
    "swap_logneg_two-y": ("y", lambda v: swap_logneg_two(2.0, v, 1.0)),
    "swap_logneg_two-z": ("z", lambda v: swap_logneg_two(2.0, 2.0, v)),
}


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), _NAN])
@pytest.mark.parametrize("case", list(_NON_FINITE_CASES.values()), ids=list(_NON_FINITE_CASES))
def test_builders_refuse_non_finite_parameters(case, bad):
    name, build = case
    with pytest.raises(ValueError, match=rf"\b{name}\b.*finite"):
        build(bad)


@pytest.mark.parametrize("x", [0.0, -2.0])
def test_swap_logneg_two_refuses_non_positive_x(x):
    with pytest.raises(ValueError, match="x positive"):
        swap_logneg_two(x, 2.0, 1.0)


def test_general_map_agrees_with_specialized_form():
    rng = np.random.default_rng(2)
    for _ in range(50):
        mu = float(np.exp(rng.uniform(0, np.log(10))))
        eta = rng.uniform(0.1, 1.0)
        omega = rng.uniform(1.0, 5.0)
        specialized = thermal_loss_on_a(tmsv(mu), eta, omega).cov()
        general = thermal_loss_map(tmsv(mu).state(), 0, eta, omega).cov
        np.testing.assert_allclose(general, specialized, atol=1e-12)


def test_channel_never_increases_entanglement():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mu = float(np.exp(rng.uniform(0, np.log(10))))
        eta = rng.uniform(0.1, 1.0)
        omega = rng.uniform(1.0, 5.0)
        before = tmsv(mu).log_negativity()
        after = thermal_loss_on_a(tmsv(mu), eta, omega).log_negativity()
        assert after <= before + 1e-12


def test_sampler_produces_entangled_bona_fide_states():
    rng = np.random.default_rng(9)
    saw_negative_d = saw_positive_d = False
    for _ in range(200):
        nf = sample_normal_form(rng, 10.0)
        nf.state()
        assert nf.log_negativity() > 0.0
        assert 1.0 <= nf.x <= 10.0 and 1.0 <= nf.y <= 10.0
        saw_negative_d |= nf.d < 0
        saw_positive_d |= nf.d > 0
    # the asymmetry parameter must cover both signs
    assert saw_negative_d and saw_positive_d


def test_swap_output_stays_strictly_below_input_entanglement():
    rng = np.random.default_rng(4040)
    for _ in range(2000):
        nf = sample_normal_form(rng, 10.0)
        assert swap_logneg_two(nf.x, nf.y, nf.z) < nf.log_negativity()


def test_tmsv_curve_caps_swap_output_when_kept_side_is_noisier():
    # For y >= x the two-user output obeys E_out <= ln cosh(E_in). Probe the
    # adversarial corner directly: correlations at 99.99% of the physicality
    # bound, where the output is largest relative to the input.
    for x in np.linspace(1.05, 10.0, 40):
        for y in np.linspace(x, 10.0, 40):
            z_sq = 0.9999 * (x * y - 1.0 - abs(x - y))
            if z_sq <= (x - 1.0) * (y - 1.0):
                continue  # separable; no output entanglement to compare
            nf = TwoModeNormalForm(x, y, np.sqrt(z_sq))
            e_out = swap_logneg_two(nf.x, nf.y, nf.z)
            assert e_out <= tmsv_swap_bound(nf.log_negativity()) + 1e-12


def test_symmetric_states_attain_tmsv_curve_only_at_purity():
    # Along x == y the bound E_out <= ln cosh(E_in) is tight exactly for the
    # pure state z = sqrt(x^2 - 1); mixing (smaller z) opens a strict gap.
    for x in (1.2, 2.0, 5.0, 25.0):
        pure = TwoModeNormalForm(x, x, np.sqrt(x * x - 1.0))
        bound = tmsv_swap_bound(pure.log_negativity())
        assert swap_logneg_two(x, x, pure.z) == pytest.approx(bound, abs=1e-9)
        mixed = TwoModeNormalForm(x, x, 0.9 * np.sqrt(x * x - 1.0))
        if mixed.log_negativity() > 0.0:
            gap = tmsv_swap_bound(mixed.log_negativity()) - swap_logneg_two(
                x, x, mixed.z
            )
            assert gap > 1e-6


def test_cleaner_kept_side_states_can_beat_the_tmsv_curve():
    # With x > y (the measured side noisier) and correlations near the
    # physicality bound, the output approaches E_in itself and overtakes
    # ln cosh(E_in); the curve is not a ceiling for the whole family.
    nf = TwoModeNormalForm(5.865776, 1.311218, 1.424291)
    e_in = nf.log_negativity()
    e_out = swap_logneg_two(nf.x, nf.y, nf.z)
    assert e_out > tmsv_swap_bound(e_in) + 0.02
    assert e_out < e_in


def test_sampler_validation_and_budget(monkeypatch):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_normal_form(rng, 1.0)
    monkeypatch.setattr(sources, "_SAMPLE_ATTEMPTS", 0)
    with pytest.raises(RuntimeError):
        sample_normal_form(rng, 10.0)


@pytest.mark.parametrize("x_max", [1e200, 1.7e308])
def test_sampler_draws_where_x_y_overflows(x_max):
    # from x_max of about 1.3e154 on, x y can pass the largest double; z_max
    # is then read from (max + 1)(min - 1), and no draw raises or warns
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forms = [sample_normal_form(rng, x_max, require_entangled=False) for _ in range(30)]
    assert any(nf.x * nf.y == math.inf for nf in forms)
    for nf in forms:
        assert 1.0 <= nf.x <= x_max and 1.0 <= nf.y <= x_max
        z_max = math.sqrt(max(nf.x, nf.y) + 1.0) * math.sqrt(min(nf.x, nf.y) - 1.0)
        assert abs(nf.z) <= z_max
        assert _keeps(nf, require_entangled=False)


class _DrawsAtTheCap:
    """A generator whose draws of x and y land one ulp below the cap, so 2 z_max overflows."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        return np.nextafter(high, low) if low == 0.0 else self.rng.uniform(low, high)

    def random(self):
        return self.rng.random()


def test_sampler_draws_z_where_its_interval_is_wider_than_the_largest_double():
    x_max = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nf = sample_normal_form(_DrawsAtTheCap(4), x_max, require_entangled=False)
    z_max = math.sqrt(nf.x + 1.0) * math.sqrt(nf.y - 1.0)
    assert 2.0 * z_max == math.inf
    assert abs(nf.z) <= z_max


def test_overflow_free_z_draw_is_rng_uniform_bit_for_bit():
    # the draw of z, which 2 z_max cannot overflow, reads the same double as
    # rng.uniform and returns what rng.uniform returns wherever that is
    # finite, from the smallest nonzero z_max the sampler makes (about 1e-8,
    # the square root of one ulp of x y - 1 - |x - y|) to e^709
    z_max = np.exp(np.random.default_rng(2).uniform(-19.0, 709.0, 2000))
    by_uniform, by_random = np.random.default_rng(3), np.random.default_rng(3)
    for zm in z_max.tolist():
        assert by_uniform.uniform(-zm, zm) == 2.0 * (zm * by_random.random() - 0.5 * zm)


def test_frontier_numeric_matches_closed_form():
    for d in np.linspace(-1.5, 1.5, 13):
        numeric = max_swap_logneg_at_asymmetry(float(d), 10.0)
        analytic = frontier_closed_form(float(d), 10.0)
        assert numeric == pytest.approx(analytic, abs=1e-6)


@pytest.mark.parametrize("x_max", [200.0, 300.0, 1000.0])
def test_frontier_numeric_matches_closed_form_at_large_caps(x_max):
    # the output's slope in z near the physical boundary grows with x, so the
    # z search must hold the closed form at large caps as well
    for d in (0.0, 0.5, -0.5, 2.0):
        numeric = max_swap_logneg_at_asymmetry(d, x_max)
        assert numeric == pytest.approx(frontier_closed_form(d, x_max), abs=1e-9)


@pytest.mark.parametrize("x_max, bound", [(10.0, 1e-12), (1e3, 1e-8), (1e4, 1e-6)])
def test_frontier_drift_over_the_default_grid_stays_below_1e_6_to_1e4(x_max, bound):
    # the z search's rounding grows with the cap: over the default 31-point
    # d grid the largest gap to the closed form reads 2.3e-14 at x_max 10,
    # 1.2e-10 at 1e3 and 1.7e-8 at 1e4 (2.6e-6 at 1e5, past the 1e-6 the
    # checks use)
    gap = max(
        abs(max_swap_logneg_at_asymmetry(float(d), x_max) - frontier_closed_form(float(d), x_max))
        for d in np.linspace(-1.5, 1.5, 31)
    )
    assert gap < bound


@settings(max_examples=150, deadline=None)
@given(
    x_max=st.floats(1.0 + 1e-7, 1e3),
    frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_frontier_grid_peaks_at_the_cap(x_max, frac):
    # On the boundary z^2 = xy - 1 - |x - y| the output is ln(x / (1 + 2|d|)),
    # increasing in x, so the last grid point (x at its cap) holds the maximum
    # and the search needs no refinement over x.
    d = frac * (x_max - 1.0) / 2.0
    lo, hi = max(1.0, 1.0 + 2.0 * d), min(x_max, x_max + 2.0 * d)
    # frac * (x_max - 1) / 2 can round onto the feasibility limit, or to
    # within a few ulps of it, where the grid holds a handful of distinct
    # doubles and every value is rounding noise
    assume(hi - lo > 8 * np.spacing(hi))
    vals = _best_over_z(d, np.linspace(lo, hi, _FRONTIER_GRID))
    assert vals[-1] == np.max(vals)
    assert max_swap_logneg_at_asymmetry(d, x_max) == vals[-1]


def test_frontier_at_a_range_one_ulp_wide():
    # the draw the grid-peak property skips: hi - lo is one ulp, and the
    # search still meets the closed form
    x_max, frac = 64.35640577868442, 0.9999999999999999
    d = frac * (x_max - 1.0) / 2.0
    assert min(x_max, x_max + 2.0 * d) - max(1.0, 1.0 + 2.0 * d) == np.spacing(x_max)
    numeric = max_swap_logneg_at_asymmetry(d, x_max)
    assert numeric == pytest.approx(frontier_closed_form(d, x_max), abs=1e-9)


@pytest.mark.parametrize("x_max", [1e8, 1e150])
def test_frontier_refuses_a_value_that_is_not_finite(x_max):
    # at these caps y - z^2/x rounds to zero or below near the boundary for
    # some d of the default grid, so the search reads inf or NaN: it raises
    # instead of returning it
    with pytest.raises(FloatingPointError, match="frontier search"):
        for d in np.linspace(-1.5, 1.5, 31):
            max_swap_logneg_at_asymmetry(float(d), x_max)


def test_frontier_symmetric_point_is_log_xmax():
    assert frontier_closed_form(0.0, 10.0) == pytest.approx(np.log(10.0), abs=1e-12)
    assert max_swap_logneg_at_asymmetry(0.0, 10.0) == pytest.approx(np.log(10.0), abs=1e-6)


def test_frontier_curve_monotone_away_from_symmetry():
    ds = np.linspace(0.0, 1.5, 7)
    curve = np.array([max_swap_logneg_at_asymmetry(d, 10.0) for d in ds])
    assert np.all(np.diff(curve) < 0.0)
    with pytest.raises(ValueError):
        frontier_closed_form(-5.0, 10.0)


_XS = {
    # (d, xs): the frontier's first x has z_max = 0, a zero-width interval,
    # which sends np.linspace down its (j / (P - 1)) * width branch for every
    # x; j * step and (j / (P - 1)) * width differ in the last bit for some,
    # and so does the last grid point z_max from 96 steps
    "zero-width member": (0.3, np.linspace(1.6, 10.0, _FRONTIER_GRID)),
    "zero-width member, d < 0": (-0.4, np.linspace(1.0, 9.2, _FRONTIER_GRID)),
    "positive widths": (-0.7, np.random.default_rng(24).uniform(1.5, 50.0, 400)),
    # near the cap, y - z^2/x cancels to a few digits, so a last-bit change
    # in any grid point would show in the value
    "positive widths near fig2b's largest cap": (0.5, np.random.default_rng(26).uniform(1e3, 1e5, 400)),
    "symmetric": (0.0, np.random.default_rng(27).uniform(1.01, 10.0, 400)),
    "one x": (0.0, np.array([3.0])),
    # the frontier's own x grid at larger caps, whose first x has z_max = 0;
    # at 1e150 y - z^2/x cancels to zero or below and at 1e200 xy overflows,
    # so some rows read inf or NaN and the search refuses the cap
    **{
        f"zero-width member, frontier grid at x_max {x_max:g}": (
            0.5,
            np.linspace(*_feasible_x_range(0.5, x_max), _FRONTIER_GRID),
        )
        for x_max in (1e3, 1e5, 1e150, 1e200)
    },
}


@pytest.mark.parametrize("case", list(_XS))
def test_best_over_z_matches_the_linspace_reference_bit_for_bit(case):
    # one level of np.linspace's grid over every x's z interval, scored out
    # of place, gives the in-place search's values bit for bit
    d, xs = _XS[case]
    ys = xs - 2.0 * d
    x, y = xs[:, None], ys[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zm = np.sqrt(np.maximum(xs * ys - 1.0 - np.abs(xs - ys), 0.0))
        _, want = grid_max_linspace(lambda z: -np.log(y - z * z / x), np.zeros(len(xs)), zm, 1)
        got = _best_over_z(d, xs)
    assert (zm == 0).any() == case.startswith("zero-width member")
    refused = case.endswith(("1e+150", "1e+200"))
    assert np.isfinite(want).all() != refused
    assert got.shape == want.shape and np.array_equal(got, np.maximum(want, 0.0), equal_nan=True)


def test_frontier_matches_the_linspace_reference_on_the_fig2b_grid():
    # fig2b's default d grid at its default cap and above: the in-place z
    # scoring and the buffered grid give the out-of-place search's values
    for x_max in (10.0, 50.0, 1e3, 1e4, 1e5):
        for d in np.linspace(-1.5, 1.5, 31):
            got = max_swap_logneg_at_asymmetry(float(d), x_max)
            assert got.hex() == frontier_linspace(float(d), x_max).hex(), (d, x_max)


@pytest.mark.parametrize("x_max", [1.0 + 1e-12, 1e8, 1e150, 1e200, 1e300, 1.7e308])
def test_frontier_at_extreme_caps_matches_the_linspace_reference(x_max):
    # a value where both give one, and the same exception type where the
    # reference raises: FloatingPointError for a non-finite search,
    # ValueError for an empty x range
    for d in [*np.linspace(-4.5, 4.5, 19), (x_max - 1.0) / 2.0, -(x_max - 1.0) / 2.0, math.inf]:
        outcomes = []
        for search in (max_swap_logneg_at_asymmetry, frontier_linspace):
            try:
                outcomes.append(search(float(d), x_max).hex())
            except (FloatingPointError, ValueError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], (d, x_max)
