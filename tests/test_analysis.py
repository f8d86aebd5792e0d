import numpy as np
import pytest

from cvswap.analysis import (
    NetworkPoint,
    block_logneg_formula,
    block_logneg_numeric,
    block_logneg_numeric_raw,
    e2_formula,
    full_house_logneg,
    gle_formula,
    gle_numeric,
    network_cluster_cm,
    pairwise_logneg_formula,
    pairwise_logneg_numeric,
    pairwise_logneg_numeric_raw,
    swap_logneg_two,
    tmsv_swap_bound,
)
from cvswap.gaussian import PhysicalityError, tensor, vacuum
from cvswap.sources import tmsv


def test_network_point_validation():
    with pytest.raises(ValueError):
        NetworkPoint(0.5, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        NetworkPoint(2.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        NetworkPoint(2.0, 1.0, 0.5, 2)
    with pytest.raises(ValueError):
        NetworkPoint(2.0, 1.0, 1.0, 1)


def test_alpha_is_recomputed():
    pt = NetworkPoint(2.0, 0.8, 1.3, 5)
    expected = 0.8 * (4.0 - 1.0) / (0.8 + 0.2 * 2.0 * 1.3)
    assert pt.alpha == pytest.approx(expected, rel=1e-15)


# values computed independently from the printed formulas before this
# module was written
REFERENCE_POINT = dict(mu=2.0, eta=0.8, omega=1.3)
REFERENCE_VALUES = {
    "e2": 0.3429447511268306,
    "alpha": 1.8181818181818186,
    "pairwise_raw": {3: 0.10605257508400975, 5: -0.025854720438559076, 8: -0.08715588148472525},
    "gle": {3: 0.2218747251243982, 5: 0.09817063846747764, 8: 0.01224551000414803},
}


def test_frozen_reference_values():
    for n, expected in REFERENCE_VALUES["pairwise_raw"].items():
        pt = NetworkPoint(n_users=n, **REFERENCE_POINT)
        assert pt.alpha == pytest.approx(REFERENCE_VALUES["alpha"], rel=1e-12)
        assert e2_formula(pt) == pytest.approx(REFERENCE_VALUES["e2"], rel=1e-12)
        assert pairwise_logneg_formula(pt, clamped=False) == pytest.approx(expected, rel=1e-12)
        assert gle_formula(pt) == pytest.approx(REFERENCE_VALUES["gle"][n], rel=1e-12)
    pt6 = NetworkPoint(n_users=6, **REFERENCE_POINT)
    assert block_logneg_formula(pt6, 2, clamped=False) == pytest.approx(
        0.10605257508400975, rel=1e-12
    )


def test_pairwise_formula_lossless_cases():
    # eta = 1: the relay is fed pure TMSVs
    pt = NetworkPoint(5.0 / 3.0, 1.0, 1.0, 2)
    assert pairwise_logneg_formula(pt) == pytest.approx(np.log(5.0 / 3.0), abs=1e-12)
    pt4 = NetworkPoint(5.0 / 3.0, 1.0, 1.0, 4)
    expected = np.log(5.0 / 3.0) - 0.5 * np.log(17.0 / 9.0)
    assert pairwise_logneg_formula(pt4) == pytest.approx(expected, abs=1e-12)
    assert pairwise_logneg_formula(pt4) == pytest.approx(0.19283, abs=5e-6)


def test_no_input_entanglement_means_zero_everywhere():
    for n in (2, 3, 8):
        pt = NetworkPoint(1.0, 0.7, 2.0, n)
        assert pairwise_logneg_formula(pt) == 0.0
        assert gle_formula(pt) == 0.0
        assert block_logneg_formula(pt, n // 2) == 0.0
        # the numeric side sees a product of thermals
        assert pairwise_logneg_numeric(network_cluster_cm(pt)) == 0.0


def test_gle_reduces_to_e2_for_two_users():
    pt = NetworkPoint(3.0, 0.6, 1.5, 2)
    assert gle_formula(pt) == e2_formula(pt)


def test_gle_alpha_zero_is_regular():
    # mu = 1 gives alpha = 0; the correction must vanish, not blow up
    pt = NetworkPoint(1.0, 0.5, 2.0, 6)
    assert gle_formula(pt, clamped=False) == e2_formula(pt, clamped=False)


def test_block_edge_cases():
    pt = NetworkPoint(4.0, 0.9, 1.2, 6)
    assert block_logneg_formula(pt, 1) == pairwise_logneg_formula(pt)
    assert full_house_logneg(pt) == e2_formula(pt)
    with pytest.raises(ValueError):
        block_logneg_formula(pt, 4)
    with pytest.raises(ValueError):
        block_logneg_formula(pt, 0)
    with pytest.raises(ValueError):
        full_house_logneg(NetworkPoint(4.0, 0.9, 1.2, 5))


def test_pairwise_numeric_matches_formula():
    rng = np.random.default_rng(31)
    for _ in range(30):
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(10)))),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
            int(rng.integers(2, 9)),
        )
        cm = network_cluster_cm(pt)
        raw = pairwise_logneg_formula(pt, clamped=False)
        assert pairwise_logneg_numeric_raw(cm) == pytest.approx(raw, abs=1e-9)
        assert pairwise_logneg_numeric(cm) == pytest.approx(
            pairwise_logneg_formula(pt), abs=1e-9
        )


def test_pairwise_numeric_pair_choice_is_irrelevant():
    pt = NetworkPoint(4.0, 0.85, 1.4, 5)
    cm = network_cluster_cm(pt)
    values = {
        pairwise_logneg_numeric(cm, i, j)
        for i, j in [(0, 1), (0, 4), (2, 3), (1, 3)]
    }
    assert max(values) - min(values) < 1e-10


def test_pipeline_cluster_equals_closed_form_cluster():
    pt = NetworkPoint(3.0, 0.75, 1.6, 4)
    np.testing.assert_allclose(
        network_cluster_cm(pt, pipeline=True), network_cluster_cm(pt), atol=1e-10
    )


def test_gle_numeric_matches_formula_lossless():
    # eta = 1, mu = 2 over small relays
    for n in (3, 4, 5):
        pt = NetworkPoint(2.0, 1.0, 1.0, n)
        value = gle_numeric(network_cluster_cm(pt))
        assert value == pytest.approx(gle_formula(pt), abs=1e-6)


def test_gle_numeric_escapes_separable_plateau():
    # At strong squeezing and high transmissivity every homodyne pattern that
    # mixes in X measurements leaves the pair separable, so an ascent started
    # blindly at the X corner would stall at zero; the common-angle seeding
    # must still find the all-P optimum.
    pt = NetworkPoint(9.65480694424593, 0.9196266789583959, 1.5133378101077652, 7)
    value = gle_numeric(network_cluster_cm(pt))
    assert value == pytest.approx(0.8610847463670371, abs=1e-9)
    assert value == pytest.approx(gle_formula(pt), abs=1e-9)


def test_gle_numeric_pair_choice_is_irrelevant():
    cm = network_cluster_cm(NetworkPoint(3.0, 0.8, 1.2, 5))
    value = gle_numeric(cm)
    assert gle_numeric(cm, 2, 4) == pytest.approx(value, abs=1e-9)
    assert gle_numeric(cm, 4, 2) == pytest.approx(value, abs=1e-9)


def test_gle_numeric_keeps_the_requested_pair():
    # a TMSV on modes (0, 1) next to a vacuum mode 2: only pairs inside the
    # TMSV carry entanglement, whichever mode is measured
    cm = tensor(tmsv(3.0).state(), vacuum(1)).cov
    e_tmsv = np.log(3.0 + np.sqrt(8.0))
    assert gle_numeric(cm, 1, 0) == pytest.approx(e_tmsv, abs=1e-9)
    assert gle_numeric(cm, 0, 2) == pytest.approx(0.0, abs=1e-9)
    assert gle_numeric(cm, 2, 1) == pytest.approx(0.0, abs=1e-9)


def test_gle_numeric_rejects_bad_pair():
    cm = network_cluster_cm(NetworkPoint(3.0, 0.8, 1.2, 5))
    with pytest.raises(ValueError, match="duplicate mode indices"):
        gle_numeric(cm, 1, 1)
    with pytest.raises(IndexError, match="out of range"):
        gle_numeric(cm, 0, 7)
    with pytest.raises(IndexError, match="out of range"):
        gle_numeric(cm, -1, 2)


def test_gle_numeric_rejects_unphysical_input():
    # an assisting mode with variance below vacuum in both quadratures is no
    # state, whatever the pair holds
    for pair, assist in ((vacuum(2).cov, 0.5), (tmsv(3.0).cov(), 0.3)):
        cm = np.zeros((6, 6))
        cm[:4, :4] = pair
        cm[4:, 4:] = assist * np.eye(2)
        with pytest.raises(PhysicalityError):
            gle_numeric(cm)


def test_gle_numeric_dominates_pairwise():
    rng = np.random.default_rng(37)
    for _ in range(5):
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(6)))),
            rng.uniform(0.3, 1.0),
            rng.uniform(1.0, 3.0),
            int(rng.integers(3, 7)),
        )
        cm = network_cluster_cm(pt)
        assert gle_numeric(cm) >= pairwise_logneg_numeric(cm) - 1e-12


def test_block_numeric_matches_formula():
    rng = np.random.default_rng(41)
    for _ in range(50):
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(10)))),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
            6,
        )
        cm = network_cluster_cm(pt)
        for n_prime in (1, 2, 3):
            groups = (range(n_prime), range(n_prime, 2 * n_prime))
            raw = block_logneg_formula(pt, n_prime, clamped=False)
            assert block_logneg_numeric_raw(cm, *groups) == pytest.approx(raw, abs=1e-9)
            assert block_logneg_numeric(cm, *groups) == pytest.approx(
                block_logneg_formula(pt, n_prime), abs=1e-9
            )


def test_block_numeric_rejects_overlap():
    cm = network_cluster_cm(NetworkPoint(2.0, 1.0, 1.0, 4))
    with pytest.raises(ValueError):
        block_logneg_numeric(cm, [0, 1], [1, 2])


def test_pairwise_strictly_decreasing_in_n():
    for mu, eta, omega in [(2.0, 0.8, 1.3), (5.0, 0.95, 1.0), (10.0, 0.5, 2.0)]:
        raw = [
            pairwise_logneg_formula(NetworkPoint(mu, eta, omega, n), clamped=False)
            for n in range(2, 17)
        ]
        assert np.all(np.diff(raw) < 0.0)


def test_ordering_chain_block_gle_pairwise():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 9)) * 2  # even so the full house exists
        pt = NetworkPoint(
            float(np.exp(rng.uniform(0, np.log(10)))),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
            n,
        )
        e2 = e2_formula(pt)
        assert full_house_logneg(pt) == e2
        assert e2 >= gle_formula(pt) - 1e-9
        assert gle_formula(pt) >= pairwise_logneg_formula(pt) - 1e-9


def test_swap_logneg_two_on_tmsv():
    for mu in (1.5, 3.0, 20.0):
        nf = tmsv(mu)
        assert swap_logneg_two(nf.x, nf.y, nf.z) == pytest.approx(np.log(mu), abs=1e-12)
    with pytest.raises(ValueError):
        swap_logneg_two(1.5, 1.5, 1.6)


def test_tmsv_bound_is_attained_by_tmsv():
    for mu in (1.0, 2.0, 8.0):
        nf = tmsv(mu)
        bound = tmsv_swap_bound(nf.log_negativity())
        assert bound == pytest.approx(np.log(mu), abs=1e-12)
