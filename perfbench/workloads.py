"""The benchmark's four workloads: seeded inputs, the timed item, its row and its check.

An *item* is one unit of work; a *pass* runs every item of a workload once
and writes their rows with ``cli.write_table``. ``make_inputs`` builds one
pass's inputs from a seed, ``run_item`` is the only code the item timer
covers, and ``check`` runs afterwards, outside every timed interval.

Library calls go through module attributes (``relay.bell_detect``, not a
name imported into this file) so that the tracer's rebinding of those names
reaches them. Only public names the library keeps are driven; the ``*_raw``
oracle twins are not.

Checks use only tolerances the test suite already freezes:

* closed form vs pipeline, max-abs < 1e-9 (acceptance criterion 1);
* pairwise and block formulas vs oracles < 1e-9, GLE formula vs optimizer
  < 1e-6 (criterion 2), fig2b frontier vs closed form < 1e-6
  (test_sources);
* Lyapunov residual < 1e-10, bona-fide margin 1e-9 and
  E_pair <= E_in + 1e-12 (test_optomech).

They assert physical invariants only, never the symmetric-state bound or
positive mirror-mirror entanglement that criteria 4, 5c and 5d deny.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cvswap import analysis, gaussian, optomech, relay, sources
from reference import Reference

X_MAX = 10.0  # the sampler and fig2b variance cap used by swap-check and fig2b
SWAP_SMALL_N = tuple(range(2, 9))
SWAP_LARGE_N = (16, 24, 32)
ORACLE_N = tuple(range(3, 9))  # N = 2 is skipped: gle_numeric returns at once there
OPTOMECH_G_MHZ = (4.0, 8.0, 8.5)


@dataclass(frozen=True)
class Workload:
    name: str
    pass_items: int
    columns: tuple
    make_inputs: Callable[[int, int], list]
    run_item: Callable[[Any], tuple]
    check: Callable[[Any, Any], str | None]
    reference: Reference  # gauges the host's speed between items


# --- swap-small / swap-large: the swap-check pipeline -----------------------


def _swap_inputs(n_list):
    def make(seed, n_items):
        rng = np.random.default_rng(seed)
        n_states = -(-n_items // len(n_list))
        states = [sources.sample_normal_form(rng, X_MAX) for _ in range(n_states)]
        return [(k, nf, n) for k, nf in enumerate(states) for n in n_list][:n_items]

    return make


def _swap_item(inp):
    k, nf, n = inp
    closed = relay.cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
    piped, _ = relay.bell_detect([nf.state() for _ in range(n)], relay.build_relay(n))
    err = float(np.max(np.abs(closed - piped.cov)))
    return (k, n, nf.x, nf.y, nf.z, err), err


def _swap_check(inp, err):
    if not err < 1e-9:
        return f"closed form vs pipeline deviation {err:.3e} at N = {inp[2]}"
    return None


# --- oracle-check: criterion-2 network points plus one fig2b frontier point --


def _oracle_inputs(seed, n_items):
    """Network points over the criterion-2 ranges, N cycling through ``ORACLE_N``.

    The points of each N form a Latin hypercube: every one of its k points
    takes a different k-th of each range of mu, eta and omega. The
    optimizer's cost depends on the point, so this keeps the cost of a pass
    from drifting with the seed as an independent draw would.
    """
    rng = np.random.default_rng(seed)
    ds = np.linspace(-1.5, 1.5, n_items)
    k = -(-n_items // len(ORACLE_N))
    strata = {n: [(rng.permutation(k) + rng.uniform(0.0, 1.0, k)) / k for _ in range(3)] for n in ORACLE_N}
    inputs = []
    for i in range(n_items):
        n = ORACLE_N[i % len(ORACLE_N)]
        u_mu, u_eta, u_omega = (u[i // len(ORACLE_N)] for u in strata[n])
        pt = analysis.NetworkPoint(
            mu=float(1.0 + 9.0 * u_mu),
            eta=float(0.1 + 0.9 * u_eta),
            omega=float(1.0 + 4.0 * u_omega),
            n_users=n,
        )
        inputs.append((pt, float(ds[i])))
    return inputs


def _oracle_item(inp):
    pt, d = inp
    cm = analysis.network_cluster_cm(pt)
    pair = analysis.pairwise_logneg_numeric(cm)
    blocks = [
        analysis.block_logneg_numeric(cm, range(k), range(k, 2 * k))
        for k in range(1, pt.n_users // 2 + 1)
    ]
    gle = analysis.gle_numeric(cm)
    frontier = sources.max_swap_logneg_at_asymmetry(d, X_MAX)
    row = (pt.mu, pt.eta, pt.omega, pt.n_users, pair, blocks[-1], gle, d, frontier)
    return row, (pair, blocks, gle, frontier)


def _oracle_check(inp, evidence):
    pt, d = inp
    pair, blocks, gle, frontier = evidence
    err = abs(pair - analysis.pairwise_logneg_formula(pt))
    if not err < 1e-9:
        return f"pairwise oracle vs formula {err:.3e}"
    for k, value in enumerate(blocks, start=1):
        err = abs(value - analysis.block_logneg_formula(pt, k))
        if not err < 1e-9:
            return f"block oracle vs formula {err:.3e} at n' = {k}"
    err = abs(gle - analysis.gle_formula(pt))
    if not err < 1e-6:
        return f"GLE optimizer vs formula {err:.3e}"
    err = abs(frontier - sources.frontier_closed_form(d, X_MAX))
    if not err < 1e-6:
        return f"frontier search vs closed form {err:.3e} at d = {d}"
    return None


# --- optomech-sweep: fig2c detuning points ----------------------------------


def _optomech_inputs(seed, n_items):
    """A jittered detuning grid on [0, 1.5) omega_m for each coupling."""
    rng = np.random.default_rng(seed)
    per_g = -(-n_items // len(OPTOMECH_G_MHZ))
    inputs = []
    for g_mhz in OPTOMECH_G_MHZ:
        base = optomech.standard_params(
            g_eff=2 * np.pi * g_mhz * 1e6, kappa_convention="angular", temp=0.4e-3
        )
        ratios = (np.arange(per_g) + rng.uniform(0.0, 1.0, per_g)) * (1.5 / per_g)
        inputs.extend((g_mhz, base, float(r)) for r in ratios)
    return inputs[:n_items]


def _optomech_item(inp):
    g_mhz, base, ratio = inp
    (row,) = optomech.detuning_sweep(base, [ratio * base.omega_m], n_users=(2,))
    return (g_mhz,) + row, row


def _optomech_check(inp, row):
    g_mhz, base, ratio = inp
    _, _, e_in, e_pair, stable = row
    p = base.with_delta(ratio * base.omega_m)
    A, D = optomech.drift_diffusion(p)
    if not stable:
        if optomech.is_stable(A) or not (np.isnan(e_in) and np.isnan(e_pair)):
            return "unstable flag disagrees with the drift matrix or carries values"
        return None
    state = optomech.steady_state_cm(p)
    # residual of the returned state itself, in the solver's (q, p, X, P) order
    order = [2, 3, 0, 1]
    V = state.cov[np.ix_(order, order)]
    An, Dn = A / p.omega_m, D / p.omega_m
    residual = np.max(np.abs(An @ V + V @ An.T + Dn)) / np.max(np.abs(Dn))
    if not residual < 1e-10:
        return f"Lyapunov residual {residual:.3e}"
    nu_min = gaussian.symplectic_eigenvalues(state.cov)[0]
    if not nu_min >= 1.0 - 1e-9:
        return f"steady state not bona fide: nu_min = {nu_min!r}"
    if not e_pair <= e_in + 1e-12:
        return f"swap gained entanglement: E_pair {e_pair!r} > E_in {e_in!r}"
    return None


# why each workload exists, and which layer it loads: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="swap-small",
            pass_items=200 * len(SWAP_SMALL_N),
            columns=("sample", "n", "x", "y", "z", "max_abs_error"),
            make_inputs=_swap_inputs(SWAP_SMALL_N),
            run_item=_swap_item,
            check=_swap_check,
            reference=Reference(widths=(16, 32, 48, 64), rounds=8, nominal_s=0.012),
        ),
        Workload(
            name="swap-large",
            pass_items=20 * len(SWAP_LARGE_N),
            columns=("sample", "n", "x", "y", "z", "max_abs_error"),
            make_inputs=_swap_inputs(SWAP_LARGE_N),
            run_item=_swap_item,
            check=_swap_check,
            reference=Reference(widths=(128, 256), rounds=1, nominal_s=0.031),
        ),
        Workload(
            name="oracle-check",
            pass_items=4 * len(ORACLE_N),
            columns=("mu", "eta", "omega", "n", "e_pair", "e_block_half", "gle", "d", "e_frontier"),
            make_inputs=_oracle_inputs,
            run_item=_oracle_item,
            check=_oracle_check,
            reference=Reference(widths=(6, 8, 12, 16), rounds=80, nominal_s=0.0093),
        ),
        Workload(
            name="optomech-sweep",
            pass_items=100 * len(OPTOMECH_G_MHZ),
            columns=("g_eff_mhz", "delta_over_omega_m", "n", "e_in_optomech", "e_mech_pairwise", "stable"),
            make_inputs=_optomech_inputs,
            run_item=_optomech_item,
            check=_optomech_check,
            reference=Reference(widths=(4, 8), rounds=300, nominal_s=0.0103),
        ),
    )
}
