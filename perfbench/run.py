"""cvswap benchmark: seeded workloads timed end to end, or traced layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload swap-small --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

The library is imported from ``src/`` next to this directory; without it the
run stops with exit code 2. BLAS and OpenMP are pinned to one thread before
numpy loads, and the CLI's worker pool is never used.

With ``--trace 0`` the run sets up the workload in fresh interpreters
(``setup_s``), then repeats passes over one seeded input set until the next
pass would overrun ``--seconds``, and reports the end-to-end metrics from
each item's median time over the passes. Every time is scaled to the host's
speed, which the workload's ``reference.Reference`` kernel gauges between
the items (see ``reference.py``). With ``--trace 1`` it alternates untraced
passes with passes that have every ``tracing.TRACED`` name wrapped, and
reports per-layer metrics per pass (input generation counted once).
Correctness checks run after the timed passes. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("swap-small", "swap-large", "oracle-check", "optomech-sweep")
SETUP_REPS = 6  # half before the passes, half after: the machine's load drifts
SETUP_PROBES = 3  # reference probes that gauge the host before each set-up
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_SHARE = 0.1  # about the share of a pass that reference probes add

# end-to-end metric -> unit; failed_frac is printed but left out of the JSON
# metrics because it is 0 on every workload
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric names, all measured per pass
PER_LAYER = (
    "gaussian.GaussianState.calls",
    "gaussian.GaussianState.self_ms",
    "gaussian.symplectic_eigenvalues.calls",
    "gaussian.symplectic_eigenvalues.self_ms",
    "gaussian.apply_symplectic.self_ms",
    "relay.bell_detect.calls",
    "relay.bell_detect.self_ms",
    "relay.homodyne_condition.calls",
    "relay.homodyne_condition.self_ms",
    "relay.embed_orthogonal.self_ms",
    "relay.cluster_closed_form.self_ms",
    "gaussian.log_negativity.calls",
    "gaussian.log_negativity.self_ms",
    "analysis.gle_numeric.calls",
    "analysis.gle_numeric.self_ms",
    "analysis.gle_numeric.evals_per_call",
    "analysis.pairwise_logneg_numeric.self_ms",
    "analysis.block_logneg_numeric.self_ms",
    "sources.max_swap_logneg_at_asymmetry.self_ms",
    "sources.sample_normal_form.calls",
    "sources.sample_normal_form.self_ms",
    "optomech.steady_state_cm.calls",
    "optomech.steady_state_cm.self_ms",
    "optomech.is_stable.calls",
    "optomech.mechanical_cluster.self_ms",
    "gaussian.two_mode_standard_form.self_ms",
    "cli.write_table.self_ms",
    "trace.overhead_frac",
)
PER_LAYER_UNITS = {"calls": "count/pass", "self_ms": "ms/pass", "evals_per_call": "count", "overhead_frac": "ratio"}


@dataclass
class Pass:
    wall: float  # the items plus the final write_table, probes left out
    item_s: list  # wall time of each item
    write_s: float  # wall time of the final write_table
    probe_s: list  # reference-kernel times taken between the items
    outcomes: list  # (input, evidence, raised) per item
    table: bytes  # the rows file as written


def _pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "seed": seed,
    }
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    return env


def setup(name: str, seed: int, items: int | None):
    """Import the library, build one pass's inputs and run one warm-up item."""
    started = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed, items or wl.pass_items)
    wl.run_item(inputs[0])
    return time.perf_counter() - started, wl, inputs


def setup_seconds(wl, seed: int, items: int | None, reps: int) -> list:
    """``setup`` timed in fresh interpreters, so imports are paid every time.

    Each time is scaled to the host's speed like a pass's, by the median of
    ``SETUP_PROBES`` reference probes run just before that interpreter.
    """
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", wl.name, "--seed", str(seed)]
    if items:
        cmd += ["--items", str(items)]
    times = []
    for _ in range(reps):
        probe = statistics.median(wl.reference.probe() for _ in range(SETUP_PROBES))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) * wl.reference.nominal_s / probe)
    return times


def run_pass(wl, inputs, path, tracer=None) -> Pass:
    """One pass; the workload's reference probe runs after every ``every_s`` of item time."""
    from cvswap import cli

    clock = time.perf_counter
    item_s, probe_s, rows, outcomes = [], [], [], []
    due = 0.0
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            row, evidence = wl.run_item(inp)
        except Exception as exc:  # counted as a failed item
            row, evidence = None, exc
        item_s.append(clock() - t0)
        if row is not None:
            rows.append(row)
        outcomes.append((inp, evidence, row is None))
        due += item_s[-1]
        while due >= wl.reference.every_s:
            probe_s.append(wl.reference.probe())
            due -= wl.reference.every_s
    if tracer is not None:
        tracer.item = -1
    t0 = clock()
    cli.write_table(path, "csv", wl.columns, rows)
    write_s = clock() - t0
    probe_s.append(wl.reference.probe())
    return Pass(sum(item_s) + write_s, item_s, write_s, probe_s, outcomes, path.read_bytes())


def run_passes(wl, inputs, seconds, path) -> list:
    """Passes until the next one, as long as the last, would overrun ``seconds``."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(wl, inputs, path))
        if time.perf_counter() - started + passes[-1].wall * (1 + PROBE_SHARE) > seconds:
            return passes


def count_failures(wl, passes) -> int:
    failed = 0
    for p in passes:
        for i, (inp, evidence, raised) in enumerate(p.outcomes):
            reason = repr(evidence) if raised else wl.check(inp, evidence)
            if reason is not None:
                failed += 1
                print(f"FAILED {wl.name} item {i}: {reason}", file=sys.stderr)
    return failed


def tail_percentile(pass_items: int) -> float:
    """The highest percentile with at least ten of one pass's items beyond it."""
    return 100.0 * (1.0 - 10.0 / pass_items) if pass_items >= 20 else 50.0


def host_scale(wl, p: Pass) -> float:
    """The reference's nominal time over its median in the pass: < 1 on a slow host."""
    return wl.reference.nominal_s / statistics.median(p.probe_s)


def end_to_end(wl, passes, setup_times) -> tuple:
    """Medians over the passes, each pass scaled to the host speed its probes saw.

    The host's speed drifts between passes and between runs, so every time
    a pass measures is multiplied by its ``host_scale``: the reference
    kernel, interleaved with the items, slows down with them. Every pass
    repeats the same items, so each item's median over the passes is its
    time, and a pass is timed as the sum of those medians plus the median
    ``write_table``.
    """
    import numpy as np

    scales = np.array([host_scale(wl, p) for p in passes])
    n = len(passes[0].item_s)
    item_ms = np.median(np.array([p.item_s for p in passes]) * scales[:, None], axis=0) * 1e3
    write_s = float(np.median(np.array([p.write_s for p in passes]) * scales))
    q = tail_percentile(n)
    metrics = {
        "items_per_s": n / (float(np.sum(item_ms)) / 1e3 + write_s),
        "item_ms_p50": float(np.median(item_ms)),
        "item_ms_tail": float(np.percentile(item_ms, q)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = int(np.sum(item_ms > metrics["item_ms_tail"]))
    k = len(passes)
    probes = sum(len(p.probe_s) for p in passes)
    host = f"host scale {np.median(scales):.3f} ({scales.min():.3f}-{scales.max():.3f}) from {probes} probes"
    notes = {
        "items_per_s": f"{n} items, each its median of {k} scaled passes, plus write_table; {host}",
        "item_ms_p50": f"median of {n} items, each its median of {k} scaled passes",
        "item_ms_tail": f"p{q:.2f} of {n} items, each its median of {k} scaled passes; {beyond} beyond",
        "setup_s": f"median of {len(setup_times)} fresh interpreters, each scaled by the probes before it",
    }
    return metrics, notes


def per_layer(gen_tracer, pass_tracer, n_passes, overhead) -> dict:
    gen_calls, gen_self = gen_tracer.totals()
    calls, self_s = pass_tracer.totals()
    metrics = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            metrics[metric] = gen_calls[name] + calls[name] / n_passes
        elif kind == "self_ms":
            metrics[metric] = 1e3 * (gen_self[name] + self_s[name] / n_passes)
    gle_calls = calls["analysis.gle_numeric"]
    evals = pass_tracer.calls_under("gaussian.log_negativity", "analysis.gle_numeric")
    metrics["analysis.gle_numeric.evals_per_call"] = evals / gle_calls if gle_calls else 0.0
    metrics["trace.overhead_frac"] = overhead
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, items: int | None = None) -> dict:
    from tracing import Tracer

    _, wl, inputs = setup(name, seed, items)
    OUT_DIR.mkdir(exist_ok=True)
    table = OUT_DIR / f"{name}.csv"
    if not trace:
        setup_times = setup_seconds(wl, seed, items, SETUP_REPS // 2)
        passes = run_passes(wl, inputs, seconds, table)
        setup_times += setup_seconds(wl, seed, items, SETUP_REPS - SETUP_REPS // 2)
        metrics, notes = end_to_end(wl, passes, setup_times)
        units = END_TO_END_UNITS
    else:
        with Tracer(name) as gen_tracer:
            inputs = wl.make_inputs(seed, items or wl.pass_items)
        # untraced and traced passes alternate, so both see the same machine load
        pass_tracer, passes, traced = Tracer(name), [], []
        started = time.perf_counter()
        while not passes or (
            time.perf_counter() - started + (passes[-1].wall + traced[-1].wall) * (1 + PROBE_SHARE) <= seconds
        ):
            passes.append(run_pass(wl, inputs, table))
            with pass_tracer:
                traced.append(run_pass(wl, inputs, table, pass_tracer))
        overhead = min(p.wall for p in traced) / min(p.wall for p in passes) - 1.0
        metrics = per_layer(gen_tracer, pass_tracer, len(traced), overhead)
        pass_tracer.write_spans(OUT_DIR / f"{name}.spans.csv")
        units = {m: PER_LAYER_UNITS[m.rpartition(".")[2]] for m in PER_LAYER}
        notes = {m: f"per pass, {len(traced)} traced passes" for m in PER_LAYER if m != "trace.overhead_frac"}
        passes = passes + traced
    failed = count_failures(wl, passes)
    attempted = sum(len(p.item_s) for p in passes)
    identical = all(p.table == passes[0].table for p in passes)
    if not identical:
        print(f"FAILED {name}: written rows differ between passes", file=sys.stderr)
    return {
        "workload": name,
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": units,
        "notes": notes,
    }


def report(result: dict, trace: bool):
    print(f"== {result['workload']}  ({'traced' if trace else 'end to end'})")
    for metric, value in result["metrics"].items():
        note = result["notes"].get(metric)
        print(f"  {metric:44s} {value:14.6g} {result['units'][metric]:10s} {'(' + note + ')' if note else ''}")
    if not trace:
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':44s} {frac:14.6g} {'ratio':10s} ({result['failed']} of {result['attempted']} items)")


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None, help="items per pass (default: the workload's own; for self-tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _pin_threads()
    if not (SRC / "cvswap" / "__init__.py").is_file():
        print(f"error: the cvswap sources are missing from {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup(args.workload, args.seed, args.items)[0])
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, trace, args.items))
        report(results[-1], trace)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    def entry(result, metric):
        return {"value": result["metrics"][metric], "unit": result["units"][metric]}

    if len(results) == 1:
        metrics = {m: entry(results[0], m) for m in results[0]["metrics"]}
    else:
        metrics = {f"{r['workload']}.{m}": entry(r, m) for r in results for m in r["metrics"]}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
