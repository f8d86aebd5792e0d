"""Self-test of the benchmark on tiny passes of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the tier-1 suite (pytest's ``testpaths`` is ``tests``).
"""

import json
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the cvswap sources on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"swap-small": 7, "swap-large": 3, "oracle-check": 2, "optomech-sweep": 3}


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--items", str(TINY[workload]), "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY[workload]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines)
    if not trace:
        assert any(line.split()[:3] == ["failed_frac", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_rows_are_byte_identical(tmp_path, workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(7, TINY[workload])
    plain = run.run_pass(wl, inputs, tmp_path / "plain.csv")
    with tracing.Tracer(workload) as tracer:
        traced = run.run_pass(wl, inputs, tmp_path / "traced.csv", tracer)
    assert tracer.spans
    assert plain.table == traced.table
    assert not any(raised for _, _, raised in plain.outcomes + traced.outcomes)


def _bindings():
    import cvswap

    modules = {k: m for k, m in sys.modules.items() if k.partition(".")[0] == "cvswap"}
    snapshot = {(k, key): value for k, m in modules.items() for key, value in vars(m).items()}
    snapshot[("GaussianState", "__init__")] = vars(cvswap.GaussianState)["__init__"]
    return snapshot


def test_every_wrapped_name_is_restored(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + ("relay.removed_by_a_later_change",))
    before = _bindings()
    with tracing.Tracer("restore-check") as tracer:
        during = _bindings()
        wl = workloads.WORKLOADS["optomech-sweep"]
        wl.run_item(wl.make_inputs(7, 1)[0])
    after = _bindings()
    changed = {key for key in before if before[key] is not during.get(key)}
    assert ("cvswap.relay", "bell_detect") in changed
    assert ("cvswap.optomech", "bell_detect") in changed
    assert ("GaussianState", "__init__") in changed
    assert all(after[key] is value for key, value in before.items())
    assert set(after) == set(before)
    calls, _ = tracer.totals()
    assert calls["relay.bell_detect"] == 1
    assert calls["relay.removed_by_a_later_change"] == 0


def test_host_scaling_cancels_a_uniform_slowdown():
    wl = workloads.WORKLOADS["swap-large"]
    nominal = wl.reference.nominal_s

    def fake_pass(slowdown, item_s):
        times = [t * slowdown for t in item_s]
        return run.Pass(sum(times) + 0.01 * slowdown, times, 0.01 * slowdown, [nominal * slowdown] * 3, [], b"")

    item_s = [0.010, 0.020, 0.030]
    steady, _ = run.end_to_end(wl, [fake_pass(1.0, item_s)] * 3, [0.2])
    drifting, _ = run.end_to_end(wl, [fake_pass(1.0, item_s), fake_pass(1.6, item_s), fake_pass(1.3, item_s)], [0.2])
    assert steady["item_ms_p50"] == pytest.approx(20.0)
    assert steady["items_per_s"] == pytest.approx(3 / 0.07)
    for metric in ("items_per_s", "item_ms_p50", "item_ms_tail"):
        assert drifting[metric] == pytest.approx(steady[metric])
