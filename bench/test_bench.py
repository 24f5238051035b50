"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py"""

import json
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(99) == 100.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(9999) == 99.0
    assert run.tail_percentile(10_000) == 99.9
    assert run.percentile(range(1, 101), 90.0) == 90
    assert run.percentile(range(1, 10_001), 99.9) == 9990
    assert run.percentile(range(1, 51), 100.0) == 50
    assert run.percentile([3.0], 50.0) == 3.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # op [0, 10] calls a [1, 8], which calls b [2, 5] and b [6, 7].
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 10.0]))
    with tracer.span("op", trial=7) as record:
        tracer.enter("a")
        tracer.enter("b")
        tracer.exit()
        tracer.enter("b")
        tracer.exit()
        tracer.exit()
    assert tracer.totals == {"b": [2, 4.0], "a": [1, 3.0], "op": [1, 3.0]}
    assert record["start"] == 0.0 and record["end"] == 10.0 and record["self_s"] == 3.0
    assert record["trial"] == 7 and record["parent"] is None
    assert record["calls"] == {"b": [2, 4.0], "a": [1, 3.0]}
    assert tracer.edges == {("op", "a"): 1, ("a", "b"): 2}


def test_nested_spans_record_their_parent():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]))
    with tracer.span("run") as root:
        with tracer.span("op", trial=0) as first:
            pass
        with tracer.span("op", trial=1) as second:
            pass
    assert first["parent"] == second["parent"] == root["id"]
    assert root["self_s"] == 4.0  # 6 s minus the two 1 s operations


class Flaky:
    """Workload stand-in whose operations 1 and 3 fail."""

    cycle = 1
    min_ops = 4
    pin_ops = 2

    def kind(self, i):
        return "op"

    def op(self, i):
        if i == 1:
            raise workloads.InvariantBroken("broken on purpose")
        if i == 3:
            raise ValueError("library error")
        return {"i": i}


def test_failed_operations_are_counted_and_the_pass_goes_on():
    p = run.run_pass(Flaky(), ops=5)
    assert (p.ops, p.failed) == (5, 2)
    assert len(p.latencies["op"]) == 3
    assert "InvariantBroken" in p.errors[0] and "ValueError" in p.errors[1]
    assert p.digest != run.run_pass(Flaky(), ops=4).digest


@pytest.fixture
def tiny_birthday(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "setup_sample", lambda workload, seed: (0.25, 0.25))
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(workloads.BirthdayN16, "min_ops", 4)


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_timed_run_reports_every_end_to_end_metric(tiny_birthday, capsys):
    result = _result(capsys, ["--workload", "birthday-n16", "--seconds", "0"])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 5, 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in result["metrics"].items())


def test_digest_mismatch_is_a_failure_not_a_crash(tiny_birthday, monkeypatch, capsys):
    monkeypatch.setitem(run.PINNED, "birthday-n16", "0" * 64)
    result = _result(capsys, ["--workload", "birthday-n16", "--seconds", "0"])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 5, 1)


def test_broken_invariant_is_a_failure_not_a_crash(tiny_birthday, monkeypatch, capsys):
    honest = workloads.game.run_trial_detailed

    def overspending(d, world, seed):
        out = honest(d, world, seed)
        out.q_e_used = d.q_e + 1
        return out

    monkeypatch.setattr(workloads.game, "run_trial_detailed", overspending)
    result = _result(capsys, ["--workload", "birthday-n16", "--seconds", "0"])
    # four operations and the pinned replay, whose records now differ
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 5, 5)


def test_traced_run_repeats_its_counts_and_the_untraced_digest(tiny_birthday, capsys):
    argv = ["--workload", "birthday-n16", "--seconds", "0", "--trace", "1"]
    first = _result(capsys, argv)
    second = _result(capsys, argv)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["game.trial.calls"]["value"] == 2  # one whole cycle
    assert first["metrics"]["gf2.gf_mul.calls"]["value"] > 0
