"""Call tracing for the benchmark's traced run.

Each operation (trial or job) is kept as a span with name, start, end,
parent and trial id.  Calls beneath it are not kept one by one: they are
aggregated per operation, and over the whole run, into a call count and a
self time.  A call's self time is its duration minus the time covered by
the traced calls it made; calls on one thread nest, so that cover is the
sum of their durations.

`instrument` wraps kafw's public functions at the names their callers look
up (for example both kafw.gf2.gf_mul and kafw.schedules.gf_mul), so the
library itself is untouched and the wrapping is undone afterwards.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.edges: Counter = Counter()  # (caller name, callee name) -> calls
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open frames: [name, start, child seconds]
        self._calls: dict[str, list] | None = None  # aggregates of the open span
        self._open: list[int] = []  # ids of the open kept spans

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> tuple[float, float, float]:
        """Close the innermost frame; returns (start, end, self seconds)."""
        end = self.clock()
        name, start, child = self._stack.pop()
        dur = end - start
        own = dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.edges[(parent[0], name)] += 1
        for agg in (self.totals, self._calls):
            if agg is not None:
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, own]
                else:
                    entry[0] += 1
                    entry[1] += own
        return start, end, own

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, trial=None):
        """A kept span; spans opened while another is open record it as parent."""
        parent = self._open[-1] if self._open else None
        outer_calls = self._calls
        record = {"id": len(self.spans), "name": name, "parent": parent, "trial": trial}
        self.spans.append(record)
        self._open.append(record["id"])
        self._calls = {}
        self.enter(name)
        try:
            yield record
        finally:
            calls, self._calls = self._calls, outer_calls
            start, end, own = self.exit()
            record.update(start=start, end=end, self_s=own, calls=calls)
            self._open.pop()

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def instrument(tracer: Tracer):
    """Wrap kafw's layers for `tracer`; returns a callable that undoes it."""
    from kafw import attacks, auditor, cli, equivalence, feistel, game, gf2, oracles, schedules

    saved = []
    count = tracer.counters

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def timed(name):
        return lambda fn: tracer.wrap(name, fn)

    for owner in (gf2, schedules):
        patch(owner, "gf_mul", timed("gf2.gf_mul"))
    for owner in (gf2, schedules, attacks, auditor):
        patch(owner, "mat_vec", timed("gf2.mat_vec"))
    for cls, attr in (
        (schedules.KeySchedule, "round_key"),
        (schedules.KeySchedule, "whitening_key"),
        (schedules.KafvSchedule, "subkey"),
        (schedules.LuciferSchedule, "round_key"),
    ):
        patch(cls, attr, timed("schedules.subkey"))
    patch(schedules, "random_affine", timed("schedules.random_affine"))
    patch(oracles, "stream64", timed("oracles.stream64"))
    for owner in (oracles, game, cli, equivalence):
        patch(owner, "derive_seed", timed("oracles.derive_seed"))

    def function_query(fn):
        def query(oracle, x):
            count["oracles.function.queries"] += 1
            if x not in oracle.table:
                count["oracles.function.fresh"] += 1
            return fn(oracle, x)

        return query

    for attr in ("query", "__call__"):
        patch(oracles.RandomFunctionOracle, attr, function_query)

    def permutation_query(own_map, used_map):
        def make(fn):
            inner = tracer.wrap("oracles.permutation", fn)

            def query(perm, v):
                if v in getattr(perm, own_map):
                    return inner(perm, v)
                count["oracles.permutation.samples"] += 1
                if 2 * len(getattr(perm, used_map)) >= 1 << perm.bits:
                    count["oracles.permutation.fill_path_samples"] += 1
                before = tracer.calls("oracles.stream64")
                out = inner(perm, v)
                count["oracles.permutation.attempts"] += tracer.calls("oracles.stream64") - before
                return out

            return query

        return make

    perm_cls = oracles.RandomPermutationOracle
    patch(perm_cls, "forward", permutation_query("forward_map", "backward_map"))
    patch(perm_cls, "__call__", permutation_query("forward_map", "backward_map"))
    patch(perm_cls, "backward", permutation_query("backward_map", "forward_map"))
    patch(oracles.RelatedKeyOracle, "query", timed("oracles.rk"))
    patch(feistel.CipherInstance, "encrypt_block", timed("feistel.encrypt_block"))
    patch(feistel.CipherInstance, "decrypt_block", timed("feistel.decrypt_block"))
    for attr in ("kafw_encrypt", "kafv_encrypt", "lucifer_encrypt"):
        patch(equivalence, attr, timed("feistel.sweep_encrypt"))

    def birthday(fn):
        inner = tracer.wrap("attacks.birthday", fn)

        def attack(*args, **kwargs):
            bit = inner(*args, **kwargs)
            count["attacks.birthday.wins"] += bit
            return bit

        return attack

    patch(attacks, "birthday_collision_attack", birthday)
    for attr in (
        "four_round_boomerang",
        "five_round_boomerang_switch",
        "five_round_complementation_boomerang",
        "any_round_differential",
    ):
        patch(attacks, attr, timed("attacks.quartet"))
    patch(game, "run_trial_detailed", timed("game.trial"))
    for attr in ("measure_uniformity", "measure_axu", "measure_cross_uniformity"):
        patch(auditor, attr, timed(f"auditor.{attr}"))

    def bind(fn):
        def bound(schedule, m):
            phi = fn(schedule, m)

            def counted(k):
                count["auditor.subkey_evals"] += 1
                return phi(k)

            return counted

        return bound

    patch(schedules.KeySchedule, "bind", bind)

    def sweep(fn):
        inner = tracer.wrap("equivalence.sweep", fn)

        def run(*args, **kwargs):
            result = inner(*args, **kwargs)
            count["equivalence.cases"] += result.cases
            return result

        return run

    for attr in ("kafv_vs_kafw_sweep", "lucifer_sandwich_sweep"):
        patch(cli, attr, sweep)
    patch(cli, "main", timed("cli.main"))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, birthday_offsets: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, name -> (value, unit).

    `birthday_offsets` is the birthday attack's q_e: every related-key
    query it makes beyond that many is a confirmation of a candidate key.
    """
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(name):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")

    for name in ("gf2.gf_mul", "gf2.mat_vec", "schedules.subkey", "schedules.random_affine",
                 "oracles.stream64", "oracles.derive_seed"):
        calls_and_self(name)
    out["oracles.function.queries"] = (c["oracles.function.queries"], "count")
    out["oracles.function.fresh_ratio"] = (
        _ratio(c["oracles.function.fresh"], c["oracles.function.queries"]), "ratio")
    out["oracles.permutation.queries"] = (tracer.calls("oracles.permutation"), "count")
    out["oracles.permutation.self_s"] = (tracer.self_s("oracles.permutation"), "s")
    out["oracles.permutation.attempts_per_sample"] = (
        _ratio(c["oracles.permutation.attempts"], c["oracles.permutation.samples"]), "ratio")
    out["oracles.permutation.fill_path_samples"] = (c["oracles.permutation.fill_path_samples"], "count")
    out["oracles.rk.queries"] = (tracer.calls("oracles.rk"), "count")
    out["oracles.rk.self_s"] = (tracer.self_s("oracles.rk"), "s")
    for name in ("feistel.encrypt_block", "feistel.decrypt_block", "feistel.sweep_encrypt"):
        calls_and_self(name)
    trials = tracer.calls("attacks.birthday")
    confirms = tracer.edges[("attacks.birthday", "oracles.rk")] - birthday_offsets * trials
    out["attacks.birthday.self_s"] = (tracer.self_s("attacks.birthday"), "s")
    out["attacks.birthday.offline_evals_per_trial"] = (
        _ratio(tracer.edges[("attacks.birthday", "feistel.encrypt_block")], trials), "ratio")
    out["attacks.birthday.confirm_ratio"] = (_ratio(c["attacks.birthday.wins"], confirms), "ratio")
    out["attacks.quartet.self_s"] = (tracer.self_s("attacks.quartet"), "s")
    calls_and_self("game.trial")
    for name in ("measure_uniformity", "measure_axu", "measure_cross_uniformity"):
        out[f"auditor.{name}.self_s"] = (tracer.self_s(f"auditor.{name}"), "s")
    out["auditor.subkey_evals"] = (c["auditor.subkey_evals"], "count")
    out["equivalence.cases"] = (c["equivalence.cases"], "count")
    out["equivalence.sweep_self_s"] = (tracer.self_s("equivalence.sweep"), "s")
    calls_and_self("cli.main")
    return out
