"""The benchmark's three workloads, built on kafw's public API and CLI only.

Each workload is a deterministic, endless sequence of operations: op(i)
runs operation i and returns its record, or raises InvariantBroken when an
output breaks a property that holds for every seed.  Inputs derive from
the workload seed and the operation index alone, so a pass over ops
0..n-1 replays bit-exactly in any process, traced or not.

Importing this module puts the checkout's own src/ first on sys.path and
refuses to run against any other copy of kafw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "kafw" / "__init__.py").is_file():
    raise SystemExit(f"kafw sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import kafw  # noqa: E402
from kafw import cli, game, schedules  # noqa: E402
from kafw.gf2 import BinMatrix, DomainParams  # noqa: E402
from kafw.oracles import RandomPermutationOracle  # noqa: E402
from kafw.schedules import AffineSubkey, KeySchedule, ZeroMap  # noqa: E402

if Path(kafw.__file__).resolve().parent != SRC / "kafw":
    raise SystemExit(f"imported kafw from {kafw.__file__}, not from {SRC}")


class InvariantBroken(Exception):
    """An operation's output broke a property that holds for every seed."""


def op_seed(seed: int, i: int) -> int:
    """64-bit input seed of operation i; independent of the library's own streams."""
    h = hashlib.blake2b(f"kafw-bench:{seed}:{i}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


class BirthdayN16:
    """Generic birthday attack, criterion 7's setting: minimal4 at n = 16,
    one shared random function, q_e = q_g = 512.  Even ops run the real
    world, odd ops the ideal one."""

    name = "birthday-n16"
    cycle = 2
    min_ops = 100  # enough for a p90 tail with ten samples beyond it
    pin_ops = 8
    trace_ops_per_s = 12  # traced-run ops per second of --seconds
    QE = QG = 512
    ROUNDS = 4

    def __init__(self, seed: int):
        self.seed = seed
        p = DomainParams.for_width(16)
        spec = game.ConstructionSpec(
            p, self.ROUNDS, schedules.builtin("minimal4", p), "kafw", "function", True
        )
        self.worlds = (game.WorldSpec(game.REAL, spec), game.WorldSpec(game.IDEAL, spec))
        self.d = game.birthday_distinguisher(self.QE, self.QG, self.ROUNDS)

    def kind(self, i: int) -> str:
        return self.worlds[i % 2].kind

    def op(self, i: int) -> dict:
        world = self.worlds[i % 2]
        trial_seed = op_seed(self.seed, i)
        out = game.run_trial_detailed(self.d, world, trial_seed)
        if not (self.QE <= out.q_e_used <= self.d.q_e and out.q_f_used <= self.d.q_f):
            raise InvariantBroken(f"budget overrun q_e={out.q_e_used} q_f={out.q_f_used}")
        return {
            "i": i,
            "trial_seed": trial_seed,
            "bit": out.bit,
            "q_e": out.q_e_used,
            "q_f": out.q_f_used,
        }


def _rotation_schedule(p: DomainParams) -> KeySchedule:
    """Criterion 9's schedule: M1 = M3 = rot1, so comp5's offset exists."""
    z = ZeroMap()
    rot = lambda r: AffineSubkey(BinMatrix.rotation(p.n, r))  # noqa: E731
    return KeySchedule(p, (z, z, z, z), (rot(1), rot(2), rot(1), rot(3), rot(4)))


class QuartetN8:
    """The 2-4-query distinguishers of criteria 1, 2, 3 and 9 at n = 8 with
    per-round random permutations; ops cycle through the four attacks, each
    in the real world then the ideal one."""

    name = "quartet-n8"
    cycle = 8
    # Enough for a p90 tail with ten samples beyond it, not for p99: the p99
    # of sub-millisecond trials is set by the host's interruptions and
    # repeated only within 10% from run to run, the p90 within 5%.
    min_ops = 100 * cycle
    pin_ops = 400
    trace_ops_per_s = 800

    def __init__(self, seed: int):
        self.seed = seed
        p = DomainParams.for_width(8)

        def spec(rounds, schedule):
            return game.ConstructionSpec(p, rounds, schedule, "kafw", "permutation", False)

        fresh_affine = lambda rng: schedules.random_affine(p, 4, rng)  # noqa: E731
        attacks = (
            ("boomerang4", game.boomerang4_distinguisher(), spec(4, fresh_affine)),
            ("switch5", game.switch5_distinguisher(), spec(5, schedules.builtin("bitperm_bad5", p))),
            ("comp-any", game.comp_any_distinguisher(), spec(8, schedules.builtin("identity_bad(8)", p))),
            ("comp5", game.comp5_distinguisher(), spec(5, _rotation_schedule(p))),
        )
        self.kinds = [
            (f"{name}.{kind}", d, game.WorldSpec(kind, s))
            for name, d, s in attacks
            for kind in (game.REAL, game.IDEAL)
        ]

    def kind(self, i: int) -> str:
        return self.kinds[i % self.cycle][0]

    def op(self, i: int) -> dict:
        kind, d, world = self.kinds[i % self.cycle]
        trial_seed = op_seed(self.seed, i)
        out = game.run_trial_detailed(d, world, trial_seed)
        if out.q_e_used != d.q_e or out.q_f_used != 0:
            raise InvariantBroken(f"{kind}: used q_e={out.q_e_used} q_f={out.q_f_used}")
        if world.kind == game.REAL and out.bit != 1:
            raise InvariantBroken(f"{kind}: probability-1 distinguisher output 0")
        return {"i": i, "trial_seed": trial_seed, "bit": out.bit}


AUDIT_N = 12
SWEEP_CASES = 3 * 32 * 1024  # 3 oracle seeds x 2^5 keys x 2^10 blocks at n = 5
PERM_BITS = 12


def _audit(schedule: str) -> list[str]:
    return ["audit", "--schedule", schedule, "--n", str(AUDIT_N), "--check", "def1"]


def _sweep(pair: str) -> list[str]:
    # The sweep's cost depends strongly on which sub-key map kinds its random
    # schedules draw, so its seed is fixed: every run answers the same question.
    return ["equivalence", "--pair", pair, "--n", "5", "--rounds", "4", "--seeds", "3", "--seed", "0"]


class Exhaustive:
    """Time-to-answer jobs: def1 audits at n = 12 through the CLI, both
    equivalence sweeps at n = 5, t = 4, and full tabulation of random
    permutations at n = 12.  Only the permutation seeds follow the
    workload seed."""

    name = "exhaustive"
    JOBS = (
        ("perm_table", None),
        ("audit", _audit("minimal4")),
        ("perm_table", None),
        ("sweep", _sweep("kafv-kafw")),
        ("perm_table", None),
        ("audit", _audit("tweakem4")),
        ("perm_table", None),
        ("sweep", _sweep("lucifer")),
    )
    cycle = len(JOBS)
    min_ops = 4 * cycle  # four of each sweep, so one slow sweep moves little
    pin_ops = 2
    trace_ops_per_s = 0.25

    def __init__(self, seed: int):
        self.seed = seed
        cli.build_parser()  # set-up covers what a `kafw` command builds first

    def kind(self, i: int) -> str:
        return self.JOBS[i % self.cycle][0]

    def op(self, i: int) -> dict:
        kind, argv = self.JOBS[i % self.cycle]
        if kind == "perm_table":
            return self._perm_table(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        text = buf.getvalue()
        rec = json.loads(text)
        if rc != 0:
            raise InvariantBroken(f"{' '.join(argv)} exited {rc}: {text.strip()}")
        if kind == "audit":
            counts = (rec["delta1_times_n"], rec["delta2_times_n"], rec["delta3_times_n"])
            if counts != (3, 2, 2):
                raise InvariantBroken(f"{argv[2]} audit gave {counts}, expected (3, 2, 2)")
        elif rec["mismatches"] != 0 or rec["cases"] != SWEEP_CASES:
            raise InvariantBroken(f"sweep {argv[2]}: {rec['mismatches']} mismatches in {rec['cases']}")
        return {"i": i, "argv": argv, "stdout": text}

    def _perm_table(self, i: int) -> dict:
        seed = op_seed(self.seed, i)
        perm = RandomPermutationOracle(PERM_BITS, seed)
        size = 1 << PERM_BITS
        table = [perm.forward(x) for x in range(size)]
        if sorted(table) != list(range(size)):
            raise InvariantBroken("permutation table is not a bijection")
        if any(perm.backward(y) != x for x, y in enumerate(table)):
            raise InvariantBroken("backward is not inverse to forward")
        digest = hashlib.sha256(b"".join(y.to_bytes(2, "little") for y in table)).hexdigest()
        return {"i": i, "seed": seed, "sha256": digest}


WORKLOADS = {w.name: w for w in (BirthdayN16, QuartetN8, Exhaustive)}
