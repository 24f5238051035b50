"""Real-vs-ideal distinguishing game and advantage estimation.

A trial samples a master key, wires up one of two worlds, and runs a
distinguisher:

- real world: the construction under the sampled key, sharing ONE set of
  round-function oracles between the cipher and the adversary's direct
  function queries;
- ideal world: an ideal cipher behind the related-key oracle, plus
  round-function oracles independent of it.

Seeds derive deterministically as hash(base_seed, world tag, trial index),
so every reported number replays bit-exactly.  Measured advantage is a
lower bound on insecurity: it is the advantage of one fixed distinguisher,
never a maximum over all of them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import attacks
from .attacks import AttackOutcome
from .errors import DomainError, ScheduleArityMismatch
from .feistel import CipherInstance
from .gf2 import DomainParams
from .oracles import (
    CountedFunction,
    FunctionBudget,
    IdealCipherOracle,
    RandomFunctionOracle,
    RandomPermutationOracle,
    RelatedKeyOracle,
    child_seeds,
    derive_seed,
)
from .schedules import KafvSchedule, KeySchedule, check_construction

REAL = "real"
IDEAL = "ideal"


@dataclass
class ConstructionSpec:
    """Template for building cipher instances inside trials.

    `schedule` may be a fixed schedule or a callable taking the trial's
    random stream and returning a fresh one (used to quantify over
    schedules).  `single_f` selects the single-function model; with it off,
    every round gets an independent oracle.  Each trial checks the
    schedule against `construction`, `rounds` and the width of `params`
    before it builds any oracle.
    """

    params: DomainParams
    rounds: int
    schedule: KeySchedule | KafvSchedule | Callable[[random.Random], KeySchedule]
    construction: str = "kafw"
    function_kind: str = "function"  # "function" or "permutation"
    single_f: bool = True


@dataclass
class WorldSpec:
    kind: str  # REAL or IDEAL
    construction: ConstructionSpec


@dataclass
class GameContext:
    """Everything a distinguisher may touch during one trial: the schedule
    (which names the construction), the related-key oracle, the round
    functions and the trial's random stream."""

    schedule: KeySchedule | KafvSchedule
    rk: RelatedKeyOracle
    fs: list[CountedFunction]
    rng: random.Random


@dataclass
class Distinguisher:
    """A named strategy with its declared query budgets (None = unlimited)."""

    name: str
    run: Callable[[GameContext], int]
    q_e: int | None = None
    q_f: int | None = None


@dataclass
class AdvantageEstimate:
    """Output-1 frequencies in both worlds with a normal-approximation CI."""

    p_real: float
    p_ideal: float
    advantage: float
    ci_halfwidth: float
    trials: int
    mean_q_e: float
    mean_q_f: float


_ORACLE_KINDS = {"function": RandomFunctionOracle, "permutation": RandomPermutationOracle}


def _round_oracle_makers(spec: ConstructionSpec, child: Callable[..., int]) -> list:
    """One no-argument maker per round oracle (one shared, or one per
    round): maker i makes the oracle keyed by child("f", i).  An unknown
    function kind raises here, before any oracle exists."""
    kind = _ORACLE_KINDS.get(spec.function_kind)
    if kind is None:
        raise DomainError(f"unknown function kind {spec.function_kind!r}")
    n = spec.params.n
    return [lambda i=i: kind(n, child("f", i)) for i in range(1 if spec.single_f else spec.rounds)]


def round_oracles(spec: ConstructionSpec, seed: int) -> list:
    """The round-function oracles of one instance: one shared, or one per
    round; oracle i is keyed by derive_seed(seed, "f", i)."""
    return [make() for make in _round_oracle_makers(spec, child_seeds(seed))]


def run_trial_detailed(d: Distinguisher, w: WorldSpec, seed: int) -> AttackOutcome:
    """One trial under `seed`.  Its child seeds derive_seed(seed, "choices"),
    (seed, "key"), (seed, "f", i) and (seed, "ic") come from one keyed
    state.  The real world builds every round oracle for its cipher; the
    ideal world builds each on the distinguisher's first use of it."""
    spec = w.construction
    params = spec.params
    child = child_seeds(seed)
    rng = random.Random(child("choices"))
    key = child("key") & (params.N - 1)
    schedule = spec.schedule(rng) if callable(spec.schedule) else spec.schedule
    check_construction(spec.construction, schedule)
    if schedule.t != spec.rounds:
        raise ScheduleArityMismatch(f"schedule arity {schedule.t} != rounds {spec.rounds}")
    if schedule.params.n != params.n:
        raise DomainError(f"schedule width {schedule.params.n} != n {params.n}")
    makers = _round_oracle_makers(spec, child)
    budget = FunctionBudget(limit=d.q_f)
    if w.kind == REAL:
        oracles = [make() for make in makers]
        backend = CipherInstance(schedule, tuple(oracles))
        fs = [CountedFunction(o, budget, i) for i, o in enumerate(oracles)]
    elif w.kind == IDEAL:
        backend = IdealCipherOracle(params.n, child("ic"))
        fs = [CountedFunction(None, budget, i, make) for i, make in enumerate(makers)]
    else:
        raise DomainError(f"unknown world {w.kind!r}")
    rk = RelatedKeyOracle(key, backend, params.n, limit=d.q_e)
    ctx = GameContext(schedule, rk, fs, rng)
    bit = d.run(ctx)
    return AttackOutcome(bit=bit, q_e_used=rk.query_count, q_f_used=budget.count)


def run_trial(d: Distinguisher, w: WorldSpec, seed: int) -> int:
    """Sample a key, build the world's oracles, run d once; deterministic in seed."""
    return run_trial_detailed(d, w, seed).bit


Trial = tuple[str, int, int, AttackOutcome]


def iter_trials(
    d: Distinguisher,
    spec: ConstructionSpec,
    trials: int,
    seed: int,
    worlds: Iterable[str] = (REAL, IDEAL),
) -> Iterator[Trial]:
    """Run `trials` trials of d in each world in turn.

    Yields (world kind, trial index, trial seed, outcome); trial i of a
    world runs under derive_seed(seed, kind, i).
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    for kind in worlds:
        world = WorldSpec(kind, spec)
        for i in range(trials):
            trial_seed = derive_seed(seed, kind, i)
            yield kind, i, trial_seed, run_trial_detailed(d, world, trial_seed)


def summarize_trials(trials: Iterable[Trial]) -> AdvantageEstimate:
    """Output-1 frequencies, advantage and 95% CI of an equal number of
    trials in each world, as iter_trials yields them."""
    ones = {REAL: 0, IDEAL: 0}
    runs = {REAL: 0, IDEAL: 0}
    qe_total = qf_total = 0
    for kind, _i, _seed, outcome in trials:
        runs[kind] += 1
        ones[kind] += outcome.bit
        qe_total += outcome.q_e_used
        qf_total += outcome.q_f_used
    count = runs[REAL]
    p_real = ones[REAL] / count
    p_ideal = ones[IDEAL] / count
    ci = 1.96 * math.sqrt(
        p_real * (1 - p_real) / count + p_ideal * (1 - p_ideal) / count
    )
    return AdvantageEstimate(
        p_real=p_real,
        p_ideal=p_ideal,
        advantage=abs(p_real - p_ideal),
        ci_halfwidth=ci,
        trials=count,
        mean_q_e=qe_total / (2 * count),
        mean_q_f=qf_total / (2 * count),
    )


def estimate_advantage(
    d: Distinguisher, construction: ConstructionSpec, trials: int, base_seed: int
) -> AdvantageEstimate:
    """Independent trials in each world; frequencies, advantage, and 95% CI."""
    return summarize_trials(iter_trials(d, construction, trials, base_seed))


@dataclass(frozen=True)
class BoundResult:
    """Evaluated published advantage bound.

    precondition_ok is None when the statement carries no query-volume
    precondition; vacuous marks bounds above 1, which guarantee nothing.
    """

    theorem: int
    value: Fraction
    precondition_ok: bool | None
    vacuous: bool


def bound_formula(
    theorem: int,
    q_f: int,
    q_e: int,
    N: int,
    delta1: Fraction | int = 0,
    delta2: Fraction | int = 0,
    delta3: Fraction | int = 0,
) -> BoundResult:
    """Advantage bounds of the four security statements.

    1: 4 rounds, non-linear schedule, permutation round function;
    2: 4 rounds, non-linear schedule, random function;
    5: 6 rounds, affine schedule, permutation;
    6: 6 rounds, affine schedule, random function.
    """
    if min(q_f, q_e, N) < 0:
        raise DomainError("parameters must be nonnegative")
    if N < 1:
        raise DomainError("the key space size N must be at least 1")
    d1, d2, d3 = Fraction(delta1), Fraction(delta2), Fraction(delta3)
    if not all(0 <= d <= 1 for d in (d1, d2, d3)):
        raise DomainError("delta1..delta3 are probabilities and must lie in [0, 1]")
    pre: bool | None
    if theorem == 1:
        value = 2 * d1 * q_e * q_f + (d2 + d3) * q_e**2 + Fraction(
            8 * q_e * q_f + 27 * q_e**2 + 4 * q_e, N
        )
        pre = q_f + 2 * q_e <= N // 2
    elif theorem == 2:
        value = 2 * d1 * q_e * q_f + (d2 + d3) * q_e**2 + Fraction(
            2 * q_e * q_f + 7 * q_e**2, N
        )
        pre = None
    elif theorem == 5:
        value = Fraction(14 * q_e * q_f + 57 * q_e**2 + 4 * q_e, N)
        pre = q_f + 4 * q_e <= N // 2
    elif theorem == 6:
        value = Fraction(6 * q_e * q_f + 18 * q_e**2, N)
        pre = None
    else:
        raise DomainError("theorem must be one of 1, 2, 5, 6")
    return BoundResult(theorem=theorem, value=value, precondition_ok=pre, vacuous=value > 1)


# Game-ready strategies around the attack procedures.  Each draws its free
# choices (offset, base plaintext) from the trial's random stream, so trials
# replay exactly and quantify over those choices.


def _schedule_distinguisher(name: str, attack: str, q_e: int, draws_delta: bool) -> Distinguisher:
    """Run attacks.<attack>(rk, schedule, delta, left, right).

    The offset is drawn first when `draws_delta`; otherwise the attack
    derives it from the schedule.  The attack is looked up at call time.
    """

    def run(ctx: GameContext) -> int:
        N = ctx.schedule.params.N
        delta = ctx.rng.randrange(1, N) if draws_delta else None
        left = ctx.rng.randrange(N)
        right = ctx.rng.randrange(N)
        return getattr(attacks, attack)(ctx.rk, ctx.schedule, delta, left, right)

    return Distinguisher(name, run, q_e=q_e, q_f=0)


def boomerang4_distinguisher() -> Distinguisher:
    return _schedule_distinguisher("boomerang4", "four_round_boomerang", 4, True)


def switch5_distinguisher() -> Distinguisher:
    return _schedule_distinguisher("switch5", "five_round_boomerang_switch", 4, False)


def comp5_distinguisher() -> Distinguisher:
    return _schedule_distinguisher("comp5", "five_round_complementation_boomerang", 4, False)


def comp_any_distinguisher() -> Distinguisher:
    return _schedule_distinguisher("comp-any", "any_round_differential", 2, False)


def quartet_probe_distinguisher() -> Distinguisher:
    """Boomerang-shaped null probe: random offset, all block shifts zero."""
    return _schedule_distinguisher("quartet-probe", "quartet_probe", 4, True)


def birthday_distinguisher(q_e: int, q_g: int, rounds: int) -> Distinguisher:
    def run(ctx: GameContext) -> int:
        return attacks.birthday_collision_attack(
            ctx.rk,
            ctx.fs,
            ctx.schedule,
            q_e,
            q_g,
            ctx.rng,
        )

    # Worst case: one confirmation query per guess, two offline evaluations
    # per guess at `rounds` function queries each.
    return Distinguisher("birthday", run, q_e=q_e + q_g, q_f=2 * q_g * rounds)


# Attack names and their aliases -> factory(q_e, q_g, rounds).  The budgets
# size the birthday attack only; the quartet attacks have fixed ones.
ATTACKS: dict[str, Callable[[int, int, int], Distinguisher]] = {
    name: factory
    for names, factory in (
        (("thm3", "boomerang4"), lambda *_: boomerang4_distinguisher()),
        (("thm4", "switch5"), lambda *_: switch5_distinguisher()),
        (("appb5", "comp5"), lambda *_: comp5_distinguisher()),
        (("appbany", "comp-any"), lambda *_: comp_any_distinguisher()),
        (("birthday",), birthday_distinguisher),
        (("quartet-probe",), lambda *_: quartet_probe_distinguisher()),
    )
    for name in names
}
