"""Distinguishing-game harness: determinism, budgets, advantage estimation, bounds."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from kafw import feistel, game
from kafw.errors import DomainError, QueryBudgetExceeded, ScheduleArityMismatch
from kafw.game import (
    ConstructionSpec,
    Distinguisher,
    WorldSpec,
    bound_formula,
    boomerang4_distinguisher,
    comp_any_distinguisher,
    estimate_advantage,
    quartet_probe_distinguisher,
    run_trial,
    run_trial_detailed,
)
from kafw.gf2 import DomainParams
from kafw.attacks import _uncounted
from kafw.oracles import IdealCipherOracle, RandomFunctionOracle, RandomPermutationOracle, derive_seed
from kafw.schedules import builtin, random_affine

P8 = DomainParams.for_width(8)
P16 = DomainParams.for_width(16)


def constant_distinguisher(bit):
    """Outputs `bit` without a query: advantage 0 in any pair of worlds."""
    return Distinguisher(f"const{bit}", lambda ctx: bit, q_e=0, q_f=0)


def affine4_spec(function_kind="permutation", single_f=False):
    return ConstructionSpec(
        P8, 4, lambda rng: random_affine(P8, 4, rng), "kafw", function_kind, single_f
    )


def test_run_trial_deterministic_per_seed():
    d = boomerang4_distinguisher()
    w = WorldSpec(game.REAL, affine4_spec())
    assert [run_trial(d, w, 5)] * 3 == [run_trial(d, w, 5) for _ in range(3)]
    ideal = WorldSpec(game.IDEAL, affine4_spec())
    bits = [run_trial(d, ideal, s) for s in range(50)]
    assert bits == [run_trial(d, ideal, s) for s in range(50)]


def test_constant_distinguisher_zero_advantage():
    est = estimate_advantage(constant_distinguisher(0), affine4_spec(), 200, 1)
    assert est.p_real == est.p_ideal == 0.0
    assert est.advantage == 0.0
    est = estimate_advantage(constant_distinguisher(1), affine4_spec(), 200, 1)
    assert est.advantage == 0.0 and est.p_real == 1.0


def test_same_world_self_test_gives_zero_advantage():
    d = boomerang4_distinguisher()
    w = WorldSpec(game.IDEAL, affine4_spec())
    trials = 300
    a = sum(run_trial(d, w, derive_seed(9, "x", i)) for i in range(trials))
    b = sum(run_trial(d, w, derive_seed(9, "x", i)) for i in range(trials))
    assert a == b


def test_world_seed_derivations_differ():
    seeds_real = [derive_seed(3, game.REAL, i) for i in range(10)]
    seeds_ideal = [derive_seed(3, game.IDEAL, i) for i in range(10)]
    assert len(set(seeds_real) | set(seeds_ideal)) == 20


def test_boomerang_advantage_near_one():
    est = estimate_advantage(boomerang4_distinguisher(), affine4_spec(), 1000, 42)
    assert est.p_real == 1.0
    assert est.p_ideal <= 0.01
    assert est.advantage >= 0.99
    assert est.mean_q_e == 4.0 and est.mean_q_f == 0.0


def test_budget_exceeded_detected():
    def greedy(ctx):
        for i in range(10):
            ctx.rk.encrypt(0, i)
        return 0

    d = Distinguisher("greedy", greedy, q_e=4, q_f=0)
    with pytest.raises(QueryBudgetExceeded):
        run_trial(d, WorldSpec(game.IDEAL, affine4_spec()), 0)


def test_trial_outcome_counters():
    out = run_trial_detailed(
        comp_any_distinguisher(),
        WorldSpec(game.REAL, ConstructionSpec(P8, 8, builtin("identity_bad(8)", P8))),
        3,
    )
    assert out.bit == 1 and out.q_e_used == 2 and out.q_f_used == 0


def test_quartet_probe_is_null_against_good_schedule():
    spec = ConstructionSpec(P8, 4, builtin("minimal4", P8))
    est = estimate_advantage(quartet_probe_distinguisher(), spec, 2000, 7)
    assert est.advantage <= 0.05


def test_bound_formula_values():
    assert bound_formula(5, 0, 0, 256).value == 0
    # 4-round permutation bound at q_e = q_f = 4 with the reference deltas:
    # 2*(3/256)*16 + (4/256)*16 + (128 + 432 + 16)/256 = 736/256.
    res = bound_formula(1, 4, 4, 256, Fraction(3, 256), Fraction(2, 256), Fraction(2, 256))
    assert res.value == Fraction(23, 8)
    assert res.precondition_ok is True
    assert res.vacuous  # 23/8 > 1: information-theoretic at desk scale
    res = bound_formula(5, 16, 16, 256)
    assert res.value == Fraction(14 * 256 + 57 * 256 + 64, 256)
    assert res.vacuous
    res = bound_formula(6, 0, 4, 256)
    assert res.value == Fraction(288, 256) and res.vacuous
    res = bound_formula(2, 0, 4, 256, Fraction(3, 256), Fraction(2, 256), Fraction(2, 256))
    assert res.value == Fraction(176, 256) and not res.vacuous
    assert res.precondition_ok is None  # no query precondition stated


def test_bound_formula_precondition_flag():
    res = bound_formula(1, 200, 100, 256)
    assert res.precondition_ok is False
    res = bound_formula(5, 0, 64, 256)
    assert res.precondition_ok is False
    with pytest.raises(ValueError):
        bound_formula(3, 1, 1, 256)
    with pytest.raises(ValueError):
        bound_formula(1, -1, 1, 256)


def test_bound_formula_rejects_deltas_outside_the_unit_interval():
    for deltas in ((-1, 0, 0), (0, Fraction(257, 256), 0), (0, 0, 2)):
        with pytest.raises(DomainError):
            bound_formula(1, 1, 1, 256, *deltas)
    assert bound_formula(2, 1, 1, 256, 0, 1, 1).value == Fraction(2 * 256 + 9, 256)


def test_unknown_function_kind_and_world_are_domain_errors():
    spec = ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", "table")
    with pytest.raises(DomainError):
        game.round_oracles(spec, 0)
    world = WorldSpec("neither", ConstructionSpec(P8, 4, builtin("minimal4", P8)))
    with pytest.raises(DomainError):
        run_trial(constant_distinguisher(0), world, 0)


@pytest.mark.parametrize("kind", [game.REAL, game.IDEAL])
def test_both_worlds_check_the_construction_against_the_schedule(kind, monkeypatch):
    cases = [
        (P8, "kafv", builtin("identity_bad(4)", P8), 4, ScheduleArityMismatch),
        (P8, "kafw", builtin("identity_bad(4)", P8), 5, ScheduleArityMismatch),
        (P8, "kaf", lambda rng: random_affine(P8, 4, rng), 4, ScheduleArityMismatch),
        (P8, "lucifer", builtin("minimal4", P8), 4, ScheduleArityMismatch),
        (P8, "feistel", builtin("minimal4", P8), 4, DomainError),
        # The spec's width against the schedule's, fixed or drawn.
        (P16, "kafw", builtin("minimal4", P8), 4, DomainError),
        (P8, "kafw", builtin("identity_bad(8)", P16), 8, DomainError),
        (P8, "kafw", lambda rng: random_affine(P16, 4, rng), 4, DomainError),
    ]
    built = []
    round_oracles = game.round_oracles
    monkeypatch.setattr(game, "round_oracles", lambda *a: built.append(a) or round_oracles(*a))
    for d in (constant_distinguisher(0), game.birthday_distinguisher(4, 4, 4)):
        for params, construction, schedule, rounds, error in cases:
            world = WorldSpec(kind, ConstructionSpec(params, rounds, schedule, construction, "function"))
            with pytest.raises(error):
                run_trial(d, world, 0)
    assert built == []  # every check comes before the first oracle
    ok = WorldSpec(kind, ConstructionSpec(P8, 4, builtin("identity_bad(4)", P8), "kaf"))
    assert run_trial(constant_distinguisher(0), ok, 0) == 0


def test_estimate_requires_trials():
    with pytest.raises(ValueError):
        estimate_advantage(constant_distinguisher(0), affine4_spec(), 0, 0)


def test_single_f_world_shares_one_function_view():
    spec = ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", "function", True)

    def probe(ctx):
        assert len(ctx.fs) == 1
        # The adversary's view and the cipher agree on f.
        y = ctx.fs[0].query(0x3C)
        ct = ctx.rk.encrypt(0, 0x0101)
        assert ctx.fs[0].query(0x3C) == y
        return ct & 1

    run_trial(Distinguisher("probe", probe, None, None), WorldSpec(game.REAL, spec), 11)


def test_a_trials_schedule_dies_with_the_trial(monkeypatch):
    """The schedule's memo holds no reference back to the schedule, its
    instances or its oracles: with the cycle collector off, a fresh
    random_affine schedule is freed as soon as run_trial returns, after
    quartet trials and after birthday trials whose column chains ran."""
    refs, chains, batched_runs = [], [], []
    key_columns = feistel._key_columns
    monkeypatch.setattr(feistel, "_key_columns", lambda s, keys: chains.append(None) or key_columns(s, keys))

    def fresh(rng):
        s = random_affine(P8, 4, rng)
        refs.append(weakref.ref(s))
        return s

    def batched(ctx):
        before = len(chains)
        bit = game.birthday_distinguisher(16, 64, 4).run(ctx)
        batched_runs.append(len(chains) > before)
        return bit

    runs = [
        (boomerang4_distinguisher(), ConstructionSpec(P8, 4, fresh, "kafw", "permutation", False)),
        (Distinguisher("birthday", batched), ConstructionSpec(P8, 4, fresh, "kafw", "function", True)),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for d, spec in runs:
            for kind in (game.REAL, game.IDEAL):
                for seed in range(20):
                    assert run_trial(d, WorldSpec(kind, spec), seed) in (0, 1)
                    assert refs[-1]() is None
    finally:
        if enabled:
            gc.enable()
    assert len(refs) == 80
    assert batched_runs == [True] * 40


def test_a_fixed_schedules_memo_stays_within_n_layouts():
    """Thousands of trials over one schedule keep at most N layouts, one per
    key in [0, N), and at most N per-offset entries per attack."""
    p = DomainParams.for_width(5)
    for d, s in ((comp_any_distinguisher(), builtin("identity_bad(6)", p)),
                 (boomerang4_distinguisher(), random_affine(p, 4, random.Random(3)))):
        spec = ConstructionSpec(p, s.t, s, "kafw", "permutation", False)
        for kind in (game.REAL, game.IDEAL):
            for seed in range(1500):
                run_trial(d, WorldSpec(kind, spec), seed)
        layouts = [k for k in s.memo if isinstance(k, int)]
        assert sorted(layouts) == list(range(p.N))  # every key seen, none outside [0, N)
        assert len(s.memo) - len(layouts) <= p.N + 2


def spy_on_oracle_builds(monkeypatch) -> list:
    """(class name, width) of every function or permutation oracle built."""
    built = []
    for cls in (RandomFunctionOracle, RandomPermutationOracle):
        def spy(self, bits, seed, init=cls.__init__):
            built.append((type(self).__name__, bits))
            init(self, bits, seed)

        monkeypatch.setattr(cls, "__init__", spy)
    return built


@pytest.mark.parametrize("kind", [game.REAL, game.IDEAL])
def test_a_trials_child_seeds_are_derive_seeds(kind):
    spec = ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", "function", False)
    seen = []

    def probe(ctx):
        backend_seed = getattr(ctx.rk._backend, "seed", None)
        seen.append((ctx.rng.getstate(), ctx.rk._key, [f.oracle.seed for f in ctx.fs], backend_seed))
        return 0

    for seed in (0, 1, 7, (1 << 64) - 1, 12345678901234567890):
        run_trial(Distinguisher("probe", probe), WorldSpec(kind, spec), seed)
        state, key, f_seeds, ic_seed = seen[-1]
        assert state == random.Random(derive_seed(seed, "choices")).getstate()
        assert key == derive_seed(seed, "key") & (P8.N - 1)
        assert f_seeds == [derive_seed(seed, "f", i) for i in range(4)]
        assert [o.seed for o in game.round_oracles(spec, seed)] == f_seeds
        assert ic_seed == (derive_seed(seed, "ic") if kind == game.IDEAL else None)


def test_ideal_world_quartet_trials_build_no_round_oracle(monkeypatch):
    built = spy_on_oracle_builds(monkeypatch)
    identity8 = ConstructionSpec(P8, 8, builtin("identity_bad(8)", P8), "kafw", "function", False)
    runs = [(boomerang4_distinguisher(), affine4_spec()), (comp_any_distinguisher(), identity8)]
    for d, spec in runs:
        for seed in range(50):
            run_trial(d, WorldSpec(game.IDEAL, spec), seed)
    # Only the ideal cipher's own 2n-bit permutations, for keys queried twice.
    assert built and set(built) == {("RandomPermutationOracle", 16)}
    built.clear()
    for d, spec in runs:
        run_trial(d, WorldSpec(game.REAL, spec), 0)
    assert built == [("RandomPermutationOracle", 8)] * 4 + [("RandomFunctionOracle", 8)] * 8


@pytest.mark.parametrize("function_kind", ["function", "permutation"])
@pytest.mark.parametrize("single_f", [True, False], ids=["single-f", "per-round-f"])
def test_round_oracles_built_on_first_use_answer_as_eager_ones(function_kind, single_f):
    spec = ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", function_kind, single_f)
    for kind in (game.REAL, game.IDEAL):
        for seed in range(20):
            seen = []

            def probe(ctx):
                xs = [ctx.rng.randrange(P8.N) for _ in range(6)]
                ctx.rk.encrypt(0, xs[0])
                seen.append((xs, [[f(x) for x in xs] for f in ctx.fs]))
                return 0

            out = run_trial_detailed(Distinguisher("probe", probe), WorldSpec(kind, spec), seed)
            xs, answers = seen[0]
            if kind == game.IDEAL:
                eager = game.round_oracles(spec, seed)
                assert answers == [[o(x) for x in xs] for o in eager]
            assert out.q_f_used == len(set(xs)) * len(answers)


def test_birthday_sees_random_function_oracles_in_both_worlds():
    spec = ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", "function", True)
    for kind in (game.REAL, game.IDEAL):
        views = []

        def probe(ctx):
            views.append(_uncounted(ctx.fs))
            return game.birthday_distinguisher(16, 16, 4).run(ctx)

        run_trial(Distinguisher("birthday", probe), WorldSpec(kind, spec), 3)
        (oracle,), _budget = views[0]
        assert type(oracle) is RandomFunctionOracle


@pytest.mark.parametrize("kind", [game.REAL, game.IDEAL, "neither"])
def test_an_unknown_function_kind_raises_before_any_oracle(kind, monkeypatch):
    built = spy_on_oracle_builds(monkeypatch)
    ciphers = []
    monkeypatch.setattr(game, "IdealCipherOracle", lambda *a: ciphers.append(a) or IdealCipherOracle(*a))
    for schedule in (builtin("minimal4", P8), lambda rng: random_affine(P8, 4, rng)):
        spec = ConstructionSpec(P8, 4, schedule, "kafw", "table")
        with pytest.raises(DomainError, match="unknown function kind"):
            run_trial(constant_distinguisher(0), WorldSpec(kind, spec), 0)
    assert built == [] and ciphers == []
