"""The batched evaluation path against its scalar spec.

`CipherInstance.encrypt_many`, `RandomFunctionOracle.query_many`,
`RelatedKeyOracle.encrypt_many` and the chunked birthday attack must give
exactly what their scalar loops give: outputs, counters and the exception
(with the counts at which it is raised).
"""

import random
from pathlib import Path

import numpy as np
import pytest

from kafw import attacks, feistel, game, schedules
from kafw.attacks import birthday_collision_attack
from kafw.equivalence import random_subkey_map
from kafw.errors import DomainError, KafwError, QueryBudgetExceeded
from kafw.feistel import BATCH_MIN, CipherInstance, _chain, _reference_layout
from kafw.gf2 import MAX_EXHAUSTIVE_N, REDUCTION_POLYNOMIALS, BinMatrix, DomainParams
from kafw.oracles import (
    CountedFunction,
    FunctionBudget,
    IdealCipherOracle,
    RandomFunctionOracle,
    RandomPermutationOracle,
    RelatedKeyOracle,
    derive_seed,
    stream64,
)
from kafw.schedfile import parse_schedule_text
from kafw.schedules import (
    BUILTIN_NAMES,
    AffineSubkey,
    FieldCubicSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    XorSubkey,
    ZeroMap,
    builtin,
    random_affine_map,
)

MAX_N = max(REDUCTION_POLYNOMIALS)
P4 = DomainParams.for_width(4)
P8 = DomainParams.for_width(8)
P16 = DomainParams.for_width(16)
Z = ZeroMap()


def _schedule(construction, p, t, rng):
    """A seeded schedule whose maps are zero, affine, field-cubic or XORs of them."""
    maps = lambda count: tuple(random_subkey_map(p, rng) for _ in range(count))  # noqa: E731
    if construction == "kafw":
        return KeySchedule(p, maps(4), maps(t))
    if construction == "kaf":
        return KeySchedule(p, (Z,) * 4, maps(t))
    if construction == "kafv":
        return KafvSchedule(p, maps(t + 2))
    return LuciferSchedule(p, maps(t))


def _reference(inst, key, block):
    """Ciphertext and f inputs of the scalar chain under the reference layout."""
    s = inst.schedule
    n = s.params.n
    trace = []
    left, right = _chain(inst.round_functions, _reference_layout(s, key), s.key_into_f, block >> n, block & s.params.mask,
                         False, trace)
    return (left << n) | right, [x for x, _y, _after in trace]


def _twins(p, t, schedule, seeds, make=RandomFunctionOracle):
    """Two instances over equal, separate round-function oracles."""
    return tuple(
        CipherInstance(schedule, tuple(make(p.n, s) for s in seeds))
        for _ in range(2)
    )


def _columns_ran(inst):
    """A list that gets the key count of each encrypt_many that takes inst's column path."""
    ran = []
    columns = inst._encrypt_columns
    inst._encrypt_columns = lambda keys, *rest: ran.append(len(keys)) or columns(keys, *rest)
    return ran


def _check_against_the_scalar_chain(p, t, schedule, construction, seeds, keys, block, filtered=False):
    """With `filtered`, `wanted` holds every third key's ciphertext left half."""
    batch, scalar = _twins(p, t, schedule, seeds)
    ran = _columns_ran(batch)
    want = [_reference(scalar, key, block) for key in keys]
    wanted = {ct >> p.n for ct, _ in want[::3]} if filtered else None
    inputs = []
    got = batch.encrypt_many(keys, block, inputs, wanted)
    assert ran == [len(keys)]
    assert got == [ct if wanted is None or ct >> p.n in wanted else None for ct, _ in want]
    assert inputs == [list(col) for col in zip(*(xs for _, xs in want))]
    if filtered:
        return
    # Order-free: the same fresh inputs, whatever the order they came in.
    for f, g in zip(batch.round_functions, scalar.round_functions):
        assert f.query_count == g.query_count and f.table == g.table
    assert got == [batch.encrypt_block(key, block) for key in keys]  # kept scalar layouts


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_encrypt_many_matches_the_scalar_chain(construction, n):
    p = DomainParams.for_width(n)
    rng = random.Random(f"encrypt-many-{construction}-{n}")
    for case in range(12):
        t = rng.randrange(2, 7)
        seeds = [rng.randrange(1 << 40) for _ in range(1 if case % 2 else t)]
        keys = [rng.randrange(p.N) for _ in range(rng.randrange(BATCH_MIN, 80))]  # repeats too
        block = rng.randrange(p.N * p.N)
        _check_against_the_scalar_chain(p, t, _schedule(construction, p, t, rng), construction, seeds, keys, block)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_wanted_left_halves_skip_the_last_round_only(construction, n, monkeypatch):
    """With `wanted`, the ciphertexts whose left half is in it and None
    elsewhere; every round's inputs are recorded, but the last round's f
    sees only the kept keys' inputs."""
    p = DomainParams.for_width(n)
    rng = random.Random(f"wanted-{construction}-{n}")
    asked = []
    query_many = RandomFunctionOracle.query_many
    monkeypatch.setattr(RandomFunctionOracle, "query_many", lambda f, xs: asked.append(xs) or query_many(f, xs))
    for case in range(10):
        t = rng.randrange(2, 6)
        seeds = [rng.randrange(1 << 40) for _ in range(1 if case % 2 else t)]
        batch, scalar = _twins(p, t, _schedule(construction, p, t, rng), seeds)
        keys = [rng.randrange(p.N) for _ in range(rng.randrange(BATCH_MIN, 60))]
        block = rng.randrange(p.N * p.N)
        want = [_reference(scalar, key, block) for key in keys]
        wanted = {ct >> n for ct, _ in rng.sample(want, len(want) // 3)} | {rng.randrange(p.N)}
        inputs = []
        asked.clear()
        got = batch.encrypt_many(keys, block, inputs, wanted)
        assert got == [ct if ct >> n in wanted else None for ct, _ in want]
        assert inputs == [list(col) for col in zip(*(xs for _, xs in want))]
        assert len(asked) == t and asked[-1] == [xs[-1] for ct, xs in want if ct >> n in wanted]
        short = keys[: BATCH_MIN - 1]  # the scalar loop, filtered after
        assert batch.encrypt_many(short, block, wanted=wanted) == got[: BATCH_MIN - 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_chain_over_columns_matches_the_int_chain(construction, n):
    """_chain over numpy columns of every block, as the equivalence sweeps run
    it, against the chain on plain ints block by block, both directions."""
    p = DomainParams.for_width(n)
    rng = random.Random(f"columns-{construction}-{n}")
    words = np.arange(p.N * p.N, dtype=np.int64)
    left, right = words >> n, words & p.mask
    for case in range(4):
        t = rng.randrange(2, 6)
        tables = [[rng.randrange(p.N) for _ in range(p.N)] for _ in range(1 if case % 2 else t)]
        schedule = _schedule(construction, p, t, rng)
        ints = CipherInstance(schedule, tuple(tab.__getitem__ for tab in tables))
        columns = CipherInstance(
            schedule, tuple(np.array(tab, dtype=np.int64).__getitem__ for tab in tables)
        )
        for key in (rng.randrange(p.N), rng.randrange(p.N)):
            layout, into = _reference_layout(schedule, key), schedule.key_into_f
            for inverse in (False, True):
                got = _chain(columns.round_functions, layout, into, left, right, inverse)
                want = [_chain(ints.round_functions, layout, into, w >> n, w & p.mask, inverse) for w in range(p.N * p.N)]
                assert list(zip(got[0].tolist(), got[1].tolist())) == want


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("n", [16, 17, MAX_N])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_encrypt_many_spot_checks_at_n16(construction, n, filtered):
    """At n = 16, where the field-cubic tables end, and past them up to
    MAX_N, where a ciphertext fills all 64 bits of a word."""
    p = DomainParams.for_width(n)
    rng = random.Random(f"encrypt-many-{n}-{construction}")
    schedules = [_schedule(construction, p, 4, rng) for _ in range(2)]
    if construction in ("kafw", "kaf"):
        schedules.append(builtin("minimal4", p))
    if construction == "kafw":
        schedules.append(builtin("tweakem4", p))
    for i, schedule in enumerate(schedules):
        seeds = [rng.randrange(1 << 40) for _ in range(1 if i % 2 else 4)]
        keys = [rng.randrange(p.N) for _ in range(40)] + [0, p.N - 1]
        for block in (rng.randrange(p.N * p.N), p.N * p.N - 1):
            _check_against_the_scalar_chain(p, 4, schedule, construction, seeds, keys, block, filtered)


def _map_kinds(p, rng):
    """One map of each kind at p: zero, affine, field-cubic and XORs of them."""
    affine = random_affine_map(p, rng)
    cubic = FieldCubicSubkey(rng.randrange(p.N))
    return [
        Z,
        AffineSubkey(BinMatrix.zero(p.n)),
        affine,
        AffineSubkey(affine.m, p.N - 1),
        *(FieldCubicSubkey(m) for m in sorted({0, 1, 2, p.N - 1})),
        cubic,
        XorSubkey((affine, cubic)),
        XorSubkey((Z, cubic)),
        XorSubkey((Z, AffineSubkey(BinMatrix.zero(p.n)))),
        XorSubkey(()),
    ]


@pytest.mark.parametrize("n", [*range(2, 13), MAX_EXHAUSTIVE_N, MAX_EXHAUSTIVE_N + 1])
def test_values_equal_value_for_every_map_kind(n):
    """`values` over a row and over a (K, 1) column of keys is `value` key by
    key: every key up to n = 12, sampled keys at n = 16 (the last width
    with field-cubic tables) and n = 17 (key by key)."""
    p = DomainParams.for_width(n)
    rng = random.Random(f"values-{n}")
    keys = range(p.N) if n <= 12 else [0, 1, p.N - 1, *(rng.randrange(p.N) for _ in range(300))]
    for m in _map_kinds(p, rng):
        want = [m.value(k, p) for k in keys]
        for shape in ((len(keys),), (len(keys), 1)):
            got = m.values(np.array(keys, np.int64).reshape(shape), p)
            if m.is_zero(p):
                assert type(got) is int and got == 0 and set(want) == {0}, m
            else:
                assert got.dtype == np.int64 and got.shape == shape and got.ravel().tolist() == want, m


def test_a_zero_map_gives_the_int_zero():
    keys = np.arange(P8.N, dtype=np.int64)
    for m in (Z, AffineSubkey(BinMatrix.zero(8)), XorSubkey((Z, AffineSubkey(BinMatrix.zero(8)))), XorSubkey(())):
        got = m.values(keys, P8)
        assert type(got) is int and got == 0


@pytest.mark.parametrize("n", [8, MAX_EXHAUSTIVE_N + 1])
def test_a_multiplier_outside_the_field_raises_through_values_as_through_value(n):
    p = DomainParams.for_width(n)
    affine = random_affine_map(p, random.Random(n))
    for bad in (FieldCubicSubkey(p.N), FieldCubicSubkey(-1), XorSubkey((affine, FieldCubicSubkey(p.N)))):
        with pytest.raises(DomainError):
            bad.value(1, p)
        with pytest.raises(DomainError):
            bad.values(np.array([1, 2], np.int64), p)


def test_a_field_cubic_table_is_read_only():
    """Every map over the same multiplier and width shares one cached table."""
    table = schedules._field_cubic_table(3, 8, P8.reduction_polynomial)
    assert table.dtype == np.uint16 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[5] = 0
    assert table.tolist() == [FieldCubicSubkey(3).value(k, P8) for k in range(P8.N)]


DATA = Path(__file__).parent / "data"
GATHER_CASES = {
    **{
        f"{name}-n{n}": (lambda name=name, n=n: builtin(name, DomainParams.for_width(n)))
        for n in (8, 12, 16)
        for name in (name.replace("(t)", "(3)") for name in BUILTIN_NAMES)
    },
    **{
        path.name: (lambda path=path: parse_schedule_text(path.read_text()).schedule)
        for path in sorted(DATA.glob("*.sched"))
    },
    **{
        f"random-{construction}-n{n}": (
            lambda construction=construction, n=n: _schedule(
                construction, DomainParams.for_width(n), 4, random.Random(f"gather-{construction}-{n}")
            )
        )
        for n in (8, 12, 16)
        for construction in ("kafw", "kaf", "kafv", "lucifer")
    },
}


@pytest.mark.parametrize("case", GATHER_CASES)
def test_layout_columns_are_the_reference_slots(case):
    """Each slot column the column path reads, a field-cubic table's gather
    included, holds `_reference_layout(s, k)[i]` for every key, 0 and
    N - 1 among them, in the shape of the int64 key array, a row or a
    (K, 1) column; the input whitening slots are arrays even where zero."""
    s = GATHER_CASES[case]()
    N = s.params.N
    rng = random.Random(case)
    keys = [0, N - 1, *(rng.randrange(N) for _ in range(200)), N - 1]
    want = list(zip(*(_reference_layout(s, k) for k in keys)))
    for shape in ((len(keys),), (len(keys), 1)):
        columns = feistel._key_columns(s, np.array(keys, np.int64).reshape(shape))
        assert len(columns) == len(want)
        for i, (column, slot) in enumerate(zip(columns, want)):
            if isinstance(column, int):
                assert column == 0 and set(slot) == {0} and i >= 2, i
            else:
                assert column.dtype == np.int64 and column.shape == shape and column.ravel().tolist() == list(slot), i


def test_encrypt_many_falls_back_to_the_scalar_loop():
    rng = random.Random("fallback-permutation")
    for construction in ("kafw", "kafv", "lucifer"):
        schedule = _schedule(construction, P8, 4, rng)
        seeds = [rng.randrange(1 << 40) for _ in range(4)]
        batch, scalar = _twins(P8, 4, schedule, seeds, RandomPermutationOracle)
        ran = _columns_ran(batch)
        keys = [rng.randrange(P8.N) for _ in range(30)]
        assert batch.encrypt_many(keys, 0x1234) == [scalar.encrypt_block(k, 0x1234) for k in keys]
        assert [f.query_count for f in batch.round_functions] == [f.query_count for f in scalar.round_functions]
        inputs = []
        got = batch.encrypt_many(keys, 0, inputs)
        want = [_reference(scalar, key, 0) for key in keys]
        assert got == [ct for ct, _ in want]
        assert inputs == [list(col) for col in zip(*(xs for _, xs in want))]
        assert ran == []


@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_both_paths_record_the_same_round_inputs(construction):
    """The same keys over the same order-free oracles, once as columns and
    once through the encrypt_block loop (the oracles' bound queries are not
    order-free): equal ciphertexts and equal lists of f inputs per round."""
    rng = random.Random(f"both-paths-{construction}")
    for filtered in (False, True):
        schedule = _schedule(construction, P8, 4, rng)
        oracles = tuple(RandomFunctionOracle(8, rng.randrange(1 << 40)) for _ in range(4))
        columns = CipherInstance(schedule, oracles)
        loop = CipherInstance(schedule, tuple(f.query for f in oracles))
        ran = _columns_ran(columns), _columns_ran(loop)
        keys = [rng.randrange(P8.N) for _ in range(40)]
        wanted = {rng.randrange(P8.N) for _ in range(30)} if filtered else None
        recorded = []
        for inst in (columns, loop):
            inputs = []
            recorded.append((inst.encrypt_many(keys, 0xBEEF, inputs, wanted), inputs))
        assert ran == ([len(keys)], [])
        assert recorded[0] == recorded[1] and len(recorded[0][1]) == 4


def test_encrypt_many_below_the_batch_size_is_the_scalar_loop():
    inst = CipherInstance(builtin("minimal4", P8), (RandomFunctionOracle(8, 1),))
    ran = _columns_ran(inst)
    assert inst.encrypt_many([], 5) == []
    assert inst.encrypt_many([3, 4], 5) == [inst.encrypt_block(3, 5), inst.encrypt_block(4, 5)]
    keys = list(range(BATCH_MIN))
    assert inst.encrypt_many(keys[:-1], 5) == [inst.encrypt_block(k, 5) for k in keys[:-1]]
    assert ran == []
    assert inst.encrypt_many(keys, 5) == [inst.encrypt_block(k, 5) for k in keys]
    assert ran == [BATCH_MIN]


def _error(call):
    with pytest.raises(KafwError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("key", [-1, -256, 256, 1 << 20])
def test_out_of_range_keys_fail_as_the_reference_layout(key):
    """No table lookup or kept layout ever serves such a key: -1 would
    silently read entry N - 1."""
    for schedule in (builtin("minimal4", P8), builtin("tweakem4", P8)):
        inst = CipherInstance(schedule, (RandomFunctionOracle(8, 3),))
        want = _error(lambda: _reference_layout(schedule, key))
        assert want[0] is DomainError and "gf_mul" in want[1]
        ran = _columns_ran(inst)
        for batched in (False, True):  # before and after encrypt_many's column path
            assert len(ran) == batched
            assert _error(lambda: inst.encrypt_block(key, 5)) == want
            assert _error(lambda: inst.decrypt_block(key, 5)) == want
            inst.encrypt_many([1, 2, 3, 4], 5)
        for k in range(P8.N):  # every in-range layout kept, then the bad key again
            inst.decrypt_block(k, 5)
        assert sorted(schedule.memo) == list(range(P8.N))
        assert _error(lambda: inst.encrypt_block(key, 5)) == want
        assert _error(lambda: inst.decrypt_block(key, 5)) == want
        assert sorted(schedule.memo) == list(range(P8.N))
        keys = [1, 2, 3, key, 4, 5]
        assert _error(lambda: inst.encrypt_many(keys, 5)) == want
        assert _error(lambda: inst.encrypt_many(keys, 5, [])) == want


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_kept_layouts_match_the_reference_chain(construction, n):
    """Every key, both directions, cold and warm, against _chain on the
    reference layout.  Two instances share the schedule but not their round
    functions, so the schedule's memo may hold sub-keys only."""
    p = DomainParams.for_width(n)
    rng = random.Random(f"kept-layouts-{construction}-{n}")
    t = rng.randrange(2, 6)
    schedule = _schedule(construction, p, t, rng)
    insts = [
        CipherInstance(schedule, tuple(RandomFunctionOracle(n, rng.randrange(1 << 40)) for _ in range(t)))
        for _ in range(2)
    ]
    assert "memo" not in vars(schedule)
    for warm in (False, True):
        for key in range(p.N):
            for inst in insts:  # the first cold on the first pass, the second warm
                layout = _reference_layout(schedule, key)
                block = rng.randrange(p.N * p.N)
                for op, inverse in ((inst.encrypt_block, False), (inst.decrypt_block, True)):
                    left, right = _chain(inst.round_functions, layout, schedule.key_into_f, block >> n, block & p.mask,
                                         inverse)
                    assert op(key, block) == (left << n) | right, (warm, key, inverse)
        assert sorted(schedule.memo) == list(range(p.N))


def test_layouts_are_kept_up_to_n12_only():
    for n, kept in ((12, True), (13, False)):
        p = DomainParams.for_width(n)
        schedule = _schedule("kafw", p, 4, random.Random(n))
        inst = CipherInstance(schedule, (RandomFunctionOracle(n, 1),))
        for key in (0, 1, p.N - 1, 1):
            assert inst.decrypt_block(key, inst.encrypt_block(key, 77)) == 77
        assert sorted(vars(schedule).get("memo", ())) == ([0, 1, p.N - 1] if kept else [])
        assert ("memo" in vars(schedule)) == kept


@pytest.mark.parametrize("key", [-3, -1, 256, 300])
def test_out_of_range_keys_of_affine_schedules_fail_as_the_reference_layout(key):
    """mat_vec rejects a key outside [0, N) on every path: it used to drop
    the high bits, so 256 encrypted as 0 and -1 as 255."""
    rounds = tuple(AffineSubkey(BinMatrix.rotation(8, r), r) for r in range(4))
    schedule = KeySchedule(P8, (Z, AffineSubkey(BinMatrix.identity(8), 7), Z, Z), rounds)
    inst = _twins(P8, 4, schedule, [5])[0]
    want = _error(lambda: _reference_layout(schedule, key))
    assert want[0] is DomainError and "F2^8" in want[1]
    ran = _columns_ran(inst)
    for batched in (False, True):  # before and after encrypt_many's column path
        assert len(ran) == batched
        assert _error(lambda: inst.encrypt_block(key, 9)) == want
        assert _error(lambda: inst.decrypt_block(key, 9)) == want
        inst.encrypt_many([0, 1, 2, 255], 9)
    for k in range(P8.N):  # every in-range layout kept, then the bad key again
        inst.decrypt_block(k, 9)
    assert _error(lambda: inst.encrypt_block(key, 9)) == want
    assert sorted(schedule.memo) == list(range(P8.N))
    keys = [0, 1, key, 255, 2]
    assert _error(lambda: inst.encrypt_many(keys, 9)) == want
    assert _error(lambda: inst.encrypt_many(keys, 9, [])) == want


def test_a_multiplier_outside_the_field_still_raises():
    schedule = KeySchedule(P8, (Z,) * 4, (FieldCubicSubkey(0x100), Z, Z, Z))
    inst = CipherInstance(schedule, (RandomFunctionOracle(8, 3),))
    for call in (inst.encrypt_block, inst.encrypt_many, inst.encrypt_block):
        with pytest.raises(DomainError):
            call([1, 2, 3, 4] if call == inst.encrypt_many else 1, 0)


def test_query_many_equals_the_query_loop():
    rng = random.Random(5)
    for n in (4, 8, 16):
        batch, scalar = RandomFunctionOracle(n, 77), RandomFunctionOracle(n, 77)
        for _ in range(5):
            xs = [rng.randrange(1 << n) for _ in range(rng.randrange(0, 60))]
            assert batch.query_many(xs) == [scalar.query(x) for x in xs]
            assert (batch.query_count, batch.table) == (scalar.query_count, scalar.table)
        assert all(y == stream64(77, x) & ((1 << n) - 1) for x, y in batch.table.items())


@pytest.mark.parametrize("bad", [-1, 256])
def test_query_many_rejects_out_of_domain_inputs_like_query(bad):
    batch, scalar = RandomFunctionOracle(8, 1), RandomFunctionOracle(8, 1)
    xs = [3, 4, 3, bad, 5]

    def loop():
        return [scalar.query(x) for x in xs]

    assert _error(lambda: batch.query_many(xs)) == _error(loop)
    assert (batch.query_count, batch.table) == (scalar.query_count, scalar.table)


def test_ideal_cipher_seeds_and_encrypt_many():
    ic, twin = IdealCipherOracle(8, 1234), IdealCipherOracle(8, 1234)
    keys = [5, 0, 255, 17]
    outs = ic.encrypt_many(keys, 77)
    assert outs == [twin.encrypt_block(k, 77) for k in keys]
    # A key's first draw builds no permutation; its second query builds
    # the one seeded derive_seed(seed, "ic", k), holding the first pair.
    assert ic.perms == {}
    for k, y in zip(keys, outs):
        assert ic.decrypt_block(k, y) == 77
        assert ic.perms[k].seed == derive_seed(1234, "ic", k)
    # Repeats and keys queried before: the encrypt_block loop.
    mixed = [5, 9, 9, 3, 0]
    assert ic.encrypt_many(mixed, 78) == [twin.encrypt_block(k, 78) for k in mixed]
    top = (1 << 16) - 1
    assert ic.encrypt_many([1, 2, 3, 4], top) == [twin.encrypt_block(k, top) for k in [1, 2, 3, 4]]
    with pytest.raises(DomainError):
        ic.encrypt_many([3, 256], 0)


@pytest.mark.parametrize("limit", [None, 0, 3, 6, 7, 100])
def test_spend_many_equals_the_spend_loop(limit):
    rng = random.Random(limit)
    columns = [(rng.randrange(2), [rng.randrange(6) for _ in range(4)]) for _ in range(3)]
    batch, scalar = FunctionBudget(limit), FunctionBudget(limit)
    if limit != 0:
        batch.spend(0, 0)
        scalar.spend(0, 0)

    def loop():
        for j in range(4):
            for index, xs in columns:
                scalar.spend(index, xs[j])

    try:
        loop()
        want = None
    except QueryBudgetExceeded as e:
        want = str(e)
    try:
        batch.spend_many([index for index, _ in columns], [xs for _, xs in columns])
        got = None
    except QueryBudgetExceeded as e:
        got = str(e)
    assert got == want and batch.count == scalar.count


# --- RelatedKeyOracle.encrypt_many bookkeeping ------------------------------


def _rk_pair(world, limit):
    def one():
        if world == "ideal":
            backend = IdealCipherOracle(8, 5)
        else:
            backend = CipherInstance(builtin("minimal4", P8), (RandomFunctionOracle(8, 6),))
        return RelatedKeyOracle(0x2B, backend, 8, limit=limit)

    return one(), one()


def _outcome(call):
    try:
        return call(), None
    except KafwError as e:
        return None, (type(e).__name__, str(e))


@pytest.mark.parametrize("world", ["real", "ideal"])
@pytest.mark.parametrize(
    "offsets, block, limit",
    [
        ([1, 2, 3, 4, 5], 7, None),
        ([1, 2, 1, 4, 5], 7, None),  # a repeat inside the batch
        ([1, 2, 9, 4, 5], 7, None),  # a repeat of the earlier scalar query
        ([1, 2, 3, 4, 5], 7, 3),  # budget runs out at the third
        ([1, 2, 3, 4, 5], 7, 6),  # exactly enough
        ([1, 256, 3, 4], 7, None),  # offset out of range after one count
        ([-1, 2, 3, 4], 7, None),
        ([1, 2, 3, 4], 1 << 16, None),  # block out of range, before any count
        ([1, 2, 3, 4], -1, 0),  # the block check comes before the budget's
        ([300, 2, 3, 4], 1 << 16, None),  # ... and after the offset's
        ([], 1 << 16, None),  # nothing asked, nothing checked
    ],
)
def test_rk_encrypt_many_books_queries_like_the_scalar_loop(world, offsets, block, limit):
    batch, scalar = _rk_pair(world, limit)
    if limit != 0:
        assert batch.encrypt(9, 7) == scalar.encrypt(9, 7)
    got = _outcome(lambda: batch.encrypt_many(offsets, block))
    want = _outcome(lambda: [scalar.encrypt(off, block) for off in offsets])
    assert got == want
    assert (batch.query_count, batch._seen) == (scalar.query_count, scalar._seen)


# --- the chunked birthday attack against the forced scalar loop -------------


def _force_scalar(monkeypatch):
    """Offline guesses, related-key probes and the sampling of both through
    their specs: the guess loop over fs, the probe loop over `encrypt`
    (query-by-query admission, `encrypt_block` per key) and stdlib sample."""
    monkeypatch.setattr(attacks, "_uncounted", lambda fs: None)
    monkeypatch.setattr(RelatedKeyOracle, "encrypt_many", lambda rk, offsets, block: [rk.encrypt(o, block) for o in offsets])
    monkeypatch.setattr(attacks, "_sample_range", lambda rng, N, k: rng.sample(range(N), k))


def _trials(spec, q_e, q_g, world, trials, base):
    d = game.birthday_distinguisher(q_e, q_g, spec.rounds)
    w = game.WorldSpec(world, spec)
    return [
        (o.bit, o.q_e_used, o.q_f_used)
        for o in (game.run_trial_detailed(d, w, derive_seed(base, i)) for i in range(trials))
    ]


BIRTHDAY_SPECS = {
    "minimal4": game.ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", "function", True),
    "per-round-f": game.ConstructionSpec(P8, 4, builtin("tweakem4", P8), "kafw", "function", False),
    **{
        construction: game.ConstructionSpec(
            P8, 4, lambda rng, c=construction: _schedule(c, P8, 4, rng), construction, "function", True
        )
        for construction in ("kaf", "kafv", "lucifer")
    },
}


@pytest.mark.parametrize("world", [game.REAL, game.IDEAL])
def test_birthday_batched_replays_the_scalar_trials(world, monkeypatch):
    budgets = [(0, 16), (16, 0), (256, 8), (64, 48), (16, 256), (256, 256), (3, 5)]
    batched, runs = [], []
    for s, spec in enumerate(BIRTHDAY_SPECS.values()):
        for q_e, q_g in budgets:
            batched += _trials(spec, q_e, q_g, world, 10, derive_seed(s, q_e, q_g))
            runs.append((spec, q_e, q_g, derive_seed(s, q_e, q_g)))
    _force_scalar(monkeypatch)
    scalar = [t for spec, q_e, q_g, base in runs for t in _trials(spec, q_e, q_g, world, 10, base)]
    assert len(batched) >= 200
    assert batched == scalar
    if world == game.REAL:
        assert {bit for bit, _, _ in batched} == {0, 1}


@pytest.mark.parametrize("world", [game.REAL, game.IDEAL])
def test_birthday_batched_replays_the_scalar_trials_at_the_bench_setting(world, monkeypatch):
    """The benchmark's birthday-n16 setting: minimal4 at n = 16 with
    q_e = q_g = 512, so 512-wide probe batches, chunks of 128 guesses and,
    in the ideal world, one first-draw batch of 512 keys."""
    spec = game.ConstructionSpec(P16, 4, builtin("minimal4", P16), "kafw", "function", True)
    batched = _trials(spec, 512, 512, world, 8, 916)
    _force_scalar(monkeypatch)
    assert _trials(spec, 512, 512, world, 8, 916) == batched
    assert any(bit for bit, _, _ in batched) == (world == game.REAL)


@pytest.mark.parametrize("world", [game.REAL, game.IDEAL])
def test_birthday_trials_build_each_field_cubic_table_once(world, monkeypatch):
    """The real world's cipher (its related-key probes) and the attack's
    uncounted copy (its offline guesses) both run column chains over the
    trial's schedule: trials over a fresh minimal4 each and over a fixed
    one miss the field-cubic table cache at most once per multiplier (2
    and 3) between them."""
    batches = []
    chain = feistel._chain  # a batched chain reads the input whitening of `_key_columns` as an array
    monkeypatch.setattr(feistel, "_chain", lambda *a: isinstance(a[1][0], np.ndarray) and batches.append(a) or chain(*a))
    d = game.birthday_distinguisher(16, 64, 4)
    fixed = game.ConstructionSpec(P8, 4, builtin("minimal4", P8), "kafw", "function", True)
    fresh = game.ConstructionSpec(P8, 4, lambda rng: builtin("minimal4", P8), "kafw", "function", True)
    for spec in (fresh, fixed):
        schedules._field_cubic_table.cache_clear()
        for seed in range(5):
            batches.clear()
            game.run_trial(d, game.WorldSpec(world, spec), seed)
            assert schedules._field_cubic_table.cache_info().misses == 2
            assert len(batches) >= (2 if world == game.REAL else 1)


class _Planted(random.Random):
    """sample() returns the planted lists in turn: the attack's offsets, then its guesses."""

    def __init__(self, *lists):
        super().__init__(0)
        self.lists = list(lists)

    def sample(self, population, k):
        return self.lists.pop(0)


def _attack(world, n, q_e, offsets, guesses, limit=None, seed=3, key=0x5C):
    """(bit or the exception, rk.query_count, q_f spent) of one birthday attack."""
    p = DomainParams.for_width(n)
    s = builtin("minimal4", p)
    oracle = RandomFunctionOracle(n, seed)
    budget = FunctionBudget(limit)
    fs = [CountedFunction(oracle, budget, 0)]
    backend = CipherInstance(s, (oracle,)) if world == "real" else IdealCipherOracle(n, seed + 1)
    rk = RelatedKeyOracle(key & p.mask, backend, n)
    try:
        bit = birthday_collision_attack(rk, fs, s, q_e, len(guesses), _Planted(offsets, guesses))
    except (QueryBudgetExceeded, DomainError) as e:
        bit = f"{type(e).__name__}: {e}"
    return bit, rk.query_count, budget.count


def _both_paths(monkeypatch, *args, **kwargs):
    batched = _attack(*args, **kwargs)
    with monkeypatch.context() as m:
        _force_scalar(m)
        scalar = _attack(*args, **kwargs)
    assert batched == scalar
    return batched


def test_birthday_hits_at_the_edges_of_a_chunk(monkeypatch):
    # q_e = 64 at n = 8: chunks of ceil(256 / 64) = 4 guesses.
    key, delta = 0x5C, 0x21
    offsets = [delta] + [o for o in range(1, 256) if o != delta][:63]
    others = [g for g in range(256) if g ^ key not in offsets]  # guesses that cannot hit
    rng = random.Random(1)
    batches = []
    query_many = RandomFunctionOracle.query_many
    monkeypatch.setattr(RandomFunctionOracle, "query_many", lambda f, xs: batches.append(xs) or query_many(f, xs))
    for position in (0, 3, 4, 7, 11):
        guesses = rng.sample(others, 11)
        guesses.insert(position, key ^ delta)
        bit, q_e, q_f = _both_paths(monkeypatch, "real", 8, 64, offsets, guesses, key=key)
        assert bit == 1 and q_e >= 65
        assert 4 in map(len, batches)  # an offline chunk of 4 guesses (the probes make 64)
        batches.clear()
    for q_e, offsets_ in ((0, []), (256, list(range(256)))):
        for world in ("real", "ideal"):
            _both_paths(monkeypatch, world, 8, q_e, offsets_, rng.sample(range(256), 40), key=key)
    # A guess outside [0, N) in the hit's chunk, after or before it: the
    # scalar loop returns at the hit or raises gf_mul's error at the bad guess.
    hit = key ^ delta
    for bad in (-1, 256):
        for guesses, want in (([hit, bad, *others[:2]], 1), ([others[0], bad, hit, others[1]], "DomainError")):
            bit, q_e, q_f = _both_paths(monkeypatch, "real", 8, 64, offsets, guesses, key=key)
            assert str(bit).startswith(str(want))


def test_birthday_repeated_confirmation_offsets(monkeypatch):
    # At n = 4 every seen ciphertext is one of 256 blocks, so false
    # candidates are common; repeating them makes the confirmation cache
    # answer a second time for the same offset.
    repeats = 0
    for seed in range(40):
        # The world _attack builds: key 0x5C & 0xF, ideal cipher seed + 1.
        rk_oracle = RelatedKeyOracle(0xC, IdealCipherOracle(4, seed + 1), 4)
        seen = {rk_oracle.encrypt(off, 0): off for off in range(16)}
        probe = CipherInstance(builtin("minimal4", P4), (RandomFunctionOracle(4, seed),))
        candidates = [g for g in range(16) if probe.encrypt_block(g, 0) in seen]
        if not candidates:
            continue
        c = candidates[0]
        guesses = [c, 7, c] + [g for g in range(16) if g not in (c, 7)][:13]  # q_g <= N
        bit, q_e, q_f = _both_paths(monkeypatch, "ideal", 4, 16, list(range(16)), guesses, seed=seed)
        repeats += 1
    assert repeats >= 10


@pytest.mark.parametrize("world", ["real", "ideal"])
def test_birthday_tight_budgets_run_out_at_the_same_spend(world, monkeypatch):
    rng = random.Random(world)
    offsets = rng.sample(range(256), 64)
    guesses = rng.sample(range(256), 96)
    full = _both_paths(monkeypatch, world, 8, 64, offsets, guesses)
    ran_out = 0
    for limit in sorted({0, 1, 3, 4, 5, full[2] - 1, full[2], full[2] + 1} | set(range(0, full[2], 37))):
        bit, q_e, q_f = _both_paths(monkeypatch, world, 8, 64, offsets, guesses, limit=max(limit, 0))
        ran_out += isinstance(bit, str)
    assert ran_out >= 3
