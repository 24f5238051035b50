"""Misuse of public entry points: each row is a call and the typed error it
raises, at the call itself rather than on some later use."""

from fractions import Fraction

import numpy as np
import pytest

from kafw.auditor import (
    check_corollary1_nl, check_definition1, check_definition3, measure_axu, measure_cross_uniformity, measure_uniformity,
)
from kafw.equivalence import kafv_vs_kafw_sweep, lucifer_sandwich_sweep
from kafw.errors import DomainError, ScheduleArityMismatch
from kafw.game import bound_formula
from kafw.feistel import BATCH_MIN, CipherInstance, _sweep_chain
from kafw.gf2 import BinMatrix, DomainParams, joint_kernel_basis
from kafw.oracles import (
    CountedFunction, FunctionBudget, IdealCipherOracle, RandomFunctionOracle, RandomPermutationOracle, RelatedKeyOracle,
)
from kafw.schedules import (
    MAX_BUILTIN_ROUNDS, AffineSubkey, KafvSchedule, KeySchedule, LuciferSchedule, XorSubkey, ZeroMap, builtin,
    identity_map, kafv_to_kafw,
)

P8 = DomainParams.for_width(8)
P32 = DomainParams.for_width(32)


def _cipher():
    return CipherInstance(builtin("identity_bad(4)", P8), (RandomFunctionOracle(8, 1),))


def _one_round():
    """One round keyed by the key itself: blocks outside [0, 2^16) used to
    encrypt silently (1 << 20 to 0x1034, -1 to -203)."""
    return CipherInstance(KeySchedule(P8, (ZeroMap(),) * 4, (identity_map(8),)), (RandomFunctionOracle(8, 1),))


def _wide():
    """At n = 32 a block of 2^64 would overflow encrypt_many's int64 columns."""
    return CipherInstance(builtin("minimal4", P32), (RandomFunctionOracle(32, 1),))


def _four_functions(schedule=None):
    """minimal4 over four random functions: enough keys take encrypt_many's column path."""
    schedule = builtin("minimal4", P8) if schedule is None else schedule
    return CipherInstance(schedule, tuple(RandomFunctionOracle(8, seed) for seed in range(4)))


def _table_lookup(table_type=list):
    """minimal4 over a table-lookup f: 1 << 17 used to raise IndexError.
    An array table maps numpy arrays to arrays."""
    table = table_type([RandomFunctionOracle(8, 2).query(x) for x in range(256)])
    return CipherInstance(builtin("minimal4", P8), (table.__getitem__,))


ROW = np.arange(4)[None]  # a (1, W) row of blocks, as the equivalence sweeps once passed them


class _Lookup:
    """A table-lookup f that counts its queries; over a numpy table it maps
    arrays to arrays."""

    def __init__(self, table_type):
        self.table = table_type([RandomFunctionOracle(8, 2).query(x) for x in range(256)])
        self.query_count = 0

    def __call__(self, x):
        self.query_count += 1
        return self.table[x]


# The block interface takes ints only, whatever the round functions: an
# array key or block used to reach the package's oracles and raise
# ValueError, TypeError or OverflowError, and a list's lookup TypeError.
F_KINDS = {
    "function oracle": lambda: RandomFunctionOracle(8, 1),
    "permutation oracle": lambda: RandomPermutationOracle(8, 1),
    "counted function view": lambda: CountedFunction(RandomFunctionOracle(8, 1), FunctionBudget()),
    "list lookup": lambda: _Lookup(list),
    "numpy array lookup": lambda: _Lookup(np.array),
}
ARRAY_OPERANDS = {  # encrypt_block's (key, block)
    "array of blocks": (3, np.array([1, 2])),
    "array of keys": (np.array([3, 4]), 5),
    "0-d key array": (np.array(3), 5),
    "key column against a row of blocks": (np.array([[3], [4]]), ROW),
}

MISUSE = [
    ("function oracle of width -1", lambda: RandomFunctionOracle(-1, 0), DomainError),
    ("permutation oracle of width -2", lambda: RandomPermutationOracle(-2, 0), DomainError),
    ("ideal cipher of width -1", lambda: IdealCipherOracle(-1, 0), DomainError),
    ("related-key oracle of width -1", lambda: RelatedKeyOracle(0, IdealCipherOracle(0, 0), -1), DomainError),
    ("related-key oracle with master key 2^n + 0xFF", lambda: RelatedKeyOracle(0x1FF, _cipher(), 8), DomainError),
    ("related-key oracle with master key -1", lambda: RelatedKeyOracle(-1, _cipher(), 8), DomainError),
    ("affine sub-key of key 2^n", lambda: _cipher().encrypt_block(256, 0), DomainError),
    ("affine sub-key of key -1", lambda: _cipher().encrypt_block(-1, 0), DomainError),
    *[
        (f"{make.__qualname__} of width {n!r}", lambda make=make, n=n: make(n), DomainError)
        for make in (DomainParams, DomainParams.for_width)
        for n in (8.0, np.int64(8), 1, 33)
    ],
    ("empty matrix", lambda: BinMatrix(()), DomainError),
    ("matrix row 2^n", lambda: BinMatrix((1, 4)), DomainError),
    ("negative matrix row", lambda: BinMatrix((1, -1)), DomainError),
    ("XOR of matrices of sizes 2 and 3", lambda: BinMatrix.identity(2) ^ BinMatrix.identity(3), DomainError),
    ("joint kernel of no matrix", lambda: joint_kernel_basis([]), DomainError),
    ("joint kernel of matrices of sizes 2 and 3",
     lambda: joint_kernel_basis([BinMatrix.identity(2), BinMatrix.identity(3)]), DomainError),
    # Sub-key matrices of size 4 at width 8 used to raise a bare ValueError at M1 ^ M3.
    ("definition 3 audit of 4 x 4 sub-key matrices at n = 8",
     lambda: check_definition3(KeySchedule(P8, (ZeroMap(),) * 4, (AffineSubkey(BinMatrix.identity(4)),) * 6)),
     DomainError),
    ("KAFw schedule with a 4 x 4 round-key matrix at n = 8",
     lambda: KeySchedule(P8, (ZeroMap(),) * 4, (AffineSubkey(BinMatrix.identity(4)),) * 4), DomainError),
    ("KAFw schedule with a 4 x 4 matrix inside an XOR whitening map",
     lambda: KeySchedule(P8, (ZeroMap(), XorSubkey((identity_map(8), identity_map(4))), ZeroMap(), ZeroMap()),
                         (identity_map(8),)), DomainError),
    ("KAFv schedule with a 9 x 9 matrix at n = 8",
     lambda: KafvSchedule(P8, (identity_map(8), identity_map(9))), DomainError),
    ("KAFv schedule with an affine constant 2^n", lambda: KafvSchedule(P8, (identity_map(8),) * 2 + (
        AffineSubkey(BinMatrix.identity(8), 256),)), DomainError),
    ("Lucifer schedule with a 4 x 4 matrix in a nested XOR",
     lambda: LuciferSchedule(P8, (identity_map(8),
                                  XorSubkey((ZeroMap(), XorSubkey((identity_map(8), identity_map(4))))))),
     DomainError),
    ("Lucifer schedule with an affine constant -1",
     lambda: LuciferSchedule(P8, (identity_map(8), AffineSubkey(BinMatrix.identity(8), -1))), DomainError),
    *[
        (f"theorem {theorem} bound with N = 0", lambda theorem=theorem: bound_formula(theorem, 1, 1, 0), DomainError)
        for theorem in (1, 2, 5, 6)
    ],
    ("one-round block 2^20", lambda: _one_round().encrypt_block(3, 1 << 20), DomainError),
    ("one-round block -1", lambda: _one_round().encrypt_block(3, -1), DomainError),
    ("one-round decryption of block 2^16", lambda: _one_round().decrypt_block(3, 1 << 16), DomainError),
    ("table-lookup block 2^17", lambda: _table_lookup().encrypt_block(3, 1 << 17), DomainError),
    ("batched block 2^16", lambda: _cipher().encrypt_many([1, 2, 3, 4], 1 << 16), DomainError),
    ("batched block -1", lambda: _cipher().encrypt_many([1, 2, 3, 4], -1), DomainError),
    ("unbatched block 2^16", lambda: _cipher().encrypt_many([1], 1 << 16), DomainError),
    ("table-lookup batch of block 2^17", lambda: _table_lookup().encrypt_many([1, 2, 3, 4], 1 << 17), DomainError),
    ("batched block 2^64 at n = 32", lambda: _wide().encrypt_many([1, 2, 3, 4], 1 << 64), DomainError),
    # Array keys, whatever they hold, over an f that maps arrays to arrays.
    *[
        (f"{dtype.__name__} key column holding {bad}",
         lambda bad=bad, dtype=dtype: _table_lookup(np.array).encrypt_block(np.array([[3], [bad]], dtype), ROW),
         DomainError)
        for bad, dtype in ((-1, np.int64), (256, np.int64), (2**64 - 1, np.uint64), (-1, np.int8))
    ],
    ("key column decrypting under key 256",
     lambda: _table_lookup(np.array).decrypt_block(np.array([[256]]), ROW), DomainError),
    ("float key column", lambda: _table_lookup(np.array).encrypt_block(np.array([[3.0]]), ROW), DomainError),
    ("list of keys", lambda: _table_lookup().encrypt_block([3, 4], 0), DomainError),
    # The column path used to truncate each key to int64, encrypting 1.5 as 1.
    *[
        (f"batch of keys led by {bad!r}", lambda bad=bad: _four_functions().encrypt_many([bad, 2, 3, 4], 0x1234),
         DomainError)
        for bad in (1.5, Fraction(3, 2), np.float64(1.5), "a", None)
    ],
    ("unbatched keys led by 1.5", lambda: _four_functions().encrypt_many([1.5, 2], 0x1234), DomainError),
    *[
        (f"{op} of block 1.0", lambda op=op: getattr(_cipher(), op)(1, 1.0), DomainError)
        for op in ("encrypt_block", "decrypt_block")
    ],
    ("batched block 1.0", lambda: _four_functions().encrypt_many([1, 2, 3, 4], 1.0), DomainError),
    ("int64 block 2^20", lambda: _cipher().encrypt_block(1, np.int64(1 << 20)), DomainError),
    ("float64 array of blocks", lambda: _table_lookup(np.array).encrypt_block(3, ROW.astype(np.float64)), DomainError),
    *[
        (f"{operand} over a {f}",
         lambda make=make, args=args: CipherInstance(builtin("minimal4", P8), (make(),)).encrypt_block(*args),
         DomainError)
        for f, make in F_KINDS.items()
        for operand, args in ARRAY_OPERANDS.items()
    ],
    # The oracles take ints too: these raised TypeError or struct.error, or
    # (True) answered as 1.
    ("related-key query at offset 1.5", lambda: RelatedKeyOracle(5, _cipher(), 8).encrypt(1.5, 0), DomainError),
    ("related-key batch of offsets led by 1.5",
     lambda: RelatedKeyOracle(5, IdealCipherOracle(8, 1), 8).encrypt_many([1.5, 2], 0), DomainError),
    ("ideal-cipher key 1.5", lambda: IdealCipherOracle(8, 1).encrypt_block(1.5, 0), DomainError),
    ("ideal-cipher batch of keys led by 1.5", lambda: IdealCipherOracle(8, 1).encrypt_many([1.5, 2], 0), DomainError),
    ("ideal-cipher batch of block 1.0", lambda: IdealCipherOracle(8, 1).encrypt_many([1, 2], 1.0), DomainError),
    ("function oracle input 1.5", lambda: RandomFunctionOracle(8, 1).query(1.5), DomainError),
    ("function oracle input True", lambda: RandomFunctionOracle(8, 1).query(True), DomainError),
    ("function oracle batch holding 1.5", lambda: RandomFunctionOracle(8, 1).query_many([1, 1.5]), DomainError),
    ("function oracle batch of True after 1 was drawn",
     lambda: (lambda o: (o.query(1), o.query_many([True])))(RandomFunctionOracle(8, 1)), DomainError),
    ("permutation oracle input 1.5", lambda: RandomPermutationOracle(8, 1)(1.5), DomainError),
    ("permutation oracle backward input True", lambda: RandomPermutationOracle(8, 1).backward(True), DomainError),
    ("counted function view input 1.5",
     lambda: CountedFunction(RandomFunctionOracle(8, 1), FunctionBudget()).query(1.5), DomainError),
    ("kafv_to_kafw of a KAFw schedule", lambda: kafv_to_kafw(builtin("minimal4", P8)), ScheduleArityMismatch),
    ("kafv_to_kafw of no schedule", lambda: kafv_to_kafw(None), ScheduleArityMismatch),
    # _table used to truncate each float, auditing k + 0.5 as the identity
    # (uniformity 1, XOR-universality 16).
    ("uniformity of a float-valued map", lambda: measure_uniformity(lambda k: k + 0.5, 4), DomainError),
    ("XOR-universality of a float-valued map", lambda: measure_axu(lambda k: k + 0.5, 4), DomainError),
    ("cross uniformity of a float-valued map", lambda: measure_cross_uniformity(lambda k: k, lambda k: k / 1, 4), DomainError),
    ("uniformity of a map returning None", lambda: measure_uniformity(lambda k: None, 4), DomainError),
    ("uniformity of a map returning str(k)", lambda: measure_uniformity(str, 4), DomainError),
    ("uniformity at width 4.0", lambda: measure_uniformity(lambda k: k, 4.0), DomainError),
    ("XOR-universality at width None", lambda: measure_axu(lambda k: k, None), DomainError),
    ("definition 1 audit with threshold None", lambda: check_definition1(builtin("minimal4", P8), None), DomainError),
    ("corollary 1 audit with threshold 2.5", lambda: check_corollary1_nl(builtin("minimal4", P8), 2.5), DomainError),
    # int() refused the 5000 digits with a ValueError, and (map,) * 10**30
    # an OverflowError: the round count is checked before any tuple is built.
    ("identity_bad of 5000 digits of rounds", lambda: builtin(f"identity_bad({'9' * 5000})", P8), DomainError),
    ("identity_bad(10**30)", lambda: builtin(f"identity_bad({10**30})", P8), DomainError),
    ("identity_bad with rounds=10**30", lambda: builtin("identity_bad", P8, rounds=10**30), DomainError),
    ("identity_bad one round past the cap", lambda: builtin("identity_bad", P8, rounds=MAX_BUILTIN_ROUNDS + 1),
     DomainError),
    # Each sweep drew t + 2 (or t) maps and t tables before its first case:
    # 10**8 rounds ended in a MemoryError.  The cap is checked before any draw.
    *[
        (f"{sweep.__name__} one round past the cap", lambda sweep=sweep: sweep(2, MAX_BUILTIN_ROUNDS + 1, (1,)),
         DomainError)
        for sweep in (kafv_vs_kafw_sweep, lucifer_sandwich_sweep)
    ],
]


@pytest.mark.parametrize("call, error", [row[1:] for row in MISUSE], ids=[row[0] for row in MISUSE])
def test_misuse_raises_its_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_the_edge_of_each_domain_still_works():
    for oracle in (RandomFunctionOracle(0, 5), RandomPermutationOracle(0, 5)):
        assert oracle(0) == 0  # width 0: the one-point domain
    assert IdealCipherOracle(0, 5).encrypt_block(0, 0) == 0
    assert RelatedKeyOracle(0, IdealCipherOracle(0, 5), 0).encrypt(0, 0) == 0
    assert RelatedKeyOracle(0xFF, _cipher(), 8).encrypt(0, 0) == _cipher().encrypt_block(0xFF, 0)
    assert BinMatrix((1, 3)).n == 2
    assert bound_formula(6, 1, 1, 1).value == 24
    kafv = KafvSchedule(P8, (identity_map(8),) * 4)
    assert kafv_to_kafw(kafv).t == 2
    for schedule in (kafv, LuciferSchedule(P8, (identity_map(8),) * 3)):
        cipher = CipherInstance(schedule, (RandomFunctionOracle(8, 3),))  # the schedule names the construction
        assert cipher.decrypt_block(5, cipher.encrypt_block(5, 0x1234)) == 0x1234
    cipher = _one_round()
    top = cipher.encrypt_block(3, (1 << 16) - 1)
    assert cipher.decrypt_block(3, top) == (1 << 16) - 1
    assert cipher.encrypt_many([3] * 4, (1 << 16) - 1) == [top] * 4
    assert cipher.encrypt_many([], 1 << 16) == []  # nothing asked, nothing checked
    assert measure_uniformity(lambda k: np.int64(k), np.int64(4)) == 1
    # A numpy integer scalar key is its int, on a fresh schedule (field-cubic
    # maps used to fail on np.int64) and on one that keeps its layout.
    for key in (np.int64(5), np.uint8(5), np.int64(255)):
        fresh, kept = _table_lookup(), _table_lookup()
        want = kept.encrypt_block(int(key), 0x1234)
        for cipher in (fresh, kept):
            got = cipher.encrypt_block(key, 0x1234)
            assert type(got) is int and got == want
            assert cipher.decrypt_block(key, want) == 0x1234
    # encrypt_many of a key array (it used to ask `if keys`) is its loop.
    cipher = _four_functions()
    assert cipher.encrypt_many(np.arange(5), 0x1234) == [cipher.encrypt_block(k, 0x1234) for k in range(5)]
    # The sweeps' chain takes a key column against a row of halves; keys 0 and N - 1 included.
    cipher, keys, blocks = _table_lookup(np.array), np.array([[0], [7], [255]]), np.array([[0, 0x1234, 0xFFFF]])
    left, right = _sweep_chain(cipher, keys, blocks >> 8, blocks & 0xFF)
    assert (left << 8 | right).tolist() == [[cipher.encrypt_block(k, b) for b in (0, 0x1234, 0xFFFF)] for k in (0, 7, 255)]
    assert _sweep_chain(cipher, np.array([], np.int64)[:, None], blocks >> 8, blocks & 0xFF)[0].shape == (0, 3)
    assert measure_axu(lambda k: np.uint16(k) if k % 2 else k, 4) == 16
    assert check_definition1(builtin("tweakem4", P8), np.int64(3)).good_like
    assert builtin(f"identity_bad({MAX_BUILTIN_ROUNDS})", P8).t == MAX_BUILTIN_ROUNDS


# Operands of other kinds, each put where the int 5 would go.  A numpy
# integer scalar acts as its int; every other kind raises DomainError.
KINDS = [True, np.int64(5), np.uint8(5), 5.0, Fraction(5), "5", None, [5]]

def _entry_points(key, block):
    """(name, call(cipher), its spec(cipher) or None) for each entry point.
    encrypt_many's key lists put key second among ints, and its spec is
    the encrypt_block loop; the longer list takes the column path when
    every key is an int."""
    yield "encrypt_block", lambda c: c.encrypt_block(key, block), None
    yield "decrypt_block", lambda c: c.decrypt_block(key, block), None
    for count in (BATCH_MIN - 1, 2 * BATCH_MIN):
        keys = [1, key, *range(2, count)]
        yield (f"encrypt_many of {count} keys", lambda c, keys=keys: c.encrypt_many(keys, block),
               lambda c, keys=keys: [c.encrypt_block(k, block) for k in keys])


def _outcome(call, schedule):
    """(result or the DomainError's message, each f's query count) of
    call on a fresh cipher over schedule; any other exception propagates."""
    cipher = _four_functions(schedule)
    try:
        got = call(cipher)
    except DomainError as error:
        got = ("DomainError", str(error))
    return got, [f.query_count for f in cipher.round_functions]


def _schedule(kept: bool):
    """minimal4 fresh, or with every key's layout kept and a column chain run over it."""
    schedule = builtin("minimal4", P8)
    if kept:
        warm = _four_functions(schedule)
        for key in range(P8.N):
            warm.encrypt_block(key, 0)
        warm.encrypt_many(list(range(2 * BATCH_MIN)), 0)
    return schedule


@pytest.mark.parametrize("kept", [False, True], ids=["fresh", "kept"])
@pytest.mark.parametrize("operand", ["key", "block"])
@pytest.mark.parametrize("value", KINDS, ids=[repr(value) for value in KINDS])
def test_an_operand_of_another_kind_acts_as_its_int_or_raises_domain_error(value, operand, kept):
    """Whatever the memo holds: 5.0 used to be served key 5's kept layout.
    encrypt_many equals its encrypt_block loop on both of its paths, so a
    bad key raises at the same key after the same f queries."""
    args, ints = ((value, 0x1234), (5, 0x1234)) if operand == "key" else ((3, value), (3, 5))
    many = []
    for (name, call, spec), (_, int_call, _) in zip(_entry_points(*args), _entry_points(*ints)):
        got = _outcome(call, _schedule(kept))
        if isinstance(value, np.integer):
            assert got == _outcome(int_call, _schedule(kept)), name
        else:
            assert got[0][0] == "DomainError", name
        if spec is not None:
            assert got == _outcome(spec, _schedule(kept)), name
            many.append(got)
    if not isinstance(value, np.integer):
        # Both raise at the second key, after the first key's four rounds; at a bad block, before any.
        assert many[0] == many[1] and many[0][1] == ([1] * 4 if operand == "key" else [0] * 4)


def _related_key():
    return RelatedKeyOracle(0x5C, _four_functions(), 8)


# Each oracle entry point: (make the oracle, what it counts, call(oracle, v)
# with v where the int 5 would go, and for a batch its scalar loop or None).
# A batch of inputs, keys or offsets puts v second.
ORACLE_CALLS = {
    "function query": (lambda: RandomFunctionOracle(8, 1), lambda o: o.query_count,
                       lambda o, v: o.query(v), None),
    "function query_many": (lambda: RandomFunctionOracle(8, 1), lambda o: o.query_count,
                            lambda o, v: o.query_many([1, v, 2]), lambda o, v: [o.query(x) for x in (1, v, 2)]),
    "permutation forward": (lambda: RandomPermutationOracle(8, 1), lambda o: o.query_count,
                            lambda o, v: o.forward(v), None),
    "permutation backward": (lambda: RandomPermutationOracle(8, 1), lambda o: o.query_count,
                             lambda o, v: o.backward(v), None),
    "counted function view": (lambda: CountedFunction(RandomFunctionOracle(8, 1), FunctionBudget()),
                              lambda o: (o.budget.count, o.oracle.query_count), lambda o, v: o(v), None),
    "ideal-cipher key": (lambda: IdealCipherOracle(8, 1), lambda o: (sorted(o._first), sorted(o.perms)),
                         lambda o, v: o.encrypt_block(v, 0x1234), None),
    "ideal-cipher block": (lambda: IdealCipherOracle(8, 1), lambda o: (sorted(o._first), sorted(o.perms)),
                           lambda o, v: o.decrypt_block(3, v), None),
    "ideal-cipher batch of keys": (lambda: IdealCipherOracle(8, 1), lambda o: (sorted(o._first), sorted(o.perms)),
                                   lambda o, v: o.encrypt_many([1, v, 2], 0x1234),
                                   lambda o, v: [o.encrypt_block(k, 0x1234) for k in (1, v, 2)]),
    "ideal-cipher batch of block": (lambda: IdealCipherOracle(8, 1), lambda o: (sorted(o._first), sorted(o.perms)),
                                    lambda o, v: o.encrypt_many([1, 2], v),
                                    lambda o, v: [o.encrypt_block(k, v) for k in (1, 2)]),
    "related-key offset": (_related_key, lambda o: o.query_count, lambda o, v: o.encrypt(v, 0x1234), None),
    "related-key block": (_related_key, lambda o: o.query_count, lambda o, v: o.decrypt(3, v), None),
    "related-key batch of offsets": (_related_key, lambda o: o.query_count,
                                     lambda o, v: o.encrypt_many([1, v, *range(6, 6 + 2 * BATCH_MIN)], 0x1234),
                                     lambda o, v: [o.encrypt(off, 0x1234) for off in (1, v, *range(6, 6 + 2 * BATCH_MIN))]),
    "related-key batch of block": (_related_key, lambda o: o.query_count,
                                   lambda o, v: o.encrypt_many(list(range(2 * BATCH_MIN)), v),
                                   lambda o, v: [o.encrypt(off, v) for off in range(2 * BATCH_MIN)]),
}


def _oracle_outcome(make, counts, call):
    """(repr of the result or the DomainError's message, counts) of call on a fresh oracle."""
    oracle = make()
    try:
        got = repr(call(oracle))
    except DomainError as error:
        got = ("DomainError", str(error))
    return got, counts(oracle)


@pytest.mark.parametrize("name", ORACLE_CALLS)
@pytest.mark.parametrize("value", KINDS, ids=[repr(value) for value in KINDS])
def test_an_oracle_operand_acts_as_its_int_or_raises_before_it_counts(value, name):
    """The block interface's rule at every oracle entry point: a numpy
    integer scalar gives what its int gives, as an int; anything else
    raises DomainError before the query is admitted or counted, and a
    batch is its loop, raising at the same place with the same count."""
    make, counts, call, loop = ORACLE_CALLS[name]
    got = _oracle_outcome(make, counts, lambda o: call(o, value))
    if isinstance(value, np.integer):
        assert got == _oracle_outcome(make, counts, lambda o: call(o, 5))
    else:
        assert got[0][0] == "DomainError"
    if loop is not None:
        assert got == _oracle_outcome(make, counts, lambda o: loop(o, value))
    elif not isinstance(value, np.integer):
        assert got[1] == counts(make())


def test_a_bad_block_raises_before_any_f_query():
    for call in (
        lambda c: c.encrypt_block(3, 1 << 16),
        lambda c: c.decrypt_block(3, -1),
        lambda c: c.encrypt_many([1, 2, 3, 4], 1 << 16),
        lambda c: c.encrypt_many([1], -1),
    ):
        cipher = _cipher()
        with pytest.raises(DomainError, match="block out of range"):
            call(cipher)
        assert cipher.round_functions[0].query_count == 0


@pytest.mark.parametrize("f", F_KINDS)
def test_an_array_operand_raises_before_any_f_query(f):
    for key, block in ARRAY_OPERANDS.values():
        for op in ("encrypt_block", "decrypt_block"):
            oracle = F_KINDS[f]()
            cipher = CipherInstance(builtin("minimal4", P8), (oracle,))
            with pytest.raises(DomainError, match="is an int, not a ndarray"):
                getattr(cipher, op)(key, block)
            if isinstance(oracle, CountedFunction):
                assert oracle.budget.count == 0
                oracle = oracle.oracle
            assert oracle.query_count == 0


def test_a_bad_threshold_raises_before_any_map_is_tabulated(monkeypatch):
    binds = []
    monkeypatch.setattr(KeySchedule, "bind", lambda schedule, m: binds.append(m))
    with pytest.raises(DomainError, match="threshold"):
        check_definition1(builtin("minimal4", DomainParams.for_width(12)), None)
    assert binds == []
