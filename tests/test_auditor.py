"""Key-schedule audits: exact counts, reductions validated against direct enumeration."""

import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kafw import auditor
from kafw.errors import ArityMismatch, DomainError, DomainTooLarge, NotAffine, ScheduleArityMismatch
from kafw.auditor import (
    _shifted_count,
    check_corollary1_affine,
    check_corollary1_nl,
    check_corollary2,
    check_definition1,
    check_definition3,
    measure_axu,
    measure_cross_uniformity,
    measure_uniformity,
)
from kafw.gf2 import BinMatrix, DomainParams, gf_cube, gf_mul, mat_vec
from kafw.schedules import (
    AffineSubkey,
    FieldCubicSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    SubkeyMap,
    XorSubkey,
    ZeroMap,
    builtin,
    identity_map,
    kafv_to_kafw,
    ortho_map,
    random_affine_map,
)

P3 = DomainParams.for_width(3)
P6 = DomainParams.for_width(6)
P8 = DomainParams.for_width(8)
Z = ZeroMap()


# Direct-enumeration oracles, straight from the offset-family definitions.
def direct_uniformity(phi, n):
    """max over (offset, y) of |{k : phi(k ^ offset) = y}|."""
    N = 1 << n
    worst = 0
    for off in range(N):
        counts = {}
        for k in range(N):
            v = phi(k ^ off)
            counts[v] = counts.get(v, 0) + 1
        worst = max(worst, max(counts.values()))
    return worst


def direct_axu(phi, n):
    """max over (offset != offset', b) of |{k : phi(k^o) ^ phi(k^o') = b}|."""
    N = 1 << n
    worst = 0
    for o1 in range(N):
        for o2 in range(N):
            if o1 == o2:
                continue
            counts = {}
            for k in range(N):
                v = phi(k ^ o1) ^ phi(k ^ o2)
                counts[v] = counts.get(v, 0) + 1
            worst = max(worst, max(counts.values()))
    return worst


def direct_cross(phi1, phi4, n):
    """max over (offset, offset', y) of |{k : phi1(k^o) ^ phi4(k^o') = y}|."""
    N = 1 << n
    worst = 0
    for o1 in range(N):
        for o2 in range(N):
            counts = {}
            for k in range(N):
                v = phi1(k ^ o1) ^ phi4(k ^ o2)
                counts[v] = counts.get(v, 0) + 1
            worst = max(worst, max(counts.values()))
    return worst


def test_uniformity_examples():
    assert measure_uniformity(lambda k: k, 4) == 1
    assert measure_uniformity(lambda k: 9, 4) == 16
    phi = lambda k: builtin("minimal4", P8).round_keys[0].value(k, P8)
    assert measure_uniformity(phi, 8) <= 3


def test_axu_examples():
    # Any F2-linear map has a constant difference in k: count N.
    m = BinMatrix.rotation(6, 2)
    assert measure_axu(lambda k: mat_vec(m, k), 6) == 64
    cube = lambda k: gf_cube(k, P3)
    # Exact value from direct enumeration over all (a != 0, b, k) triples.
    assert measure_axu(cube, 3) == direct_axu(cube, 3)


def test_cross_examples():
    ident = lambda k: k
    assert measure_cross_uniformity(ident, ident, 4) == 16  # difference constant at a = 0
    assert measure_cross_uniformity(ident, lambda k: 5, 4) == 1
    mini = builtin("minimal4", P8)
    phi1 = mini.bind(mini.round_keys[0])
    phi4 = mini.bind(mini.round_keys[3])
    assert measure_cross_uniformity(phi1, phi4, 8) <= 2


@pytest.mark.parametrize("seed", [0, 1])
def test_reductions_agree_with_direct_enumeration(seed):
    rng = random.Random(seed)
    n, N = 6, 64
    tab1 = [rng.randrange(N) for _ in range(N)]
    tab4 = [rng.randrange(N) for _ in range(N)]
    phi1, phi4 = tab1.__getitem__, tab4.__getitem__
    assert measure_uniformity(phi1, n) == direct_uniformity(phi1, n)
    assert measure_axu(phi1, n) == direct_axu(phi1, n)
    assert measure_cross_uniformity(phi1, phi4, n) == direct_cross(phi1, phi4, n)


def _sample_tables(n, rng):
    """Seeded random, constant, affine, bijective and 2-to-1 tables of width n."""
    N = 1 << n
    m = BinMatrix(tuple(rng.randrange(N) for _ in range(n)))
    c = rng.randrange(N)
    perm = rng.sample(range(N), N)
    halves = [rng.randrange(N) for _ in range(max(N // 2, 1))]
    pairing = rng.sample(range(N), N)  # keys pairing[2i], pairing[2i + 1] share a value
    two_to_one = [0] * N
    for i, k in enumerate(pairing):
        two_to_one[k] = halves[i // 2]
    return {
        "random": [rng.randrange(N) for _ in range(N)],
        "constant": [c] * N,
        "affine": [mat_vec(m, k) ^ c for k in range(N)],
        "bijective": perm,
        "2-to-1": two_to_one,
    }


def shifted_count(t1, t2, offsets):
    """Reference loop: max over a in offsets and y of |{k : t1[k] ^ t2[k ^ a] = y}|."""
    N = len(t1)
    idx = np.arange(N)
    worst = 0
    for a in offsets:
        diffs = t1 ^ t2[idx ^ a]
        worst = max(worst, int(np.bincount(diffs, minlength=N).max()))
    return worst


def _assert_kernel_matches_the_loop(u, v, label=None):
    """_shifted_count(u, v, first) for both values of first against the
    per-offset loop, and so is its count with u in v's place, given as the
    same object (the paired half-key shortcut) and as an equal copy."""
    N = len(u)
    for first in (0, 1):
        assert _shifted_count(u, v, first) == shifted_count(v, u, range(first, N)), (label, first)
        self_count = shifted_count(u, u, range(first, N))
        assert _shifted_count(u, u, first) == self_count, (label, first)
        assert _shifted_count(u, u.copy(), first) == self_count, (label, first)


@pytest.mark.parametrize("n", range(1, 9))
def test_self_count_matches_the_full_offset_loop(n):
    rng = random.Random(f"self-count-{n}")
    for seed in range(3):
        for kind, tab in _sample_tables(n, rng).items():
            t = np.array(tab, dtype=np.int64)
            assert _shifted_count(t, t, 1) == shifted_count(t, t, range(1, 1 << n)), (seed, kind)


@pytest.mark.parametrize("n", range(1, 10))
def test_kernel_matches_the_offset_loop_on_every_pair_of_sample_tables(n):
    # Every ordered pair of kinds: both argument orders, equal tables on the
    # diagonal, and at n = 1, 2 fewer keys than a full block of offsets.
    tables = {kind: np.array(tab, dtype=np.int64) for kind, tab in _sample_tables(n, random.Random(f"kernel-{n}")).items()}
    for k1, t1 in tables.items():
        for k4, t4 in tables.items():
            _assert_kernel_matches_the_loop(t1, t4, (k1, k4))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_kernel_matches_the_offset_loop_on_a_random_pair(n):
    rng = np.random.default_rng(n)
    _assert_kernel_matches_the_loop(*rng.integers(0, 1 << n, size=(2, 1 << n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n)] * 2)))
def test_kernel_matches_the_offset_loop_on_arbitrary_tables(pair):
    _assert_kernel_matches_the_loop(*(np.array(t, dtype=np.int64) for t in pair))


def _table_of_anf(n, rng, degree, nonzero=()):
    """A seeded random table whose output bits have degree <= `degree`: random
    n-bit coefficients at every monomial of weight <= `degree`, nonzero at
    the monomials in `nonzero`, evaluated at each key (monomial u is 1 at
    key k exactly when u is a subset of k)."""
    N = 1 << n
    coefficients = [
        (u, rng.randrange(u in nonzero, N)) for u in range(N) if bin(u).count("1") <= degree
    ]
    table = [0] * N
    for k in range(N):
        for u, c in coefficients:
            if u & k == u:
                table[k] ^= c
    return np.array(table, dtype=np.int64)


def _with_quadratic_term(n, rng):
    """A random degree-2 table with a nonzero coefficient at k_0 k_1: XORed
    into any table, it changes that table's quadratic part."""
    return _table_of_anf(n, rng, 2, nonzero=(0b11,))


def _plain_degree(table, n):
    """The algebraic degree of a table, from each ANF coefficient taken as the
    XOR of the table over the keys inside its monomial; -1 if all are 0."""
    coefficients = {u: 0 for u in range(1 << n)}
    for u in coefficients:
        for k in range(1 << n):
            if k & u == k:
                coefficients[u] ^= int(table[k])
    return max((bin(u).count("1") for u, c in coefficients.items() if c), default=-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_matches_a_plain_anf(n):
    rng = random.Random(f"degree-{n}")
    tables = [np.zeros(1 << n, dtype=np.int64), np.array([rng.randrange(1 << n) for _ in range(1 << n)])]
    for degree in range(n + 1):
        top = rng.choice([u for u in range(1 << n) if bin(u).count("1") == degree])
        tables += [_table_of_anf(n, rng, degree, nonzero=(top,)) for _ in range(3)]
    degrees = [_plain_degree(t, n) for t in tables]
    assert set(degrees) == set(range(-1, n + 1))
    assert [auditor._degree(auditor._anf(t)) for t in tables] == degrees


class _Paths:
    """Records the path of each count _count makes: "rank" for
    _derivative_count, "count" for _shifted_count."""

    def __init__(self, monkeypatch):
        for name, path in (("_derivative_count", "rank"), ("_shifted_count", "count")):
            monkeypatch.setattr(auditor, name, self._spy(getattr(auditor, name), path))
        self.paths = []

    def _spy(self, count, path):
        def spy(u, v, first):
            self.paths.append(path)
            return count(u, v, first)

        return spy

    def taken(self, u, v, first):
        """_count(u, v, first) from the tables' ANFs, and the paths it took."""
        self.paths = []
        return auditor._count(u, v, first, auditor._anf(u), auditor._anf(v)), self.paths


def _assert_count_takes(spy, u, v, path, label):
    """_count(u, v, first) equals _shifted_count for both values of first,
    and takes `path` alone."""
    for first in (0, 1):
        assert spy.taken(u, v, first) == (_shifted_count(u, v, first), [path]), (label, first)


@pytest.mark.parametrize("n", range(1, 11))
def test_rank_path_matches_the_kernel_on_quadratic_tables(monkeypatch, n):
    spy = _Paths(monkeypatch)
    rng = random.Random(f"ranks-{n}")
    N = 1 << n
    for trial in range(4):
        t1 = _table_of_anf(n, rng, 2)
        # Sharing t1's quadratic part, every k -> v[k] ^ u[k ^ a] of the pair is affine.
        shared = t1 ^ _table_of_anf(n, rng, 1)
        _assert_count_takes(spy, t1, shared, "rank", ("shared", trial))
        _assert_count_takes(spy, shared, t1, "rank", ("shared, swapped", trial))
        _assert_count_takes(spy, t1, t1, "rank", ("same", trial))
        _assert_count_takes(spy, t1, t1.copy(), "rank", ("equal", trial))
        if n >= 2:  # at n = 1 every table is affine
            other = t1 ^ _with_quadratic_term(n, rng)
            _assert_count_takes(spy, other, other, "rank", ("other", trial))
            _assert_count_takes(spy, t1, other, "count", ("not shared", trial))
            _assert_count_takes(spy, other, t1, "count", ("not shared, swapped", trial))
        # An affine or constant table has a constant derivative: delta2 reads N.
        affine, constant = _table_of_anf(n, rng, 1), np.full(N, rng.randrange(N), dtype=np.int64)
        for t in (affine, constant):
            assert spy.taken(t, t, 1) == (N, ["rank"])
            if n >= 2:
                _assert_count_takes(spy, t, _with_quadratic_term(n, rng), "count", ("affine", trial))
        _assert_count_takes(spy, affine, constant, "rank", ("affine and constant", trial))


@pytest.mark.parametrize("block_values", [1, 7, 20])
def test_rank_path_counts_do_not_depend_on_the_offset_blocks(monkeypatch, block_values):
    # Blocks of one, two or three offsets at n = 6: every block boundary
    # falls somewhere, and the counts must not see it.
    spy = _Paths(monkeypatch)
    monkeypatch.setattr(auditor, "_BLOCK_VALUES", block_values)
    rng = random.Random(f"blocks-{block_values}")
    for trial in range(8):
        t1 = _table_of_anf(6, rng, 2)
        _assert_count_takes(spy, t1, t1, "rank", trial)
        _assert_count_takes(spy, t1, t1 ^ _table_of_anf(6, rng, 1), "rank", trial)


def _plain_rank(vectors):
    """The GF(2) rank of a list of ints: each is reduced by a basis keyed
    on its vectors' top bits, and joins it if anything is left."""
    basis = {}
    for v in vectors:
        while v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def _rank_sets(n, rng):
    """Seeded sets of n vectors of n bits: random ones, ones from the top
    half (each holding bit n - 1), ones with zero vectors or repeats in
    them, all zeros, all ones, and full-rank sets."""
    N, top = 1 << n, 1 << (n - 1)
    sets = [[rng.randrange(N) for _ in range(n)] for _ in range(24)]
    sets += [[rng.randrange(top, N) for _ in range(n)] for _ in range(24)]
    for vectors in sets[:16]:
        with_zeros, with_repeats = vectors.copy(), vectors.copy()
        for i in rng.sample(range(n), (n + 1) // 2):
            with_zeros[i] = 0
            with_repeats[i] = vectors[rng.randrange(n)]
        sets += [with_zeros, with_repeats]
    sets += [[0] * n, [N - 1] * n, [top >> j | top for j in range(n)]]
    for _ in range(8):  # unit vectors under row operations keep rank n
        full = [1 << j for j in range(n)]
        for _ in range(4 * n * (n > 1)):
            i, j = rng.sample(range(n), 2)
            full[i] ^= full[j]
        sets.append(rng.sample(full, n))
    return sets


@pytest.mark.parametrize("n", range(1, 17))
def test_ranks_match_a_plain_gf2_rank(n):
    # Each set is a column of an (n, c) uint16 array; a square array
    # (c = n) too, where reducing along the wrong axis still broadcasts.
    sets = _rank_sets(n, random.Random(f"rank-sets-{n}"))
    assert {_plain_rank(s) for s in sets} >= {0, n}
    for chosen in (sets, sets[:n], sets[-n:]):
        rows = np.array(chosen, dtype=np.uint16).T.copy()
        assert auditor._ranks(rows, n).tolist() == [_plain_rank(s) for s in chosen], n


def test_derivative_count_at_n16_is_exact_at_every_offset():
    # k -> k^3 in GF(2^16): each derivative's linear part x -> a x^2 ^ a^2 x
    # has kernel {0, a}, so every offset a != 0 counts 2, and a pivot lost
    # at any one of them (say to a sign, as half the values hold bit 15)
    # would read 4.
    p = DomainParams.for_width(16)
    phi = KeySchedule(p, (Z,) * 4, (Z,)).bind(FieldCubicSubkey(0))
    cube = auditor._table(phi, 16)
    assert auditor._derivative_count(cube, cube, 1) == 2
    assert measure_axu(phi, 16) == 2


def _seventh_power(k, p):
    """k -> k^7 in GF(2^n), of degree 3, the weight of 7."""
    return gf_mul(gf_cube(k, p), gf_mul(gf_mul(k, k, p), gf_mul(k, k, p), p), p)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_a_cubic_table_takes_the_kernel(monkeypatch, n):
    p = DomainParams.for_width(n)
    spy = _Paths(monkeypatch)
    seventh = np.array([_seventh_power(k, p) for k in range(p.N)])
    square = np.array([gf_mul(k, k, p) for k in range(p.N)])
    _assert_count_takes(spy, seventh, seventh, "count", "seventh")
    _assert_count_takes(spy, square, square, "rank", "square")
    _assert_count_takes(spy, seventh, square, "count", "seventh, square")
    _assert_count_takes(spy, square, seventh, "count", "square, seventh")
    # A shared cubic part: deg(u ^ v) <= 1 does not help while deg u is 3.
    _assert_count_takes(spy, seventh, seventh ^ square, "count", "shared cubic part")
    _assert_count_takes(spy, seventh ^ square, seventh, "count", "shared cubic part, swapped")


@dataclass(frozen=True)
class _SeventhPower(SubkeyMap):
    """k -> k^7, a map of degree 3 that no schedule file can state."""

    def value(self, k, p):
        return _seventh_power(k, p)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_quadratic_map_keeps_its_rank_path_beside_a_cubic_one(monkeypatch, n):
    # phi1 = k^3 is quadratic and phi4 = k^7 cubic: phi1's delta2 goes by
    # rank, phi4's delta2 and the cross count by counting.
    p = DomainParams.for_width(n)
    s = KeySchedule(p, (Z,) * 4, (FieldCubicSubkey(0), Z, Z, _SeventhPower()))
    spy = _Paths(monkeypatch)
    rep = check_corollary1_nl(s)
    assert spy.paths == ["rank", "count", "count"]
    t1, t4 = (auditor._table(s.bind(m), n) for m in (s.round_keys[0], s.round_keys[3]))
    assert (rep.delta2_times_n, rep.delta3_times_n) == (
        max(_shifted_count(t1, t1, 1), _shifted_count(t4, t4, 1)), _shifted_count(t4, t1, 0))


@pytest.mark.parametrize("name", ["minimal4", "tweakem4"])
def test_builtins_audit_by_rank_alone(monkeypatch, name):
    spy = _Paths(monkeypatch)
    for n in range(2, 14):
        s = builtin(name, DomainParams.for_width(n))
        t1, t4 = (auditor._table(s.bind(m), n) for m in (s.phi1_map(), s.phi_last_map()))
        for u, v, first in ((t1, t1, 1), (t4, t4, 1), (t4, t1, 0)):
            assert spy.taken(u, v, first) == (_shifted_count(u, v, first), ["rank"]), n


def test_definition1_audit_at_n12_stays_within_2mb():
    # The block size sets the kernel's working set (about 1 MB at n = 12);
    # this keeps it well inside the benchmark's peak-memory bound.
    s = builtin("minimal4", DomainParams.for_width(12))
    check_definition1(s)  # compile the sub-key tables outside the measurement
    tracemalloc.start()
    try:
        check_definition1(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


@pytest.mark.parametrize("n", range(1, 5))
def test_axu_matches_direct_enumeration_at_small_n(n):
    rng = random.Random(f"axu-{n}")
    for kind, tab in _sample_tables(n, rng).items():
        assert measure_axu(tab.__getitem__, n) == direct_axu(tab.__getitem__, n), kind


def _outcome(f, k):
    try:
        return f(k)
    except DomainError as e:
        return type(e)


@pytest.mark.parametrize("n", range(2, 9))
def test_bind_agrees_with_value_on_and_off_the_key_range(n):
    p = DomainParams.for_width(n)
    rng = random.Random(f"bind-{n}")
    s = KeySchedule(p, (Z,) * 4, (Z,))
    cubic = FieldCubicSubkey(rng.randrange(p.N))
    affine = random_affine_map(p, rng)
    maps = [
        Z,
        AffineSubkey(BinMatrix.zero(n)),
        affine,
        AffineSubkey(affine.m, p.N - 1),
        cubic,
        FieldCubicSubkey(0),
        XorSubkey((affine, cubic)),
        XorSubkey((Z, cubic)),
        XorSubkey((Z, AffineSubkey(BinMatrix.zero(n)))),
        XorSubkey(()),
    ]
    for m in maps:
        f = s.bind(m)
        for k in range(-3, p.N + 3):
            assert _outcome(f, k) == _outcome(lambda k: m.value(k, p), k), (m, k)
    # A multiplier outside the field raises as value() does, at the latest
    # on the first evaluation.
    for bad in (FieldCubicSubkey(p.N), XorSubkey((affine, FieldCubicSubkey(-1)))):
        with pytest.raises(DomainError):
            bad.value(1, p)
        with pytest.raises(DomainError):
            s.bind(bad)(1)


@pytest.mark.parametrize("name", ["minimal4", "tweakem4"])
def test_definition1_counts_at_n12(name):
    # The invariant every exhaustive benchmark audit checks.
    rep = check_definition1(builtin(name, DomainParams.for_width(12)))
    assert (rep.delta1_times_n, rep.delta2_times_n, rep.delta3_times_n) == (3, 2, 2)


_IDENT = lambda k: k
MEASURES = {
    "uniformity": measure_uniformity,
    "axu": measure_axu,
    "cross-first": lambda phi, n: measure_cross_uniformity(phi, _IDENT, n),
    "cross-second": lambda phi, n: measure_cross_uniformity(_IDENT, phi, n),
}


@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
@pytest.mark.parametrize("n", [-1, 0])
def test_measures_reject_widths_below_one(measure, n):
    with pytest.raises(DomainError):
        measure(_IDENT, n)


@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
def test_measures_reject_negative_values(measure):
    with pytest.raises(DomainError):
        measure(lambda k: -1 if k == 3 else k, 4)


@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
@pytest.mark.parametrize("big", [1 << 63, 1 << 64])
def test_measures_reject_values_beyond_int64(measure, big):
    with pytest.raises(DomainError):
        measure(lambda k: big if k == 3 else k, 4)


@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
@pytest.mark.parametrize("value", [16, 17, 255])
def test_measures_reject_values_of_n_bits_or_more(measure, value):
    with pytest.raises(DomainError):
        measure(lambda k: value if k == 3 else k, 4)


def test_uniformity_reduction_at_n8():
    rng = random.Random(5)
    tab = [rng.randrange(256) for _ in range(256)]
    assert measure_uniformity(tab.__getitem__, 8) == direct_uniformity(tab.__getitem__, 8)


def test_affine_invertible_map_has_uniformity_one():
    rng = random.Random(7)
    p = P8
    found = 0
    while found < 10:
        m = BinMatrix(tuple(rng.randrange(p.N) for _ in range(p.n)))
        from kafw.gf2 import mat_is_invertible

        if not mat_is_invertible(m):
            continue
        found += 1
        sk = AffineSubkey(m, rng.randrange(p.N))
        assert measure_uniformity(lambda k: sk.value(k, p), 8) == 1


def test_axu_is_a_maximum():
    # The reported count dominates every specific cell, and is at least 1.
    rng = random.Random(3)
    tab = [rng.randrange(64) for _ in range(64)]
    phi = tab.__getitem__
    worst = measure_axu(phi, 6)
    assert worst >= 1
    for a in (1, 17, 63):
        for b in (0, 5):
            cell = sum(1 for k in range(64) if phi(k ^ a) ^ phi(k) == b)
            assert cell <= worst


def test_check_definition1_reference_instance():
    rep = check_definition1(builtin("tweakem4", P8))
    assert (rep.delta1_times_n, rep.delta2_times_n, rep.delta3_times_n) == (3, 2, 2)
    assert rep.good_like and rep.passed


def test_check_corollary1_nl_minimal4():
    rep = check_corollary1_nl(builtin("minimal4", P8))
    assert rep.delta1_times_n <= 3
    assert rep.delta2_times_n <= 2
    assert rep.delta3_times_n <= 2
    assert rep.good_like


@pytest.mark.parametrize("check, outer", [
    (check_definition1, lambda s: (s.phi1_map(), s.phi_last_map())),
    (check_corollary1_nl, lambda s: (s.round_keys[0], s.round_keys[3])),
])
def test_delta_audits_evaluate_each_map_once_per_key(monkeypatch, check, outer):
    rng = random.Random(f"bind-{check.__name__}")
    bind = KeySchedule.bind
    for _ in range(3):
        whitening = (Z,) * 4 if check is check_corollary1_nl else tuple(random_affine_map(P6, rng) for _ in range(4))
        s = KeySchedule(P6, whitening, (FieldCubicSubkey(rng.randrange(1, 64)), Z, Z, random_affine_map(P6, rng)))
        evals = []

        def counted(schedule, m):
            phi, i = bind(schedule, m), len(evals)
            evals.append(0)

            def value(k):
                evals[i] += 1
                return phi(k)

            return value

        monkeypatch.setattr(KeySchedule, "bind", counted)
        rep = check(s)
        monkeypatch.setattr(KeySchedule, "bind", bind)
        assert evals == [P6.N, P6.N]
        # The shared tables give what the public measures give map by map.
        f1, f4 = (s.bind(m) for m in outer(s))
        assert (rep.delta1_times_n, rep.delta2_times_n, rep.delta3_times_n) == (
            max(measure_uniformity(f1, 6), measure_uniformity(f4, 6)),
            max(measure_axu(f1, 6), measure_axu(f4, 6)),
            measure_cross_uniformity(f1, f4, 6),
        )


def test_check_definition1_zero_schedule_fails():
    s = KeySchedule(P6, (Z, Z, Z, Z), (Z, Z, Z, Z))
    rep = check_definition1(s)
    assert (rep.delta1_times_n, rep.delta2_times_n, rep.delta3_times_n) == (64, 64, 64)
    assert not rep.good_like


def test_equal_outer_maps_break_cross_uniformity():
    # phi1 = phi4 makes the relative-offset-0 difference constant zero.
    cubic = FieldCubicSubkey(2)
    s = KeySchedule(P6, (Z, Z, Z, Z), (cubic, Z, Z, cubic))
    rep = check_definition1(s)
    assert rep.delta3_times_n == 64
    assert not rep.good_like


def test_check_definition3_ortho6_passes():
    rep = check_definition3(builtin("ortho6", P8))
    assert rep.passed
    assert rep.phi_bijectivity == {"phi1": True, "phi6": True, "phi1^phi6": True}
    assert rep.kernel_witnesses == {"M1^M3": None, "M4^M6": None}


def test_check_definition3_identity_bad_fails_with_witness():
    s = builtin("identity_bad(6)", P8)
    rep = check_definition3(s)
    assert not rep.passed
    assert rep.phi_bijectivity["phi1^phi6"] is False
    w = rep.kernel_witnesses["M1^M3"]
    assert w is not None
    assert w != 0 and mat_vec(s.gamma_matrix(1) ^ s.gamma_matrix(3), w) == 0


def test_check_definition3_bit_permutations_fail_with_all_ones_kernel():
    rot1 = AffineSubkey(BinMatrix.rotation(8, 1))
    rot2 = AffineSubkey(BinMatrix.rotation(8, 2))
    ident = identity_map(8)
    s = KeySchedule(P8, (Z, Z, Z, Z), (rot1, ident, rot2, ident, ident, ortho_map(8)))
    rep = check_definition3(s)
    assert not rep.passed
    w = rep.kernel_witnesses["M1^M3"]
    assert w is not None
    diff = s.gamma_matrix(1) ^ s.gamma_matrix(3)
    assert w != 0 and mat_vec(diff, w) == 0
    assert mat_vec(diff, 0xFF) == 0  # the all-ones vector is always killed


def test_check_corollary1_affine():
    assert check_corollary1_affine(builtin("ortho6", P8)).passed
    assert check_corollary1_affine(builtin("filled6", P8)).passed
    assert not check_corollary1_affine(builtin("identity_bad(6)", P8)).passed


def test_check_corollary2():
    ident = identity_map(8)
    pi = ortho_map(8)
    good = KafvSchedule(P8, (ident, Z, ident, Z, Z, pi, Z, pi))
    rep = check_corollary2(good)
    assert rep.passed
    assert rep.kernel_witnesses == {"M*2": None, "M*5": None}
    bad = KafvSchedule(P8, (ident, Z, Z, Z, Z, pi, Z, pi))
    rep = check_corollary2(bad)
    assert not rep.passed
    assert rep.kernel_witnesses["M*2"] is not None


def test_audit_error_paths():
    with pytest.raises(ArityMismatch):
        check_definition1(builtin("ortho6", P8))
    with pytest.raises(ArityMismatch):
        check_definition3(builtin("minimal4", P8))
    with pytest.raises(NotAffine):
        check_definition3(
            KeySchedule(P8, (Z, Z, Z, Z), (FieldCubicSubkey(2), Z, Z, Z, Z, Z))
        )
    with pytest.raises(DomainTooLarge):
        measure_uniformity(lambda k: k, 17)
    # Each audit reads one schedule class; the round count is checked first.
    ident = identity_map(8)
    kafv4 = KafvSchedule(P8, (ident,) * 6)
    kafv6 = KafvSchedule(P8, (ident,) * 8)
    lucifer4 = LuciferSchedule(P8, (ident,) * 4)
    for check, s in [
        (check_definition1, kafv4),
        (check_definition1, lucifer4),
        (check_corollary1_nl, lucifer4),
        (check_definition3, kafv6),
        (check_corollary1_affine, kafv6),
        (check_corollary2, builtin("ortho6", P8)),
    ]:
        with pytest.raises(ScheduleArityMismatch):
            check(s)
    with pytest.raises(ArityMismatch):
        check_corollary2(builtin("minimal4", P8))


def _mixed_affine_map(p, rng):
    """A random affine map, or one multiplying by a random field element: those
    are invertible unless by zero, and their XORs are such maps too, so the
    conditions pass often enough to test both outcomes."""
    if rng.randrange(4) == 0:
        return random_affine_map(p, rng)
    c = rng.randrange(p.N)
    cols = [gf_mul(c, 1 << j, p) for j in range(p.n)]
    rows = tuple(sum(((cols[j] >> i) & 1) << j for j in range(p.n)) for i in range(p.n))
    return AffineSubkey(BinMatrix(rows), rng.randrange(p.N))


def _same_findings(a, b):
    assert a.passed == b.passed
    assert list(a.phi_bijectivity.values()) == list(b.phi_bijectivity.values())
    assert list(a.kernel_witnesses.values()) == list(b.kernel_witnesses.values())


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_corollary2_is_definition3_of_the_converted_schedule(n):
    p = DomainParams.for_width(n)
    rng = random.Random(n)
    outcomes = set()
    for _ in range(60):
        s = KafvSchedule(p, tuple(_mixed_affine_map(p, rng) for _ in range(8)))
        rep = check_corollary2(s)
        _same_findings(rep, check_definition3(kafv_to_kafw(s)))
        outcomes.add(rep.passed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_corollary1_affine_is_definition3_without_whitening(n):
    p = DomainParams.for_width(n)
    rng = random.Random(n)
    outcomes = set()
    for _ in range(60):
        s = KeySchedule(p, (Z, Z, Z, Z), tuple(_mixed_affine_map(p, rng) for _ in range(6)))
        rep = check_corollary1_affine(s)
        _same_findings(rep, check_definition3(s))
        outcomes.add(rep.passed)
    assert outcomes == {True, False}
