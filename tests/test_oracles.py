"""Seeded oracle behavior: determinism, consistency, lazy-sampling soundness."""

import hashlib
import random

import pytest

from kafw.errors import DomainError, QueryBudgetExceeded, RedundantQuery
from kafw.oracles import (
    BACKWARD,
    FORWARD,
    CountedFunction,
    FunctionBudget,
    IdealCipherOracle,
    RandomFunctionOracle,
    RandomPermutationOracle,
    RelatedKeyOracle,
    child_seeds,
    derive_seed,
    stream64,
)


def chi_square_uniform(counts, total):
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def test_rf_consistency_and_counter():
    o = RandomFunctionOracle(8, 123)
    first = [o.query(x) for x in range(40)]
    assert o.query_count == 40
    again = [o.query(x) for x in range(40)]
    assert first == again
    assert o.query_count == 40  # replay never moves the counter


def test_rf_rejects_out_of_domain():
    o = RandomFunctionOracle(4, 0)
    with pytest.raises(DomainError):
        o.query(16)


def test_rf_distinct_seeds_statistically_independent():
    scipy_stats = pytest.importorskip("scipy.stats")
    a = RandomFunctionOracle(8, 1)
    b = RandomFunctionOracle(8, 2)
    xors = [a.query(x) ^ b.query(x) for x in range(256)]
    counts = [0] * 16
    for v in xors:
        counts[v & 0xF] += 1
    stat = chi_square_uniform(counts, 256)
    assert stat < scipy_stats.chi2.ppf(0.999, 15)
    assert any(x != 0 for x in xors)


def test_rp_inverse_roundtrip_random_interleavings():
    o = RandomPermutationOracle(6, 7)
    rng = random.Random(0)
    for _ in range(300):
        v = rng.randrange(64)
        if rng.random() < 0.5:
            assert o.backward(o.forward(v)) == v
        else:
            assert o.forward(o.backward(v)) == v


def test_rp_exhaustion_is_a_permutation():
    o = RandomPermutationOracle(4, 99)
    outputs = [o.forward(x) for x in range(16)]
    assert sorted(outputs) == list(range(16))


def test_rp_exhaustion_mixed_directions():
    # Drive past the 1/2-load free-list fallback from both sides.
    o = RandomPermutationOracle(3, 5)
    rng = random.Random(3)
    for v in rng.sample(range(8), 8):
        o.forward(v)
    assert sorted(o.forward_map.values()) == list(range(8))
    o2 = RandomPermutationOracle(3, 5)
    for v in rng.sample(range(8), 8):
        o2.backward(v)
    assert sorted(o2.backward_map.values()) == list(range(8))


def test_rp_determinism():
    seq = [(FORWARD, 3), (BACKWARD, 5), (FORWARD, 3), (FORWARD, 9), (BACKWARD, 1)]
    runs = []
    for _ in range(2):
        o = RandomPermutationOracle(4, 42)
        runs.append([(o.forward if d == FORWARD else o.backward)(v) for d, v in seq])
    assert runs[0] == runs[1]


def test_rp_lazy_sampling_uniform_first_image():
    # Distribution-equivalence spot check: image of 0 over many seeds.
    scipy_stats = pytest.importorskip("scipy.stats")
    counts = [0] * 16
    for seed in range(100_000):
        counts[RandomPermutationOracle(4, seed).forward(0)] += 1
    stat = chi_square_uniform(counts, 100_000)
    assert stat < scipy_stats.chi2.ppf(0.999, 15)


def test_ic_per_key_roundtrip_and_determinism():
    ic = IdealCipherOracle(4, 11)
    for key in (0, 7, 15):
        for blk in (0, 100, 255):
            assert ic.decrypt_block(key, ic.encrypt_block(key, blk)) == blk
    ic2 = IdealCipherOracle(4, 11)
    assert ic2.encrypt_block(7, 100) == ic.encrypt_block(7, 100)


def test_ic_keys_index_distinct_permutations():
    ic = IdealCipherOracle(4, 3)
    t_a = [ic.encrypt_block(1, b) for b in range(256)]
    t_b = [ic.encrypt_block(2, b) for b in range(256)]
    assert sorted(t_a) == list(range(256))
    assert sorted(t_b) == list(range(256))
    assert t_a != t_b


class _XorBackend:
    """Toy backend E_k(b) = b ^ (k || k); enough to see the key offset applied."""

    def __init__(self, n):
        self.n = n

    def encrypt_block(self, key, block):
        return block ^ (key << self.n) ^ key

    def decrypt_block(self, key, block):
        return self.encrypt_block(key, block)


def test_rk_applies_offset_to_hidden_key():
    rk = RelatedKeyOracle(0x2A, _XorBackend(8), 8)
    assert rk.encrypt(0, 0) == (0x2A << 8) | 0x2A
    off = 0x0F
    assert rk.encrypt(off, 0) == ((0x2A ^ off) << 8) | (0x2A ^ off)
    assert rk.query_count == 2


def test_rk_inverse_roundtrip_against_ideal_backend():
    ic = IdealCipherOracle(4, 21)
    rk = RelatedKeyOracle(9, ic, 4)
    ct = rk.encrypt(3, 0xAB)
    assert rk.decrypt(3, ct) == 0xAB


def test_rk_distinct_offsets_are_independent_permutations():
    ic = IdealCipherOracle(4, 8)
    rk = RelatedKeyOracle(5, ic, 4)
    t_a = [rk.encrypt(1, b) for b in range(256)]
    t_b = [rk.encrypt(2, b) for b in range(256)]
    assert sorted(t_a) == sorted(t_b) == list(range(256))
    assert t_a != t_b


def test_rk_counts_every_call_and_rejects_redundant():
    ic = IdealCipherOracle(4, 1)
    rk = RelatedKeyOracle(0, ic, 4)
    rk.encrypt(1, 10)
    rk.encrypt(2, 10)  # distinct offset: counted, allowed
    rk.decrypt(1, 10)  # same offset+block, other direction: allowed
    assert rk.query_count == 3
    with pytest.raises(RedundantQuery):
        rk.encrypt(1, 10)
    assert rk.query_count == 3


def test_rk_budget_enforced():
    ic = IdealCipherOracle(4, 2)
    rk = RelatedKeyOracle(0, ic, 4, limit=2)
    rk.encrypt(0, 1)
    rk.encrypt(0, 2)
    with pytest.raises(QueryBudgetExceeded):
        rk.encrypt(0, 3)


def test_function_budget_counts_fresh_only():
    o = RandomFunctionOracle(8, 77)
    budget = FunctionBudget(limit=3)
    f = CountedFunction(o, budget)
    f.query(1)
    f.query(1)
    f.query(2)
    assert budget.count == 2
    f.query(3)
    with pytest.raises(QueryBudgetExceeded):
        f.query(4)


def fresh_stream64(seed, *parts):
    """stream64 written out: BLAKE2b-64 keyed by the masked seed over the masked parts."""
    mask = (1 << 64) - 1
    h = hashlib.blake2b(digest_size=8, key=(seed & mask).to_bytes(8, "little"))
    for part in parts:
        h.update((part & mask).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


@pytest.mark.parametrize("seed, parts, value", [
    (0, (0,), 0x1F84C16A5CF9FF9A),
    (0, (1, 2), 0xFABE0F8CBECB81A2),
    (-1, (7, 8, 9), 0x37D3FB18884BDCB4),
    ((1 << 64) + 5, (3,), 0xBB69A011AB55E8F5),
    (5, (3,), 0xBB69A011AB55E8F5),
    (123, (-1, (1 << 64) + 1), 0x844F79D4EFDC0B9B),
])
def test_stream64_known_answers(seed, parts, value):
    assert stream64(seed, *parts) == fresh_stream64(seed, *parts) == value


def test_stream64_equals_a_fresh_keyed_hash_over_603_seeds():
    rng = random.Random(4)
    seeds = [rng.randrange(1 << 64) for _ in range(600)] + [0, -1, (1 << 64) + 5]
    calls = []
    for round_ in range(3):
        for i, seed in enumerate(seeds):
            parts = tuple(rng.randrange(-8, 1 << 20) for _ in range(1 + (i + round_) % 3))
            calls.append((seed, parts))
    rng.shuffle(calls)
    for seed, parts in calls:
        assert stream64(seed, *parts) == fresh_stream64(seed, *parts)


def test_derive_seed_distinguishes_parts():
    assert derive_seed(1, "real", 0) != derive_seed(1, "ideal", 0)
    assert derive_seed(1, "real", 0) != derive_seed(1, "real", 1)
    assert derive_seed(1, "real", 0) == derive_seed(1, "real", 0)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _values_digest(values) -> str:
    return _digest(",".join(map(str, values)))


# (n, seed) -> digests of [forward(x) for every x] and [backward(y) for every y],
# each on a fresh oracle; both pass the half-load switch to the free list.
_PERMUTATION_DIGESTS = {
    (4, 1): ("f3f2d355bd1b1531", "4a18dff4074b3df0"),
    (4, 2): ("f0558428cb873a67", "0f9ed59ae7dea502"),
    (5, 1): ("9870091e6dd1e6f5", "53fc7a10e212faec"),
    (5, 2): ("c62ff3f76d62ad3d", "84ff98861086a9c3"),
    (6, 1): ("cd0d9b9fd2c1d352", "4eac08ae606e5f52"),
    (6, 2): ("c99fbc341451a128", "76278b89a15e391d"),
    (7, 1): ("c7ac337c1160d23c", "2106d37cbd749613"),
    (7, 2): ("e210b0558a739f47", "57b6b575808113c0"),
    (8, 1): ("0083d9ab9e73e535", "11e55caca1c627f7"),
    (8, 2): ("ecbd90d288c15e96", "0b12270479bdaaed"),
    (9, 1): ("189cb2b09dce9c05", "8b82cac8d5575fc0"),
    (9, 2): ("22b5f541534e8e75", "8b4aea025bd88b5e"),
    (10, 1): ("7b1948715795582b", "b2790fc4b0feb401"),
    (10, 2): ("cf3b8d08fa28dd08", "e022d3d89c8d776d"),
    (11, 1): ("d4ca84fa34d843f8", "3305c2957b900e06"),
    (11, 2): ("138bfa73392e78a1", "b98689930dce5a16"),
    (12, 1): ("48ad5fa97a975e37", "5e9454ea2247cb85"),
    (12, 2): ("fd1b051091d4ee82", "453db11c5df332f1"),
    # Deletions from long free lists.
    (13, 1): ("93b843d0753782fa", "7f5966779eb084a8"),
    (13, 2): ("3ad45671a120f7f9", "f4fef80b6accdfb7"),
    (14, 1): ("fdc1080644adcfdf", "0224fb9bc8e5dc17"),
    (14, 2): ("9b63a021432541c9", "cfcd646cd789a950"),
}


def test_permutation_golden_digests():
    for (n, seed), (fwd, bwd) in _PERMUTATION_DIGESTS.items():
        size = 1 << n
        forward = RandomPermutationOracle(n, seed)
        backward = RandomPermutationOracle(n, seed)
        assert _values_digest([forward.forward(x) for x in range(size)]) == fwd, (n, seed)
        assert _values_digest([backward.backward(y) for y in range(size)]) == bwd, (n, seed)
    # One seeded interleaving of both directions that fills the whole domain.
    o = RandomPermutationOracle(8, 5)
    rng = random.Random(6)
    queries = []
    for _ in range(1500):
        direction = FORWARD if rng.random() < 0.5 else BACKWARD
        queries.append((direction, rng.randrange(256)))
    outs = [(o.forward if d == FORWARD else o.backward)(v) for d, v in queries]
    assert o.query_count == 256
    assert _values_digest(outs) == "5f8febc3207621ae"
    lines = [f"f {d} in={v:x} out={y:x}" for (d, v), y in zip(queries, outs)]
    assert _digest("\n".join(lines)) == "fb2c432790e3d8c8"


class _PerSampleFreeListRule:
    """The fill rule as first written, kept as the reference for the free lists:
    rejection below half load, then a free list rebuilt on every fresh sample."""

    def __init__(self, bits, seed):
        self.size, self.seed = 1 << bits, seed
        self.forward_map, self.backward_map = {}, {}
        self.query_count = 0

    def _sample(self, tag, v, used):
        if 2 * len(used) < self.size:
            attempt = 0
            while True:
                cand = stream64(self.seed, tag, v, attempt) & (self.size - 1)
                if cand not in used:
                    return cand
                attempt += 1
        free = [w for w in range(self.size) if w not in used]
        return free[stream64(self.seed, tag, v, 0) % len(free)]

    def query(self, tag, v):
        own, other = self.forward_map, self.backward_map
        if tag:
            own, other = other, own
        out = own.get(v)
        if out is None:
            out = own[v] = self._sample(tag, v, other)
            other[out] = v
            self.query_count += 1
        return out


@pytest.mark.parametrize("first", [0, 1], ids=["forward-list-first", "backward-list-first"])
def test_rp_free_lists_match_the_per_sample_rule(first):
    # 100 seeded interleavings per order of first build, n = 2..9, each
    # filling the domain; the first fresh sample at half load goes `first`.
    rng = random.Random(20 + first)
    both_built = 0
    for trial in range(100):
        n = 2 + trial % 8
        size = 1 << n
        seed = rng.getrandbits(64)
        o = RandomPermutationOracle(n, seed)
        ref = _PerSampleFreeListRule(n, seed)
        forced = False
        while o.query_count < size:
            tag, v = rng.randrange(2), rng.randrange(size)
            if o.query_count == size // 2 and not forced:
                tag, forced = first, True
                own = (o.forward_map, o.backward_map)[tag]
                v = rng.choice([w for w in range(size) if w not in own])
            out = (o.forward, o.backward)[tag](v)
            assert out == ref.query(tag, v), (n, seed, tag, v)
            assert o.forward_map == ref.forward_map
            assert o.backward_map == ref.backward_map
            assert o.query_count == ref.query_count
        assert next(iter(o._free)) == first
        both_built += len(o._free) == 2
    assert both_built > 50


@pytest.mark.parametrize("draws", [8, 16], ids=["half-full", "full"])
@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("v", [-1, 16, 1 << 64], ids=["-1", "16", "2^64"])
def test_rp_out_of_domain_inputs_after_a_fill_change_nothing(draws, direction, v):
    # n = 4, filled by seeded draws in both directions: at 8 pairs the next
    # draw would take a free list, at 16 none is left to draw.
    o = RandomPermutationOracle(4, 11)
    rng = random.Random(draws)
    while o.query_count < draws:
        (o.forward, o.backward)[rng.randrange(2)](rng.randrange(16))
    before = (o.query_count, dict(o.forward_map), dict(o.backward_map), {t: list(f) for t, f in o._free.items()})
    with pytest.raises(DomainError):
        (o.forward if direction == FORWARD else o.backward)(v)
    assert (o.query_count, o.forward_map, o.backward_map, o._free) == before


def test_rp_kept_keyed_state_draws_the_stream64_values():
    """At n = 6: a forward pass past half load (rejections, then the free
    list), then every output backward (a second free list) and every input
    forward again, against the rule written with stream64."""
    for seed in (3, 1 << 70):  # the stream keys by the seed's low 64 bits
        o, ref = RandomPermutationOracle(6, seed), _PerSampleFreeListRule(6, seed)
        xs = random.Random(seed).sample(range(64), 44)
        queries = [(0, x) for x in xs] + [(1, y) for y in range(64)] + [(0, x) for x in range(64)]
        for tag, v in queries:
            assert (o.forward, o.backward)[tag](v) == ref.query(tag, v), (seed, tag, v)
            if o.query_count == 1:
                state = o._state
        assert o._state is state and sorted(o._free) == [0, 1]
        assert (o.forward_map, o.backward_map, o.query_count) == (ref.forward_map, ref.backward_map, 64)


def test_packed_permutation_draws_equal_the_stream64_values():
    """Both paths of a permutation's draw and an ideal cipher's first
    draws, which absorb (tag, v, attempt) in one packed update, against
    stream64 and derive_seed, for blocks up to 70 bits."""
    rng = random.Random(17)
    for trial in range(300):
        bits = (2, 5, 9, 16, 32, 64, 70)[trial % 7]
        seed = rng.randrange(-(1 << 70), 1 << 70)
        o, ref = RandomPermutationOracle(bits, seed), _PerSampleFreeListRule(bits, seed)
        for _ in range(3):
            tag, v = rng.randrange(2), rng.randrange(1 << bits)
            assert (o.forward, o.backward)[tag](v) == ref.query(tag, v), (bits, seed, tag, v)
        n = bits // 2 or 1
        ic, key, block = IdealCipherOracle(n, seed), rng.randrange(1 << n), rng.randrange(1 << (2 * n))
        op = rng.choice([ic.encrypt_block, ic.decrypt_block])
        tag = int(op == ic.decrypt_block)
        key_seed = derive_seed(seed, "ic", key)
        assert op(key, block) == stream64(key_seed, tag, block, 0) & ((1 << (2 * n)) - 1)
        assert ic._first[key] == (key_seed, tag, block)


def test_child_seeds_are_derive_seeds():
    rng = random.Random(29)
    parts = [("choices",), ("key",), ("ic",), ("f", 0), ("f", 7), ("x", -1, 1 << 70), ()]
    for seed in [0, -1, 1 << 64, *(rng.randrange(1 << 64) for _ in range(100))]:
        child = child_seeds(seed)
        for p in parts + parts:  # each child starts from the same keyed state
            assert child(*p) == derive_seed(seed, *p), (seed, p)


def test_rp_below_half_load_builds_no_free_list():
    o = RandomPermutationOracle(32, 9)
    for v in range(1000):
        o.forward(v)
        o.backward(v)
    assert o.query_count == 2000 and o._free == {}
    ic = IdealCipherOracle(16, 4)
    rk = RelatedKeyOracle(0x1234, ic, 16)
    for b in range(1000):
        rk.encrypt(0, b)
        rk.decrypt(0, b)
    (perm,) = ic.perms.values()
    assert perm.query_count == 2000 and perm._free == {}


@pytest.mark.parametrize("direction, values, lines_digest", [
    ("encrypt", "c5c20f0988de3fd4", "a724fb207ad9204a"),
    ("decrypt", "902acb724136eac5", "5dd292c4785841dd"),
], ids=["encrypt", "decrypt"])
def test_ideal_cipher_golden_digests(direction, values, lines_digest):
    # Every offset and block through the related-key oracle, one direction
    # each, then one line per query: "rk <direction> delta=<d> in=<b> out=<y>".
    rk = RelatedKeyOracle(0xB, IdealCipherOracle(4, 3), 4)
    op = getattr(rk, direction)
    queries = [(d, b) for d in range(16) for b in range(256)]
    outs = [op(d, b) for d, b in queries]
    assert _values_digest(outs) == values
    word = FORWARD if direction == "encrypt" else BACKWARD
    lines = [f"rk {word} delta={d:x} in={b:x} out={y:x}" for (d, b), y in zip(queries, outs)]
    assert _digest("\n".join(lines)) == lines_digest


def test_rk_unknown_direction_is_not_counted():
    rk = RelatedKeyOracle(0, IdealCipherOracle(4, 2), 4, limit=1)
    with pytest.raises(DomainError):
        rk.query(0, "sideways", 0)
    assert rk.query_count == 0
    rk.encrypt(0, 0)
    assert rk.query_count == 1


@pytest.mark.parametrize("call", [
    lambda: RandomPermutationOracle(4, 0).forward(-1),
    lambda: RandomPermutationOracle(4, 0).backward(16),
    lambda: IdealCipherOracle(4, 0).encrypt_block(16, 0),
    lambda: IdealCipherOracle(4, 0).decrypt_block(0, 256),
    lambda: RelatedKeyOracle(0, IdealCipherOracle(4, 0), 4).encrypt(16, 0),
    lambda: RelatedKeyOracle(0, IdealCipherOracle(4, 0), 4).decrypt(0, 256),
], ids=["rp-forward", "rp-backward", "ic-key", "ic-block", "rk-offset", "rk-block"])
def test_oracle_range_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
