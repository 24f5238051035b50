"""IdealCipherOracle against its reference: one RandomPermutationOracle per key.

The oracle answers a key's first query by formula and builds the key's
permutation only on its second query.  Every answer, every per-key query
count and every error must be those of the reference, which builds
RandomPermutationOracle(2n, derive_seed(seed, "ic", k)) for each key k on
its first query.
"""

import random

import pytest

from kafw import game
from kafw.errors import DomainError
from kafw.gf2 import DomainParams
from kafw.oracles import IdealCipherOracle, RandomPermutationOracle, derive_seed
from kafw.schedules import builtin


class ReferenceIdealCipher:
    """The ideal cipher as a dict of eagerly built per-key permutations."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.perms: dict[int, RandomPermutationOracle] = {}

    def _perm(self, key: int) -> RandomPermutationOracle:
        if not 0 <= key < (1 << self.n):
            raise DomainError("key out of range")
        if key not in self.perms:
            self.perms[key] = RandomPermutationOracle(2 * self.n, derive_seed(self.seed, "ic", key))
        return self.perms[key]

    def encrypt_block(self, key: int, block: int) -> int:
        return self._perm(key).forward(block)

    def decrypt_block(self, key: int, block: int) -> int:
        return self._perm(key).backward(block)

    def encrypt_many(self, keys: list[int], block: int) -> list[int]:
        return [self.encrypt_block(k, block) for k in keys]


def _counts(oracle) -> dict[int, int]:
    """Per-key query counts; a key with one query has no permutation in IdealCipherOracle."""
    counts = {k: p.query_count for k, p in oracle.perms.items() if p.query_count}
    counts.update(dict.fromkeys(getattr(oracle, "_first", ()), 1))
    return counts


def _result(call):
    try:
        return ("ok", call())
    except DomainError as exc:
        return ("error", str(exc))


class _Pair:
    """The oracle and its reference, driven by the same calls."""

    def __init__(self, n: int, seed: int):
        self.ic = IdealCipherOracle(n, seed)
        self.ref = ReferenceIdealCipher(n, seed)

    def __call__(self, method: str, *args):
        got = _result(lambda: getattr(self.ic, method)(*args))
        want = _result(lambda: getattr(self.ref, method)(*args))
        assert got == want, (method, args)
        assert _counts(self.ic) == _counts(self.ref), (method, args)
        return got[1]


@pytest.mark.parametrize("n", [4, 8])
def test_random_interleavings_match_the_reference(n):
    rng = random.Random(n)
    for seed in range(20):
        pair = _Pair(n, derive_seed(seed, "interleave"))
        keys = rng.sample(range(1 << n), 6)  # few keys, so most repeat
        blocks = [rng.randrange(1 << (2 * n)) for _ in range(4)]
        answers = []
        for _ in range(60):
            op = rng.randrange(3)
            if op == 2:
                batch = [rng.choice(keys) for _ in range(rng.randrange(1, 6))]
                pair("encrypt_many", batch, rng.choice(blocks))
                continue
            key = rng.choice(keys)
            # Often ask back what an earlier answer was, in either direction.
            block = rng.choice(answers) if answers and rng.random() < 0.4 else rng.choice(blocks)
            answers.append(pair("encrypt_block" if op == 0 else "decrypt_block", key, block))
        assert pair.ic.perms  # some key reached its second query


@pytest.mark.parametrize("first", ["encrypt_block", "decrypt_block", "encrypt_many"])
def test_full_fill_after_a_first_draw(first):
    # Each key's 256-block table is filled past half load, where both
    # directions build their free lists, which must leave out the first pair.
    n = 4
    rng = random.Random(first)
    pair = _Pair(n, 99)
    for key in (0, 9, 15):
        block = rng.randrange(256)
        pair(first, [key] if first == "encrypt_many" else key, block)
        order = [(d, b) for d in ("encrypt_block", "decrypt_block") for b in range(256)]
        rng.shuffle(order)
        for method, b in order:
            pair(method, key, b)
        perm, ref = pair.ic.perms[key], pair.ref.perms[key]
        assert perm.forward_map == ref.forward_map and perm.backward_map == ref.backward_map
        assert perm._free == ref._free and set(perm._free) == {0, 1}
        assert sorted(perm.forward_map.values()) == list(range(256))


def test_first_draw_answered_back_through_the_other_direction():
    pair = _Pair(8, 5)
    x = pair("decrypt_block", 3, 0x1234)
    assert pair("encrypt_many", [3, 4], x)[0] == 0x1234
    y = pair("encrypt_block", 4, 0xBEEF)
    assert pair("decrypt_block", 4, y) == 0xBEEF
    assert pair.ic.perms[3].query_count == 1 and pair.ic.perms[4].query_count == 2


def test_batch_that_repeats_a_key():
    pair = _Pair(8, 17)
    outs = pair("encrypt_many", [7, 200, 7, 7, 31, 200], 0xABCD)
    assert outs[0] == outs[2] == outs[3] and outs[1] == outs[5]
    pair("encrypt_many", [7, 31, 200, 8], 0xABCE)
    pair("decrypt_block", 31, outs[4])


def test_batch_with_a_key_out_of_range_in_the_middle():
    pair = _Pair(4, 23)
    pair("encrypt_block", 5, 17)
    assert pair("encrypt_many", [2, 5, 16, 7], 40) == "key out of range"
    assert 2 in pair.ic._first and 7 not in pair.ic._first  # keys before the bad one are answered
    assert pair("encrypt_many", [1, 2], 256) == "input 0x100 out of domain"
    for method, key, block in [("encrypt_block", 2, 40), ("encrypt_many", [7, 5, 1], 40),
                               ("decrypt_block", 2, 40), ("encrypt_many", [2, 7], 41)]:
        pair(method, key, block)


def test_ideal_world_birthday_trials_match_the_reference(monkeypatch):
    p = DomainParams.for_width(8)
    spec = game.ConstructionSpec(p, 4, builtin("minimal4", p), "kafw", "function", True)
    world = game.WorldSpec(game.IDEAL, spec)
    d = game.birthday_distinguisher(128, 128, spec.rounds)
    seeds = [derive_seed(8, "birthday", i) for i in range(200)]
    fast = [game.run_trial_detailed(d, world, s) for s in seeds]
    monkeypatch.setattr(game, "IdealCipherOracle", ReferenceIdealCipher)
    assert fast == [game.run_trial_detailed(d, world, s) for s in seeds]
    assert any(o.q_e_used > 128 for o in fast)  # some trials confirm a candidate
