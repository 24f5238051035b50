"""Exhaustive structural identity sweeps at n = 4, n = 8, and against the
case-by-case loop they replace."""

import dataclasses
import random
from collections import Counter

import pytest

from kafw import equivalence, feistel
from kafw.equivalence import kafv_vs_kafw_sweep, lucifer_sandwich_sweep
from kafw.errors import DomainError, DomainTooLarge, TooFewRounds
from kafw.feistel import CipherInstance, psi_tilde_round
from kafw.gf2 import BinMatrix, DomainParams
from kafw.oracles import RandomFunctionOracle, derive_seed
from kafw.schedules import (
    MAX_BUILTIN_ROUNDS, AffineSubkey, KafvSchedule, KeySchedule, LuciferSchedule, XorSubkey, identity_map,
)


@pytest.mark.parametrize("t", range(2, 7))
def test_kafv_conversion_exhaustive(t):
    result = kafv_vs_kafw_sweep(4, t, seeds=(0, 1, 2))
    assert result.cases == 3 * 16 * 256
    assert result.mismatches == 0, result.first_mismatch


def test_lucifer_sandwich_exhaustive():
    result = lucifer_sandwich_sweep(4, 4, seeds=(0, 1, 2))
    assert result.cases == 3 * 16 * 256
    assert result.mismatches == 0, result.first_mismatch


def test_lucifer_sandwich_three_rounds():
    result = lucifer_sandwich_sweep(4, 3, seeds=(5,))
    assert result.passed


@pytest.mark.parametrize("sweep", (kafv_vs_kafw_sweep, lucifer_sandwich_sweep))
def test_sweeps_are_exhaustive_at_n8(sweep):
    result = sweep(8, 4, seeds=(derive_seed(0, "sweep", 0),))
    assert result.cases == 1 << 24
    assert result.mismatches == 0, result.first_mismatch


def test_sweep_guards():
    with pytest.raises(DomainTooLarge):
        kafv_vs_kafw_sweep(17, 4)
    with pytest.raises(TooFewRounds):
        lucifer_sandwich_sweep(4, 2)


@pytest.mark.parametrize("sweep", (kafv_vs_kafw_sweep, lucifer_sandwich_sweep))
@pytest.mark.parametrize("seeds", ((), [], "iterator"))
def test_sweeps_reject_an_empty_seed_list(sweep, seeds):
    """An empty iterator is refused too, not passed with no case run."""
    with pytest.raises(DomainError, match="at least one oracle seed"):
        sweep(4, 4, seeds=iter(()) if seeds == "iterator" else seeds)


@pytest.mark.parametrize("sweep", (kafv_vs_kafw_sweep, lucifer_sandwich_sweep))
@pytest.mark.parametrize("t", [MAX_BUILTIN_ROUNDS + 1, 10**8])
def test_sweeps_reject_round_counts_past_the_cap_before_any_draw(monkeypatch, sweep, t):
    def draw(p, rng):
        raise AssertionError("a sub-key map was drawn")

    monkeypatch.setattr(equivalence, "random_subkey_map", draw)
    with pytest.raises(DomainError, match=f"at most {MAX_BUILTIN_ROUNDS} rounds"):
        sweep(2, t, seeds=(1,))


# The case-by-case loops the column sweeps replace, on int tables.  They look
# the conversion and the strip up in `equivalence`, so a test that breaks
# either breaks both sides.


def _int_table(n, seed):
    oracle = RandomFunctionOracle(n, seed)
    return [oracle.query(x) for x in range(1 << n)].__getitem__


def _scalar_kafv_vs_kafw(n, t, seeds):
    p = DomainParams.for_width(n)
    cases = mismatches = 0
    first = None
    for seed in seeds:
        rng = random.Random(derive_seed(seed, "kafv-schedule"))
        star = KafvSchedule(p, tuple(equivalence.random_subkey_map(p, rng) for _ in range(t + 2)))
        f = _int_table(n, derive_seed(seed, "f"))
        kafv_inst = CipherInstance(star, (f,))
        kafw_inst = CipherInstance(equivalence.kafv_to_kafw(star), (f,))
        for key in range(p.N):
            for word in range(p.N * p.N):
                a, b = kafv_inst.encrypt_block(key, word), kafw_inst.encrypt_block(key, word)
                cases += 1
                if a != b:
                    mismatches += 1
                    first = first or (seed, key, word, a, b)
    return cases, mismatches, first


def _scalar_lucifer_sandwich(n, t, seeds):
    p = DomainParams.for_width(n)
    cases = mismatches = 0
    first = None
    for seed in seeds:
        rng = random.Random(derive_seed(seed, "lucifer-schedule"))
        key_maps = LuciferSchedule(p, tuple(equivalence.random_subkey_map(p, rng) for _ in range(t)))
        fs = [_int_table(n, derive_seed(seed, "f", i)) for i in range(t)]
        lucifer_inst = CipherInstance(key_maps, tuple(fs))
        for key in range(p.N):
            keys = [key_maps.round_key(i, key) for i in range(1, t + 1)]
            parts = equivalence.lucifer_strip(fs, keys)
            const_maps = tuple(AffineSubkey(BinMatrix.zero(n), c) for c in parts.core_subkeys)
            core_inst = CipherInstance(KafvSchedule(p, const_maps), parts.core_functions)
            for word in range(p.N * p.N):
                direct = lucifer_inst.encrypt_block(key, word)
                left, right = psi_tilde_round((word >> n, word & p.mask), 0, parts.outer_first)
                mid = core_inst.encrypt_block(0, (left << n) | right)
                left, right = psi_tilde_round((mid >> n, mid & p.mask), 0, parts.outer_last)
                sandwich = (left << n) | right
                cases += 1
                if direct != sandwich:
                    mismatches += 1
                    first = first or (seed, key, word, direct, sandwich)
    return cases, mismatches, first


def _break_conversion(monkeypatch):
    """gamma_1 and gamma_2 swapped: wrong on some plaintexts of most keys."""
    convert = equivalence.kafv_to_kafw

    def broken(star):
        s = convert(star)
        g = s.round_keys
        return KeySchedule(s.params, s.whitening, (g[1], g[0], *g[2:]))

    monkeypatch.setattr(equivalence, "kafv_to_kafw", broken)


def _offset_round_key_1(monkeypatch):
    """Round key 1 XORed with the key itself: right at key 0 only, so the
    first mismatch lies in the second row of a block of keys."""
    convert = equivalence.kafv_to_kafw

    def broken(star):
        s = convert(star)
        g = s.round_keys
        return KeySchedule(s.params, s.whitening, (XorSubkey((g[0], identity_map(s.params.n))), *g[1:]))

    monkeypatch.setattr(equivalence, "kafv_to_kafw", broken)


def _break_strip(monkeypatch):
    """The last outer function wrong at one input: only some plaintexts fail."""
    strip = equivalence.lucifer_strip

    def broken(functions, keys):
        parts = strip(functions, keys)
        last = parts.outer_last
        return dataclasses.replace(parts, outer_last=lambda x: last(x) ^ (x == 1))

    monkeypatch.setattr(equivalence, "lucifer_strip", broken)


def _assert_plain_ints(first):
    seed, key, word, ct_a, ct_b = first
    assert all(type(v) is int for v in (seed, key, word, ct_a, ct_b))


# (CHUNK, KEPT): words split within one key at every n, kept across keys at
# n = 3 and made afresh for each key at n = 4; and at n = 3 blocks of 3, 3 and
# 2 keys (N^2 = 64), at n = 4 a row of 192 words and a ragged one of 64.
BLOCK_SETTINGS = ((4, 64), (3 * 64, equivalence.KEPT))


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize(
    "sweep, scalar, breaker, telling",
    [
        # Swapped round keys fail on most plaintexts: some sweep first fails past key 0.
        (kafv_vs_kafw_sweep, _scalar_kafv_vs_kafw, _break_conversion, lambda first: first[1] > 0),
        # Right at key 0 only: every sweep first fails at key 1, in a block's second row when blocks hold keys.
        (kafv_vs_kafw_sweep, _scalar_kafv_vs_kafw, _offset_round_key_1, lambda first: first[1] == 1),
        # A one-point fault fails on few: some sweep first fails past word 3 (the first row at CHUNK = 4).
        (lucifer_sandwich_sweep, _scalar_lucifer_sandwich, _break_strip, lambda first: first[2] >= 4),
    ],
)
def test_column_sweeps_equal_the_case_by_case_loop(monkeypatch, sweep, scalar, breaker, telling, broken):
    if broken:
        breaker(monkeypatch)
    seeds = [derive_seed(1, "sweep", i) for i in range(3)]
    firsts = []
    for chunk, kept in BLOCK_SETTINGS:
        monkeypatch.setattr(equivalence, "CHUNK", chunk)
        monkeypatch.setattr(equivalence, "KEPT", kept)
        for n, t in ((3, 3), (3, 4), (4, 5)):
            result = sweep(n, t, seeds)
            assert (result.cases, result.mismatches, result.first_mismatch) == scalar(n, t, seeds), chunk
            assert result.passed is not broken
            if broken:
                _assert_plain_ints(result.first_mismatch)
                firsts.append(result.first_mismatch)
    assert not broken or any(map(telling, firsts))


# (CHUNK, blocks per seed) at n = 3: one block of all 8 keys; blocks of 3, 3
# and 2 keys; each key's 64 words in rows of 40 and 24.
BLOCKINGS = [(None, 1), (3 * 64, 3), (40, 16)]


@pytest.mark.parametrize("chunk, blocks", BLOCKINGS)
def test_sweeps_call_the_traced_names_once_per_seed_block_and_side(monkeypatch, chunk, blocks):
    """The benchmark's tracer counts sweep encryptions through these three
    names: each sweep calls them once per (seed, block, side), each block a
    column of keys (or one int key) against rows of halves of at most
    CHUNK cases."""
    n, t, seeds = 3, 4, (0, 1)
    N = 1 << n
    if chunk is not None:
        monkeypatch.setattr(equivalence, "CHUNK", chunk)
    chunk = equivalence.CHUNK
    calls, cases = Counter(), Counter()

    def spy(name):
        original = getattr(equivalence, name)
        assert original is feistel._sweep_chain

        def counted(inst, keys, left, right):
            rows = 1 if isinstance(keys, int) else len(keys)
            assert left.shape == right.shape and left.shape[0] == 1 and rows * left.shape[1] <= chunk
            calls[name] += 1
            cases[name] += rows * left.shape[1]
            return original(inst, keys, left, right)

        monkeypatch.setattr(equivalence, name, counted)

    for name in ("kafw_encrypt", "kafv_encrypt", "lucifer_encrypt"):
        spy(name)
    for sweep, sides in (
        (kafv_vs_kafw_sweep, ("kafv_encrypt", "kafw_encrypt")),
        (lucifer_sandwich_sweep, ("lucifer_encrypt", "kafv_encrypt")),
    ):
        calls.clear()
        cases.clear()
        assert sweep(n, t, seeds).passed
        assert calls == {name: len(seeds) * blocks for name in sides}
        assert cases == {name: len(seeds) * N**3 for name in sides}
