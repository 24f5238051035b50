"""Exhaustive structural equivalence checks at enumeration-scale widths.

Two identities are checked over every key and every plaintext, for several
oracle seeds and randomized schedules:

- a t-round KAFv equals the KAFw instance produced by the schedule
  conversion, for the same round function;
- a t-round Lucifer chain equals keyless first/last rounds wrapped around
  the stripped (t-2)-round KAFv core.

Round functions are numpy tables, each filled by one `query_many` batch,
so each side of an identity is one `encrypt_block` call per block of at
most CHUNK cases: a (K, 1) int64 column of keys against a (1, W) row of
plaintext words, broadcast to K x W cases in one chain.  Blocks hold whole
keys' words (CHUNK // N^2 keys) when N^2 <= CHUNK, and one key's words
split into rows of CHUNK otherwise, that key then passed as an int, whose
layout the schedule keeps across its rows (n <= 12).  Blocks run
key-major, so counts and the first mismatch are those of the case-by-case
loop in (seed, key, plaintext) order.  The plaintext rows are made once
per seed, with the Lucifer sandwich's keyless first outer round over them,
when there are at most KEPT words; past that, once per key.

numpy loads on the first sweep, not with this module, so a program that
imports the sweeps but never runs one starts without it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError, DomainTooLarge, TooFewRounds
from .feistel import CipherInstance, psi_tilde_round
from .gf2 import MAX_EXHAUSTIVE_N, DomainParams
from .oracles import RandomFunctionOracle, derive_seed
from .schedules import (
    MAX_BUILTIN_ROUNDS,
    FieldCubicSubkey,
    KafvSchedule,
    LuciferSchedule,
    SubkeyMap,
    XorSubkey,
    ZeroMap,
    kafv_to_kafw,
    lucifer_strip,
    random_affine_map,
)


@dataclass
class SweepResult:
    description: str
    cases: int = 0
    mismatches: int = 0
    first_mismatch: tuple | None = None  # (seed, key, word, ct_a, ct_b), plain ints

    @property
    def passed(self) -> bool:
        return self.mismatches == 0

    def add(self, seed, keys, words, a, b) -> None:
        """Count one block of cases, keys (an int, or a (K, 1) column)
        against the (1, W) row of words, keeping the first mismatch in the
        scalar loop's (seed, key, plaintext) order."""
        import numpy as np

        bad = a != b
        count = int(np.count_nonzero(bad))
        self.cases += bad.size
        self.mismatches += count
        if count and self.first_mismatch is None:
            row, i = divmod(int(bad.argmax()), bad.shape[1])
            key = keys if isinstance(keys, int) else int(keys[row, 0])
            self.first_mismatch = (seed, key, int(words[0, i]), int(a[row, i]), int(b[row, i]))


def random_subkey_map(p: DomainParams, rng: random.Random) -> SubkeyMap:
    """One map drawn over all the kinds the file format can express."""
    kind = rng.randrange(4)
    if kind == 0:
        return ZeroMap()
    if kind == 1:
        return random_affine_map(p, rng)
    if kind == 2:
        return FieldCubicSubkey(rng.randrange(1, p.N))
    return XorSubkey((random_subkey_map(p, rng), random_subkey_map(p, rng)))


def _function_table(n: int, seed: int):
    """The random function with this seed as a lookup that takes int arrays."""
    import numpy as np

    table = RandomFunctionOracle(n, seed).query_many(range(1 << n))
    return np.array(table, dtype=np.int64).__getitem__


# The benchmark's tracer counts sweep encryptions by patching these names.
kafw_encrypt = kafv_encrypt = lucifer_encrypt = CipherInstance.encrypt_block

# Cases per block, about 0.4 MB of int64 temporaries in a chain: bounds a
# sweep's memory at any n <= MAX_EXHAUSTIVE_N.
CHUNK = 1 << 13

# Plaintext words kept across a seed's keys (n <= 8: 1 MB with the
# sandwich's first outer round).
KEPT = 1 << 16


def _blocks(n: int, first_round=None):
    """(keys, words, first_round(words)) for every block of a sweep, in
    (key, plaintext) order: keys a (K, 1) int64 column, or one key as an
    int, and words a (1, W) int64 row, at most CHUNK cases in all.
    first_round=None passes the words themselves."""
    import numpy as np

    N, total = 1 << n, 1 << (2 * n)

    def rows():
        for start in range(0, total, CHUNK):
            words = np.arange(start, min(start + CHUNK, total), dtype=np.int64)[None]
            yield words, words if first_round is None else first_round(words)

    kept = list(rows()) if total <= KEPT else None
    step = max(CHUNK // total, 1)
    for first in range(0, N, step):
        keys = first if step == 1 else np.arange(first, min(first + step, N), dtype=np.int64)[:, None]
        for words, inner in kept or rows():
            yield keys, words, inner


def _check_sweep(n: int, t: int, seeds) -> DomainParams:
    """Each sweep draws about t maps and t tables before its first case, so
    t is capped as the builtins' round counts are."""
    if n > MAX_EXHAUSTIVE_N:
        raise DomainTooLarge("exhaustive sweep capped")
    if not seeds:
        raise DomainError("a sweep needs at least one oracle seed")
    if t > MAX_BUILTIN_ROUNDS:
        raise DomainError(f"a sweep takes at most {MAX_BUILTIN_ROUNDS} rounds")
    return DomainParams.for_width(n)


def kafv_vs_kafw_sweep(n: int, t: int, seeds=(0, 1, 2)) -> SweepResult:
    """Converted-schedule KAFw vs the original KAFv, exhaustively per seed."""
    p = _check_sweep(n, t, seeds)
    if t < 2:
        raise TooFewRounds("conversion needs t >= 2")
    result = SweepResult(f"kafv-kafw n={n} t={t}")
    for seed in seeds:
        rng = random.Random(derive_seed(seed, "kafv-schedule"))
        star = KafvSchedule(p, tuple(random_subkey_map(p, rng) for _ in range(t + 2)))
        converted = kafv_to_kafw(star)
        f = _function_table(n, derive_seed(seed, "f"))
        kafv_inst = CipherInstance(star, (f,))
        kafw_inst = CipherInstance(converted, (f,))
        for keys, words, _ in _blocks(n):
            a = kafv_encrypt(kafv_inst, keys, words)
            b = kafw_encrypt(kafw_inst, keys, words)
            result.add(seed, keys, words, a, b)
    return result


def lucifer_sandwich_sweep(n: int, t: int, seeds=(0, 1, 2)) -> SweepResult:
    """Lucifer chain vs keyless outer rounds around the stripped KAFv core."""
    p = _check_sweep(n, t, seeds)
    if t < 3:
        raise TooFewRounds("the sandwich needs t >= 3")
    result = SweepResult(f"lucifer-sandwich n={n} t={t}")
    for seed in seeds:
        rng = random.Random(derive_seed(seed, "lucifer-schedule"))
        key_maps = LuciferSchedule(p, tuple(random_subkey_map(p, rng) for _ in range(t)))
        fs = [_function_table(n, derive_seed(seed, "f", i)) for i in range(t)]
        lucifer_inst = CipherInstance(key_maps, tuple(fs))
        # The Lucifer's round-key maps are the KAFv core's sub-key maps.
        parts = lucifer_strip(fs, key_maps.maps)
        core_inst = CipherInstance(KafvSchedule(p, parts.core_subkeys), parts.core_functions)

        def first_round(words, outer=parts.outer_first):
            left, right = psi_tilde_round((words >> n, words & p.mask), 0, outer)
            return (left << n) | right

        for keys, words, inner in _blocks(n, first_round):
            direct = lucifer_encrypt(lucifer_inst, keys, words)
            mid = kafv_encrypt(core_inst, keys, inner)
            left, right = psi_tilde_round((mid >> n, mid & p.mask), 0, parts.outer_last)
            result.add(seed, keys, words, direct, (left << n) | right)
    return result
