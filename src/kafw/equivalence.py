"""Exhaustive structural equivalence checks at enumeration-scale widths.

Two identities are checked over every key and every plaintext, for several
oracle seeds and randomized schedules:

- a t-round KAFv equals the KAFw instance produced by the schedule
  conversion, for the same round function;
- a t-round Lucifer chain equals keyless first/last rounds wrapped around
  the stripped (t-2)-round KAFv core.

Round functions are numpy tables, each filled by one `query_many` batch,
so each side of an identity is one `feistel._sweep_chain` call per block
of at most CHUNK cases: a (K, 1) int64 column of keys against the halves
of a (1, W) row of plaintext words, broadcast to K x W cases in one chain.
Blocks hold whole keys' words (CHUNK // N^2 keys) when N^2 <= CHUNK, and
one key's words split into rows of CHUNK otherwise, that key then passed
as an int, whose layout the schedule keeps across its rows (n <= 12).
Blocks run key-major, so counts and the first mismatch are those of the
case-by-case loop in (seed, key, plaintext) order.  Everything runs on
halves, the sandwich's keyless outer rounds included; only a first
mismatch is packed into words.  The rows are made once per seed, with the
sandwich's first outer round over them, when there are at most KEPT
words; past that, once per key.

numpy loads on the first sweep, not with this module, so a program that
imports the sweeps but never runs one starts without it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError, DomainTooLarge, TooFewRounds
from .feistel import CipherInstance, _sweep_chain, psi_tilde_round
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

    def add(self, seed, keys, n, plain, a, b) -> None:
        """Count one block of cases, keys (an int, or a (K, 1) column)
        against the (1, W) rows of plaintext halves `plain`, a and b each
        side's output halves, keeping the first mismatch, packed into
        words, in the scalar loop's (seed, key, plaintext) order."""
        import numpy as np

        bad = (a[0] != b[0]) | (a[1] != b[1])
        count = int(np.count_nonzero(bad))
        self.cases += bad.size
        self.mismatches += count
        if count and self.first_mismatch is None:
            row, i = divmod(int(bad.argmax()), bad.shape[1])
            key = keys if isinstance(keys, int) else int(keys[row, 0])

            def word(halves, r):
                return int(halves[0][r, i]) << n | int(halves[1][r, i])

            self.first_mismatch = (seed, key, word(plain, 0), word(a, row), word(b, row))


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
kafw_encrypt = kafv_encrypt = lucifer_encrypt = _sweep_chain

# Cases per block, about 0.4 MB of int64 temporaries in a chain: bounds a
# sweep's memory at any n <= MAX_EXHAUSTIVE_N.
CHUNK = 1 << 13

# Plaintext words kept across a seed's keys, as halves (n <= 8: 1 MB, and
# 1.5 MB with the sandwich's first outer round, which shares a half).
KEPT = 1 << 16


def _blocks(n: int, outer=None):
    """(keys, plain, inner) for every block of a sweep, in (key, plaintext)
    order: keys a (K, 1) int64 column, or one key as an int, plain the
    (left, right) halves of a (1, W) int64 row of words, at most CHUNK
    cases in all, and inner the keyless round psi_tilde_round(plain, 0,
    outer), or plain itself when outer is None."""
    import numpy as np

    N, total = 1 << n, 1 << (2 * n)

    def rows():
        for start in range(0, total, CHUNK):
            words = np.arange(start, min(start + CHUNK, total), dtype=np.int64)[None]
            plain = words >> n, words & (N - 1)
            yield plain, plain if outer is None else psi_tilde_round(plain, 0, outer)

    kept = list(rows()) if total <= KEPT else None
    step = max(CHUNK // total, 1)
    for first in range(0, N, step):
        keys = first if step == 1 else np.arange(first, min(first + step, N), dtype=np.int64)[:, None]
        for plain, inner in kept or rows():
            yield keys, plain, inner


def _check_sweep(n: int, t: int) -> DomainParams:
    """Each sweep draws about t maps and t tables before its first case, so
    t is capped as the builtins' round counts are.  A sweep reads its seeds
    once, after every check, so an iterator may derive them."""
    if n > MAX_EXHAUSTIVE_N:
        raise DomainTooLarge("exhaustive sweep capped")
    if t > MAX_BUILTIN_ROUNDS:
        raise DomainError(f"a sweep takes at most {MAX_BUILTIN_ROUNDS} rounds")
    return DomainParams.for_width(n)


def kafv_vs_kafw_sweep(n: int, t: int, seeds=(0, 1, 2)) -> SweepResult:
    """Converted-schedule KAFw vs the original KAFv, exhaustively per seed."""
    p = _check_sweep(n, t)
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
        for keys, plain, _ in _blocks(n):
            a = kafv_encrypt(kafv_inst, keys, *plain)
            b = kafw_encrypt(kafw_inst, keys, *plain)
            result.add(seed, keys, n, plain, a, b)
    if not result.cases:  # no seed read, nothing checked
        raise DomainError("a sweep needs at least one oracle seed")
    return result


def lucifer_sandwich_sweep(n: int, t: int, seeds=(0, 1, 2)) -> SweepResult:
    """Lucifer chain vs keyless outer rounds around the stripped KAFv core."""
    p = _check_sweep(n, t)
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

        for keys, plain, inner in _blocks(n, parts.outer_first):
            direct = lucifer_encrypt(lucifer_inst, keys, *plain)
            sandwich = psi_tilde_round(kafv_encrypt(core_inst, keys, *inner), 0, parts.outer_last)
            result.add(seed, keys, n, plain, direct, sandwich)
    if not result.cases:  # no seed read, nothing checked
        raise DomainError("a sweep needs at least one oracle seed")
    return result
