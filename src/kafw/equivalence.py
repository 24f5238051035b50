"""Exhaustive structural equivalence checks at enumeration-scale widths.

Two identities are checked over every key and every plaintext, for several
oracle seeds and randomized schedules:

- a t-round KAFv equals the KAFw instance produced by the schedule
  conversion, for the same round function;
- a t-round Lucifer chain equals keyless first/last rounds wrapped around
  the stripped (t-2)-round KAFv core.

Round functions are numpy tables, so each side of an identity is one
`encrypt_block` call per key on a numpy column of plaintext words, CHUNK of
them at a time.  Counts and the first mismatch are those of the
case-by-case loop in (seed, key, plaintext) order.

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

    def add(self, seed, key: int, words, a, b) -> None:
        """Count one column of cases, keeping the first mismatch in the
        scalar loop's (seed, key, plaintext) order."""
        import numpy as np

        bad = a != b
        count = int(np.count_nonzero(bad))
        self.cases += len(bad)
        self.mismatches += count
        if count and self.first_mismatch is None:
            i = int(bad.argmax())
            self.first_mismatch = (seed, key, int(words[i]), int(a[i]), int(b[i]))


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
    """The random function with this seed as a lookup that takes int columns."""
    import numpy as np

    oracle = RandomFunctionOracle(n, seed)
    table = np.array([oracle.query(x) for x in range(1 << n)], dtype=np.int64)
    return table.__getitem__


# The benchmark's tracer counts sweep encryptions by patching these names.
kafw_encrypt = kafv_encrypt = lucifer_encrypt = CipherInstance.encrypt_block

# Plaintexts per column: bounds a sweep's memory at any n <= MAX_EXHAUSTIVE_N.
CHUNK = 1 << 16


def _plaintexts(n: int):
    """Columns of all 2n-bit words, CHUNK at a time."""
    import numpy as np

    total = 1 << (2 * n)
    for start in range(0, total, CHUNK):
        yield np.arange(start, min(start + CHUNK, total), dtype=np.int64)


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
        for key in range(p.N):
            for words in _plaintexts(n):
                a = kafv_encrypt(kafv_inst, key, words)
                b = kafw_encrypt(kafw_inst, key, words)
                result.add(seed, key, words, a, b)
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
        for key in range(p.N):
            for words in _plaintexts(n):
                direct = lucifer_encrypt(lucifer_inst, key, words)
                left, right = psi_tilde_round((words >> n, words & p.mask), 0, parts.outer_first)
                mid = kafv_encrypt(core_inst, key, (left << n) | right)
                left, right = psi_tilde_round((mid >> n, mid & p.mask), 0, parts.outer_last)
                result.add(seed, key, words, direct, (left << n) | right)
    return result
