"""Feistel constructions: KAFw and its KAF/KAFv/Lucifer shufflings.

State is a pair of n-bit halves.  One KAFw round is

    (L, R)  ->  (R, L ^ f(round_key ^ R))

with the round key XORed into the function input; the KAFv/Lucifer round
XORs the key into the output instead:

    (L, R)  ->  (R, L ^ f(R) ^ round_key)

Every construction is one chain w_out ^ round_t o ... o round_1 (w_in ^ x)
over a flat layout of t + 4 sub-keys: the input whitening halves, the t
round keys, the output whitening halves.  Each schedule class states once,
in its `slots`, which sub-key map fills each place: KAFw whitens with
wf0(k)||wf1(k) and wf2(k)||wf3(k), KAF (construction="kaf") is KAFw with
zero whitening, a t-round KAFv whitens with 0||g*_0 and g*_{t+1}||0, and
Lucifer not at all.  Decryption is the reversed chain between two half
swaps (round^-1 = swap o round o swap): round functions are only ever
evaluated forward, so non-invertible ones still give permutations of the
full 2n-bit block.

A `CipherInstance` is a schedule plus round functions; its width and round
count are the schedule's.  `encrypt_block`/`decrypt_block(key, block)` are
the one block interface.  A block is a 2n-bit word, left half high: a plain
int, or a numpy int64 column of many words when every round function maps a
column to a column (a table lookup does).  A tweak is folded into the key:
encrypt_block(key ^ tweak, block).

For n <= MEMO_MAX_N, a key's layout is computed once per schedule object
and kept in the schedule's `memo`, so every instance over that schedule
reads it from then on.

`CipherInstance.encrypt_many` encrypts one block under many keys.  Over
order-free random functions it runs the chain round-major, one batched f
query per round, on the schedule's compiled slots; otherwise it is the loop
over `encrypt_block`, which stays the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import xor
from typing import Callable, Sequence

from .errors import DomainError, ScheduleArityMismatch
from .oracles import order_free
from .schedules import MEMO_MAX_N, KafvSchedule, KeySchedule, LuciferSchedule, check_construction


# encrypt_many runs the scalar loop below this many keys: the fixed costs of
# the batched path (a column per sub-key map, a query_many per round) pay off
# from about four keys (minimal4 at n = 8 and 16, ortho6 at n = 8).
BATCH_MIN = 4


RoundFunction = Callable[[int], int]


def psi_round(state: tuple[int, int], round_key: int, f: RoundFunction) -> tuple[int, int]:
    """KAFw round map on (left, right) (reference for one round of the chain)."""
    left, right = state
    return right, left ^ f(round_key ^ right)


def psi_tilde_round(state: tuple[int, int], round_key: int, f: RoundFunction) -> tuple[int, int]:
    """KAFv/Lucifer round map (key XORed after the round function)."""
    left, right = state
    return right, left ^ f(right) ^ round_key


def _chain(fs, layout: tuple, key_into_f: bool, left: int, right: int, inverse=False, trace=None):
    """w_out ^ round_t o ... o round_1 (w_in ^ (left, right)).

    layout is the flat t + 4 sub-keys (w_in halves, round keys, w_out
    halves); key_into_f says whether the round keys go into f or after it.
    The inverse runs the reversed layout between two half swaps; `trace`
    collects (x_i, y_i, (left, right) after round i).

    The halves are plain ints, or numpy integer columns of many blocks when
    every f maps a column to a column (a table lookup does).  The chain
    only uses ^ and f, and never writes into its operands: callers may pass
    one plaintext column to several chains.
    """
    if inverse:
        fs, layout = fs[::-1], layout[::-1]
        left, right = right, left
    left, right = left ^ layout[0], right ^ layout[1]
    keys = layout[2:-2]
    into, after = (keys, repeat(0)) if key_into_f else (repeat(0), keys)
    for f, k_in, k_out in zip(fs, into, after):
        x = k_in ^ right
        y = f(x)
        left, right = right, left ^ y ^ k_out
        if trace is not None:
            trace.append((x, y, (left, right)))
    left, right = left ^ layout[-2], right ^ layout[-1]
    return (right, left) if inverse else (left, right)


def _reference_layout(s, key: int) -> tuple:
    """Each of s's slots evaluated under key."""
    p = s.params
    # tuple() of a list: a generator expression costs encrypt_block 0.3 us more.
    return tuple([m.value(key, p) for m in s.slots])


def _layout(s, key: int) -> tuple:
    """The reference layout under key, kept in s.memo for n <= MEMO_MAX_N
    and keys in [0, N).  Any other key is computed afresh each time, so it
    raises (or not) exactly as the reference does, and a failing layout is
    never kept."""
    if s.params.n > MEMO_MAX_N:
        return _reference_layout(s, key)
    memo = s.memo
    layout = memo.get(key)
    if layout is None:
        layout = _reference_layout(s, key)
        if 0 <= key < s.params.N:
            memo[key] = layout
    return layout


@dataclass
class CipherInstance:
    """A concrete construction: a schedule and its round functions.

    round_functions holds either one shared oracle (the single-function
    model used by the security statements) or t independent ones (the
    attack statements hold for any functions).
    """

    schedule: KeySchedule | KafvSchedule | LuciferSchedule
    round_functions: Sequence[RoundFunction]
    construction: str = "kafw"

    def __post_init__(self):
        check_construction(self.construction, self.schedule)
        t = self.schedule.t
        fs = tuple(self.round_functions)
        if len(fs) == 1 and t != 1:
            fs = fs * t
        self.round_functions = fs
        if len(fs) != t:
            raise ScheduleArityMismatch(f"{t} rounds but {len(fs)} round functions")

    # The block interface, so oracles can treat any instance as E_k.
    def encrypt_block(self, key: int, block, trace: list | None = None):
        """E_key(block); `trace` collects (x_i, y_i, (left, right)) per round."""
        return self._block_op(key, block, False, trace)

    def decrypt_block(self, key: int, block):
        return self._block_op(key, block, True)

    def _block_op(self, key: int, block, inverse: bool, trace=None):
        """block is an int or a numpy int64 column of words: only >>, &, <<
        and | touch it, and the column is never written into."""
        s = self.schedule
        n = s.params.n
        left, right = _chain(
            self.round_functions, _layout(s, key), s.key_into_f, block >> n, block & s.params.mask, inverse, trace
        )
        return (left << n) | right

    def batches(self, count: int) -> bool:
        """Whether encrypt_many runs round-major on `count` keys: at least
        BATCH_MIN of them, and every round function an order-free
        RandomFunctionOracle."""
        return count >= BATCH_MIN and order_free(self.round_functions)

    def encrypt_many(self, keys: list[int], block: int, inputs: list | None = None, wanted: set | None = None) -> list:
        """[self.encrypt_block(key, block) for key in keys].

        That loop is the spec, and it is what runs unless
        `batches(len(keys))`; then `_chain_many` runs the rounds over all
        keys at once, one query_many per round, with the same results.
        Each slot's column reads the schedule's compiled map, which drops
        zero maps and reads field-cubic maps at n <= MAX_EXHAUSTIVE_N from
        tables.  Keys outside [0, N) go key by key through the reference
        layout instead, so the first bad key raises as in the scalar loop.
        `inputs` (batched only) receives one list per round of that round's
        f inputs across the keys; the birthday attack charges its f budget
        from them.  With `wanted`, a set of left halves, a key whose
        ciphertext's left half is not in it gets None instead: that half is
        fixed before the last round, so the batched path never asks f for
        such a key's last round (its input is still recorded).
        """
        n = self.schedule.params.n
        if not self.batches(len(keys)):
            if inputs is not None:
                raise DomainError("round inputs are recorded on the batched path only")
            cts = [self.encrypt_block(key, block) for key in keys]
            return cts if wanted is None else [ct if ct >> n in wanted else None for ct in cts]
        s = self.schedule
        # Compiled whatever the keys, so a map that cannot compile raises first.
        slots = s.compiled_slots
        if 0 <= min(keys) and max(keys) < s.params.N:
            columns = [None if f is None else list(map(f, keys)) for f in slots]
        else:
            columns = list(zip(*(_reference_layout(s, key) for key in keys)))
        left, right = _chain_many(
            self.round_functions, columns, s.key_into_f, len(keys), block >> n, block & s.params.mask, inputs, wanted
        )
        return [None if r is None else (l << n) | r for l, r in zip(left, right)]


def _chain_many(fs, columns: list, key_into_f: bool, count: int, left: int, right: int, inputs=None, wanted=None):
    """_chain forward for one (left, right) under many keys, round-major.

    columns[i] holds layout slot i across the `count` keys, None where it
    is 0 for all of them.  Each round is one query_many over every key's f
    input, and `inputs` receives those inputs.  Returns the lists of left
    and right halves.  With `wanted`, the last round asks f only for the
    keys whose output left half (that round's right input half, whitened)
    is in `wanted`; every other key's right half is None.
    """
    t = len(fs)
    lefts = [left] * count if columns[0] is None else [left ^ w for w in columns[0]]
    rights = [right] * count if columns[1] is None else [right ^ w for w in columns[1]]
    for i, (f, keys) in enumerate(zip(fs, columns[2 : t + 2]), 1):
        x = rights if keys is None or not key_into_f else list(map(xor, keys, rights))
        if inputs is not None:
            inputs.append(x)
        if i == t and wanted is not None:
            outs = rights if columns[t + 2] is None else list(map(xor, rights, columns[t + 2]))
            kept = list(compress(range(count), map(wanted.__contains__, outs)))
            after = (columns[t + 3], None if key_into_f else keys)
            last = [None] * count
            for j, y in zip(kept, f.query_many([x[j] for j in kept])):
                y ^= lefts[j]
                for column in after:
                    if column is not None:
                        y ^= column[j]
                last[j] = y
            return outs, last
        y = list(map(xor, lefts, f.query_many(x)))
        if keys is not None and not key_into_f:
            y = list(map(xor, y, keys))
        lefts, rights = rights, y
    if columns[t + 2] is not None:
        lefts = list(map(xor, lefts, columns[t + 2]))
    if columns[t + 3] is not None:
        rights = list(map(xor, rights, columns[t + 3]))
    return lefts, rights
