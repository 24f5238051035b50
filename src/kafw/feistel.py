"""Feistel constructions: KAFw and its KAF/KAFv/Lucifer shufflings.

State is a pair of n-bit halves.  One KAFw round is

    (L, R)  ->  (R, L ^ f(round_key ^ R))

with the round key XORed into the function input; the KAFv/Lucifer round
XORs the key into the output instead:

    (L, R)  ->  (R, L ^ f(R) ^ round_key)

Every construction is one chain w_out ^ round_t o ... o round_1 (w_in ^ x)
with its own sub-key layout: KAFw whitens with wf0(k)||wf1(k) and
wf2(k)||wf3(k), KAF (construction="kaf") is KAFw with zero whitening, a
t-round KAFv whitens with 0||g*_0 and g*_{t+1}||0, and Lucifer not at all.
Decryption is the reversed chain between two half swaps (round^-1 = swap o
round o swap): round functions are only ever evaluated forward, so
non-invertible ones still give permutations of the full 2n-bit block.

`CipherInstance.encrypt_block`/`decrypt_block(key, block)` are the one
block interface.  A block is a 2n-bit word, left half high: a plain int,
or a numpy int64 column of many words when every round function maps a
column to a column (a table lookup does).  A tweak is folded into the key:
encrypt_block(key ^ tweak, block).

For n <= MEMO_MAX_N, a key's sub-key layout is computed once per schedule
object and kept in the schedule's `memo`, so every instance over that
schedule (KAFw and KAF share one layout rule) reads it from then on.

`CipherInstance.encrypt_many` encrypts one block under many keys.  Over
order-free random functions it runs the chain round-major, one batched f
query per round, on a compiled sub-key layout; otherwise it is the loop
over `encrypt_block`, which stays the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import xor
from typing import Callable, Sequence

from .errors import DomainError, ScheduleArityMismatch
from .gf2 import DomainParams
from .oracles import order_free
from .schedules import CONSTRUCTIONS, MEMO_MAX_N, KafvSchedule, KeySchedule, LuciferSchedule, check_construction


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


def _chain(fs, layout: tuple, left: int, right: int, inverse=False, trace=None):
    """w_out ^ round_t o ... o round_1 (w_in ^ (left, right)).

    layout is (w_in, round keys, w_out, whether the keys go into f or after
    it).  The inverse runs the reversed rounds and swapped whitening between
    two half swaps; `trace` collects (x_i, y_i, (left, right) after round i).

    The halves are plain ints, or numpy integer columns of many blocks when
    every f maps a column to a column (a table lookup does).  The chain
    only uses ^ and f, and never writes into its operands: callers may pass
    one plaintext column to several chains.
    """
    w_in, keys, w_out, key_into_f = layout
    if inverse:
        fs, keys, w_in, w_out = fs[::-1], keys[::-1], w_out[::-1], w_in[::-1]
        left, right = right, left
    left, right = left ^ w_in[0], right ^ w_in[1]
    into, after = (keys, repeat(0)) if key_into_f else (repeat(0), keys)
    for f, k_in, k_out in zip(fs, into, after):
        x = k_in ^ right
        y = f(x)
        left, right = right, left ^ y ^ k_out
        if trace is not None:
            trace.append((x, y, (left, right)))
    left, right = left ^ w_out[0], right ^ w_out[1]
    return (right, left) if inverse else (left, right)


@dataclass
class CipherInstance:
    """A concrete construction: domain, round count, schedule, round functions.

    round_functions holds either one shared oracle (the single-function
    model used by the security statements) or t independent ones (the
    attack statements hold for any functions).
    """

    params: DomainParams
    rounds: int
    schedule: KeySchedule | KafvSchedule | LuciferSchedule
    round_functions: Sequence[RoundFunction]
    construction: str = "kafw"
    # (c, keys) -> layout columns, from encrypt_many's first batch.
    _compiled: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        fs = tuple(self.round_functions)
        if len(fs) == 1 and self.rounds != 1:
            fs = fs * self.rounds
        self.round_functions = fs
        if len(fs) != self.rounds:
            raise ScheduleArityMismatch(
                f"{self.rounds} rounds but {len(fs)} round functions"
            )
        check_construction(self.construction, self.schedule, self.rounds)

    # The block interface, so oracles can treat any instance as E_k.
    def encrypt_block(self, key: int, block, trace: list | None = None):
        """E_key(block); `trace` collects (x_i, y_i, (left, right)) per round."""
        return self._block_op(key, block, False, trace)

    def decrypt_block(self, key: int, block):
        return self._block_op(key, block, True)

    def _block_op(self, key: int, block, inverse: bool, trace=None):
        """block is an int or a numpy int64 column of words: only >>, &, <<
        and | touch it, and the column is never written into."""
        n, layout = self.params.n, self._layout(key)
        left, right = _chain(self.round_functions, layout, block >> n, block & self.params.mask, inverse, trace)
        return (left << n) | right

    def _layout(self, key: int) -> tuple:
        """The construction's reference layout under key, kept in the
        schedule's memo for n <= MEMO_MAX_N and keys in [0, N).  Any other
        key is computed afresh each time, so it raises (or not) exactly as
        the reference does, and a failing layout is never kept."""
        s = self.schedule
        if s.params.n > MEMO_MAX_N:
            return _LAYOUTS[CONSTRUCTIONS[self.construction]](self, key)
        memo = s.memo
        layout = memo.get(key)
        if layout is None:
            layout = _LAYOUTS[CONSTRUCTIONS[self.construction]](self, key)
            if 0 <= key < s.params.N:
                memo[key] = layout
        return layout

    def batches(self, count: int) -> bool:
        """Whether encrypt_many runs round-major on `count` keys: at least
        BATCH_MIN of them, and every round function an order-free
        RandomFunctionOracle."""
        return count >= BATCH_MIN and order_free(self.round_functions)

    def encrypt_many(self, keys: list[int], block: int, inputs: list | None = None) -> list[int]:
        """[self.encrypt_block(key, block) for key in keys].

        That loop is the spec, and it is what runs unless
        `batches(len(keys))`; then `_chain_many` runs the rounds over all
        keys at once, one query_many per round, with the same results.
        `inputs` (batched only) receives one list per round of that round's
        f inputs across the keys; the birthday attack charges its f budget
        from them.
        """
        if not self.batches(len(keys)):
            if inputs is not None:
                raise DomainError("round inputs are recorded on the batched path only")
            return [self.encrypt_block(key, block) for key in keys]
        n = self.params.n
        columns, key_into_f = (self._compiled or _compile(self))(self, keys)
        left, right = _chain_many(
            self.round_functions, columns, key_into_f, len(keys), block >> n, block & self.params.mask, inputs
        )
        return [(l << n) | r for l, r in zip(left, right)]


def _compile(c: CipherInstance) -> Callable:
    """c's schedule as (c, keys) -> (layout columns, key into f).

    Each layout slot (input whitening halves, round keys, output whitening
    halves) gets its map's `compiled` form: zero maps drop out, field-cubic
    maps at n <= MAX_EXHAUSTIVE_N become table lookups.  Keys outside
    [0, N) go through the construction's reference layout instead, which
    raises (or not) exactly as it always has.  The function takes c as an
    argument rather than closing over it, so an instance and its compiled
    layout form no reference cycle and are freed as soon as a trial drops
    them.
    """
    kind = CONSTRUCTIONS[c.construction]
    reference = _LAYOUTS[kind]
    s = c.schedule
    if kind is KeySchedule:
        maps, key_into_f = (*s.whitening[:2], *s.round_keys, *s.whitening[2:]), True
    elif kind is KafvSchedule:
        maps, key_into_f = (None, *s.maps, None), False
    else:
        maps, key_into_f = (None, None, *s.maps, None, None), False
    size = c.params.N
    slots = [None if m is None else m.compiled(c.params) for m in maps]

    def columns(c: CipherInstance, keys: list[int]) -> tuple:
        if min(keys) < 0 or max(keys) >= size:
            # Key by key, so the first bad key raises as in the scalar loop.
            rows = [(*w_in, *ks, *w_out) for w_in, ks, w_out, _ in (reference(c, k) for k in keys)]
            return [list(col) for col in zip(*rows)], key_into_f
        return [None if f is None else list(map(f, keys)) for f in slots], key_into_f

    c._compiled = columns
    return columns


def _chain_many(fs, columns: list, key_into_f: bool, count: int, left: int, right: int, inputs=None):
    """_chain forward for one (left, right) under many keys, round-major.

    columns[i] holds layout slot i (input whitening halves, the t round
    keys, output whitening halves) across the `count` keys, None where it
    is 0 for all of them.  Each round is one query_many over every key's f
    input.  Returns the lists of left and right halves.
    """
    t = len(fs)
    lefts = [left] * count if columns[0] is None else [left ^ w for w in columns[0]]
    rights = [right] * count if columns[1] is None else [right ^ w for w in columns[1]]
    for f, keys in zip(fs, columns[2 : t + 2]):
        x = rights if keys is None or not key_into_f else list(map(xor, keys, rights))
        y = list(map(xor, lefts, f.query_many(x)))
        if keys is not None and not key_into_f:
            y = list(map(xor, y, keys))
        if inputs is not None:
            inputs.append(x)
        lefts, rights = rights, y
    if columns[t + 2] is not None:
        lefts = list(map(xor, lefts, columns[t + 2]))
    if columns[t + 3] is not None:
        rights = list(map(xor, rights, columns[t + 3]))
    return lefts, rights


# The layouts read c.schedule unchecked: CipherInstance.__post_init__ has
# checked its class and arity against the construction.


def _kafw_layout(c: CipherInstance, key: int) -> tuple:
    """wf0||wf1, gamma_1..gamma_t into f, wf2||wf3."""
    s = c.schedule
    w_in = (s.whitening_key(0, key), s.whitening_key(1, key))
    # tuple() of a list: a generator expression costs encrypt_block 0.3 us more.
    keys = tuple([s.round_key(i, key) for i in range(1, c.rounds + 1)])
    return w_in, keys, (s.whitening_key(2, key), s.whitening_key(3, key)), True


def _kafv_layout(c: CipherInstance, key: int) -> tuple:
    """0||g*_0, g*_1..g*_t after f, g*_{t+1}||0."""
    s = c.schedule
    keys = tuple([s.subkey(i, key) for i in range(1, c.rounds + 1)])
    return (0, s.subkey(0, key)), keys, (s.subkey(c.rounds + 1, key), 0), False


def _lucifer_layout(c: CipherInstance, key: int) -> tuple:
    """No whitening, k_1..k_t after f."""
    s = c.schedule
    keys = tuple([s.round_key(i, key) for i in range(1, c.rounds + 1)])
    return (0, 0), keys, (0, 0), False


# Schedule class -> the sub-key layout of its construction under one key.
_LAYOUTS = {
    KeySchedule: _kafw_layout,
    KafvSchedule: _kafv_layout,
    LuciferSchedule: _lucifer_layout,
}
