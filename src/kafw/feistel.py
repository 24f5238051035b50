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
wf0(k)||wf1(k) and wf2(k)||wf3(k), KAF is KAFw with zero whitening, a
t-round KAFv whitens with 0||g*_0 and g*_{t+1}||0, and Lucifer not at
all.  Decryption is the reversed chain between two half swaps (round^-1 =
swap o round o swap): round functions are only ever evaluated forward, so
non-invertible ones still give permutations of the full 2n-bit block.

A `CipherInstance` is a schedule plus round functions; its construction,
width and round count are the schedule's.
`encrypt_block`/`decrypt_block(key, block)` are the one block interface.
A block is a 2n-bit word, left half high: a plain int in [0, 2^2n) (any
other raises DomainError), or a numpy int64 array of many words when every
round function maps an array to an array (a table lookup does).  A key is
an int, or a numpy integer array of keys in [0, N) (any other raises
DomainError) that broadcasts against the block: the equivalence sweeps
encrypt a (K, 1) column of keys against a (1, W) row of words in one
chain.  A tweak is folded into the key: encrypt_block(key ^ tweak, block).

An int key's layout is computed once and kept where the schedule's
`per_key` says, so every instance over that schedule reads it from then
on; a key array's is computed afresh (`_layout_columns`) on each call.

`CipherInstance.encrypt_many` encrypts one block under many keys and alone
decides how: for enough in-range keys over order-free random functions it
runs the same chain once on int64 columns across the keys, one batched f
query per round; otherwise it is the loop over `encrypt_block`, which
stays the spec.  Either way it can record every round's f inputs.
`_chain` is the one multi-round loop, for one block or many, under one
key or many.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Sequence

from .errors import DomainError, ScheduleArityMismatch
from .oracles import order_free
from .schedules import CONSTRUCTIONS, KafvSchedule, KeySchedule, LuciferSchedule


# encrypt_many runs the scalar loop below this many keys.  The column path's
# fixed cost (about 30 numpy calls) pays off from about 6 keys at n = 16
# (minimal4, tweakem4) and 16 at n = 8, where encrypt_block reads kept
# layouts (minimal4; ortho6 about 48); below that it costs a few us more.
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

    The halves and the layout's slots are plain ints, or numpy integer
    arrays when every f maps an array to an array: many blocks under one
    key or under a column of keys (a table lookup f), or one block under
    many keys (encrypt_many's map over query_many).  The chain only uses ^
    and f, and never writes into its operands: callers may pass one
    plaintext array to several chains.
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


def _layout(s, key) -> tuple:
    """The reference layout under key, kept in s.per_key for keys in
    [0, N).  Any other key is computed afresh each time, so it raises (or
    not) exactly as the reference does, and a failing layout is never
    kept.  A numpy integer scalar key is its int; an unhashable key is a
    numpy array of keys (`_key_columns`)."""
    memo = s.per_key
    try:
        layout = memo.get(key)
    except TypeError:
        return _key_columns(s, key)
    if layout is None:
        if type(key) is not int:
            key = _int_key(key)
        layout = _reference_layout(s, key)
        if 0 <= key < s.params.N:
            memo[key] = layout
    return layout


def _int_key(key) -> int:
    """key as an int: a numpy integer scalar is its int, anything else
    raises DomainError."""
    try:
        return operator.index(key)
    except TypeError:
        raise DomainError("a key is an int or a numpy integer array") from None


def _layout_columns(s, keys) -> list:
    """Slot i of the layout under every key in [0, N), as an int64 array
    of the keys' shape: 0 for a zero map, one gather of the keys from a
    field-cubic map's table (its compiled form is the table's __getitem__;
    the gather reads it through a uint16 view that copies nothing), and the
    compiled map across the keys otherwise.  keys is a list or an int64
    array."""
    import numpy as np  # on first use; `import kafw.cli` does not load it

    if isinstance(keys, list):
        column = np.fromiter(keys, np.int64, len(keys))
    else:
        column, keys = keys, None
    layout = []
    for f in s.compiled_slots:
        table = getattr(f, "__self__", None)
        if f is None:
            layout.append(0)
        elif isinstance(table, array):
            layout.append(np.frombuffer(table, np.uint16)[column].astype(np.int64))
        else:
            keys = column.ravel().tolist() if keys is None else keys
            layout.append(np.fromiter(map(f, keys), np.int64, column.size).reshape(column.shape))
    return layout


def _key_columns(s, keys) -> list:
    """The layout under a numpy integer array of keys, every one in [0, N)
    (else DomainError: nothing wraps), as `_layout_columns`.  Its input
    whitening slots are arrays even where the maps are zero, so a chain
    over them spans the broadcast of the keys and the block."""
    import numpy as np

    if not (isinstance(keys, np.ndarray) and keys.dtype.kind in "iu"):
        raise DomainError("a key is an int or a numpy integer array")
    if keys.size and not (0 <= keys.min() and keys.max() < s.params.N):
        raise DomainError("key out of range")
    layout = _layout_columns(s, keys.astype(np.int64, copy=False))
    layout[:2] = [np.zeros(keys.shape, np.int64) ^ w for w in layout[:2]]
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

    def __post_init__(self):
        if not isinstance(self.schedule, tuple(CONSTRUCTIONS.values())):
            raise ScheduleArityMismatch(f"no construction reads a {type(self.schedule).__name__}")
        t = self.schedule.t
        fs = tuple(self.round_functions)
        if len(fs) == 1 and t != 1:
            fs = fs * t
        self.round_functions = fs
        if len(fs) != t:
            raise ScheduleArityMismatch(f"{t} rounds but {len(fs)} round functions")

    # The block interface, so oracles can treat any instance as E_k.
    def encrypt_block(self, key, block, trace: list | None = None):
        """E_key(block); `trace` collects (x_i, y_i, (left, right)) per round.

        key is an int (a numpy integer scalar acts as one) or a numpy
        integer array of keys in [0, N), which broadcasts against the
        block: a (K, 1) column of keys against a (1, W) row of words gives
        the (K, W) ciphertexts in one chain."""
        return self._block_op(key, block, False, trace)

    def decrypt_block(self, key, block):
        return self._block_op(key, block, True)

    def _block_op(self, key, block, inverse: bool, trace=None):
        """block is an int in [0, 2^2n) or a numpy int64 array of words:
        only >>, &, << and | touch it, and the array is never written into
        (nor checked)."""
        s = self.schedule
        n, mask = s.params.n, s.params.mask
        left = block >> n
        if isinstance(block, int) and not 0 <= left <= mask:
            raise DomainError("block out of range")
        left, right = _chain(self.round_functions, _layout(s, key), s.key_into_f, left, block & mask, inverse, trace)
        return (left << n) | right

    def encrypt_many(self, keys: list[int], block: int, inputs: list | None = None, wanted: set | None = None) -> list:
        """[self.encrypt_block(key, block) for key in keys].

        That loop is the spec.  With at least BATCH_MIN keys, all in
        [0, N), over order-free round functions, `_chain` runs once over
        all keys instead, on numpy int64 columns, each round one
        query_many, with the same results.  Layout slot i is 0 for a zero
        map, one gather of the keys from the table of a field-cubic map at
        n <= MAX_EXHAUSTIVE_N, and otherwise its compiled map's column over
        the keys (`_layout_columns`).  Any other call runs the loop, so a
        key outside [0, N) raises as the reference layout does.  `inputs`,
        on either path, receives one list per round of that round's f
        inputs across the keys; the birthday attack charges its f budget
        from them.  With `wanted`, a set of left halves, a key whose
        ciphertext's left half is not in it gets None instead: that half is
        fixed before the last round, so the column path never asks f for
        such a key's last round (its input is still recorded).
        """
        s = self.schedule
        n, count = s.params.n, len(keys)
        if keys and not 0 <= block >> n <= s.params.mask:
            raise DomainError("block out of range")
        if count >= BATCH_MIN and order_free(self.round_functions) and 0 <= min(keys) and max(keys) < s.params.N:
            cts = self._encrypt_columns(keys, block, inputs, wanted)
        elif inputs is None:
            cts = [self.encrypt_block(key, block) for key in keys]
        else:
            traces = [[] for _ in keys]
            cts = [self.encrypt_block(key, block, trace) for key, trace in zip(keys, traces)]
            inputs += ([x for x, _y, _after in rounds] for rounds in zip(*traces))
        return cts if wanted is None else [ct if ct >> n in wanted else None for ct in cts]

    def _encrypt_columns(self, keys: list[int], block: int, inputs, wanted) -> list[int]:
        """encrypt_many's column path; a key whose left half is not
        `wanted` gets a wrong right half."""
        import numpy as np  # on first use; `import kafw.cli` does not load it

        s, count = self.schedule, len(keys)
        t, n = s.t, s.params.n
        layout = _layout_columns(s, keys)

        def column(f, filtered: bool):
            def f_column(x):
                xs = x.tolist()
                if inputs is not None:
                    inputs.append(xs)
                if not filtered:
                    return np.fromiter(f.query_many(xs), np.int64, count)
                # x is R_{t-1} ^ (round key t if it goes into f); the left half out is R_{t-1} ^ layout[t + 2].
                outs = (x ^ layout[t + 2] ^ (layout[t + 1] if s.key_into_f else 0)).tolist()
                kept = list(compress(range(count), map(wanted.__contains__, outs)))
                y = np.zeros(count, np.int64)
                y[kept] = f.query_many([xs[j] for j in kept])
                return y

            return f_column

        fs = [column(f, i == t and wanted is not None) for i, f in enumerate(self.round_functions, 1)]
        halves = (np.full(count, block >> n, np.int64), np.full(count, block & s.params.mask, np.int64))
        left, right = _chain(fs, layout, s.key_into_f, *halves)
        return (left.view(np.uint64) << n | right.view(np.uint64)).tolist()
