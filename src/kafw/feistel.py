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
`encrypt_block`/`decrypt_block(key, block)` are the one block interface,
E_key on 2n-bit blocks, and they take ints only: a key is an int, a block
a 2n-bit word in [0, 2^2n), left half high, and a numpy integer scalar
acts as its int.  Anything else, a numpy array, bool, float or list among
them, raises DomainError before any f is asked, whatever the round
functions are.  A tweak is folded into the key:
encrypt_block(key ^ tweak, block).

An int key's layout is computed once and kept where the schedule's
`per_key` says, so every instance over that schedule reads it from then
on.

`CipherInstance.encrypt_many` encrypts one block under many keys and alone
decides how: for enough int keys in [0, N) and an int block, over
order-free random functions, it runs the same chain once across the keys,
on `_key_columns`' layout, one batched f query per round; otherwise it is
the loop over `encrypt_block`, which stays the spec.  Either way it can
record every round's f inputs.  The equivalence sweeps, whose round
functions are table lookups, chain rows of halves under one key or a
column of keys through `_sweep_chain`.  `_chain` is the one multi-round
loop, for one block or many, under one key or many.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Sequence

from .errors import DomainError, ScheduleArityMismatch
from .oracles import as_int, order_free
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

    The halves and the layout's slots are plain ints, or numpy int64
    arrays when every f maps an array to an array: rows of halves under
    one key or a column of keys (`_sweep_chain` over table lookups), or one
    block under many keys (encrypt_many's map over query_many).  The chain
    only uses ^ and f, and never writes into its operands: callers may
    pass one row of halves to several chains.
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
    """The reference layout under an int key, kept in s.per_key for keys in
    [0, N); any other int is computed afresh each time, so it raises (or
    not) exactly as the reference does, and a failing layout is never kept.
    The key's type is tested before the memo is read: a numpy integer
    scalar acts as its int, and anything else (5.0, True, an array) raises
    DomainError, whatever the memo holds."""
    key = key if type(key) is int else as_int(key, "a key")
    memo = s.per_key
    layout = memo.get(key)
    if layout is None:
        layout = _reference_layout(s, key)
        if 0 <= key < s.params.N:
            memo[key] = layout
    return layout


def _key_columns(s, keys) -> list:
    """The layout under an int64 array of keys in [0, N), unchecked: each
    slot's `values` over the keys, an int64 array of their shape or the int
    0 for a zero map.  The input whitening slots are arrays even where the
    maps are zero, so a chain over them spans the broadcast of the keys and
    the block, whose halves may be ints."""
    import numpy as np

    layout = [m.values(keys, s.params) for m in s.slots]
    layout[:2] = [np.zeros(keys.shape, np.int64) ^ w for w in layout[:2]]
    return layout


def _sweep_chain(instance, keys, left, right) -> tuple:
    """The equivalence sweeps' encryption: halves (left, right), (1, W)
    int64 rows, under one int key (`_layout`) or an int64 (K, 1) column of
    keys in [0, N) (`_key_columns`, unchecked), over round functions that
    map arrays to arrays.  Returns the output halves, (1, W) or (K, W)."""
    s = instance.schedule
    layout = _layout(s, keys) if type(keys) is int else _key_columns(s, keys)
    return _chain(instance.round_functions, layout, s.key_into_f, left, right)


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
    def encrypt_block(self, key: int, block: int, trace: list | None = None) -> int:
        """E_key(block); `trace` collects (x_i, y_i, (left, right)) per round."""
        return self._block_op(key, block, False, trace)

    def decrypt_block(self, key: int, block: int) -> int:
        return self._block_op(key, block, True)

    def _block_op(self, key, block, inverse: bool, trace=None) -> int:
        """The block rule, then the chain: a block is an int in [0, 2^2n) or
        a numpy integer scalar acting as its int, and anything else raises
        DomainError before any f query, as a key does that breaks `_layout`'s
        key rule."""
        s = self.schedule
        n, mask = s.params.n, s.params.mask
        block = block if type(block) is int else as_int(block, "a block")
        if not 0 <= block >> n <= mask:
            raise DomainError("block out of range")
        left, right = _chain(self.round_functions, _layout(s, key), s.key_into_f, block >> n, block & mask,
                             inverse, trace)
        return (left << n) | right

    def encrypt_many(self, keys: list[int], block: int, inputs: list | None = None, wanted: set | None = None) -> list:
        """[self.encrypt_block(key, block) for key in keys].

        That loop is the spec, and the rules and errors are its own: a bad
        block raises at the first key, and a bad key where the loop reaches
        it, after the same f queries.  With at least BATCH_MIN keys, all
        ints in [0, N), and an int block in range, over order-free round
        functions, `_chain` runs once across the keys instead, on the
        `_key_columns` layout of their int64 column with the block's halves
        as ints, each round one query_many, with the same results.
        `inputs`, on either path, receives one list per round of that
        round's f inputs across the keys; the birthday attack charges its f
        budget from them.  With `wanted`, a set of left halves, a key whose
        ciphertext's left half is not in it gets None instead: that half is
        fixed before the last round, so the column path never asks f for
        such a key's last round (its input is still recorded).
        """
        p = self.schedule.params
        if (len(keys) >= BATCH_MIN and type(block) is int and 0 <= block >> p.n <= p.mask
                and order_free(self.round_functions) and set(map(type, keys)) == {int}
                and 0 <= min(keys) and max(keys) < p.N):
            cts = self._encrypt_columns(keys, block, inputs, wanted)
        elif inputs is None:
            cts = [self.encrypt_block(key, block) for key in keys]
        else:
            traces = [[] for _ in keys]
            cts = [self.encrypt_block(key, block, trace) for key, trace in zip(keys, traces)]
            inputs += ([x for x, _y, _after in rounds] for rounds in zip(*traces))
        return cts if wanted is None else [ct if ct >> p.n in wanted else None for ct in cts]

    def _encrypt_columns(self, keys: list[int], block: int, inputs, wanted) -> list[int]:
        """encrypt_many's column path; a key whose left half is not
        `wanted` gets a wrong right half."""
        import numpy as np  # on first use; `import kafw.cli` does not load it

        s, count = self.schedule, len(keys)
        t, n = s.t, s.params.n
        layout = _key_columns(s, np.fromiter(keys, np.int64, count))

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
        left, right = _chain(fs, layout, s.key_into_f, block >> n, block & s.params.mask)
        return (left.view(np.uint64) << n | right.view(np.uint64)).tolist()
