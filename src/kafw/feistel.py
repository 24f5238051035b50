"""Feistel constructions: KAFw and its KAF/KAFv/Lucifer shufflings, plus a tweak wrapper.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

from .errors import ScheduleArityMismatch, TooFewRounds
from .gf2 import DomainParams
from .schedules import CONSTRUCTIONS, KafvSchedule, KeySchedule, LuciferSchedule, check_construction


class Block(NamedTuple):
    left: int
    right: int


def block_to_int(b: Block, n: int) -> int:
    return (b.left << n) | b.right


def block_from_int(w: int, n: int) -> Block:
    return Block(w >> n, w & ((1 << n) - 1))


RoundFunction = Callable[[int], int]


def psi_round(state: Block, round_key: int, f: RoundFunction) -> Block:
    """KAFw round map (reference for one round of the chain)."""
    return Block(state.right, state.left ^ f(round_key ^ state.right))


def psi_tilde_round(state: Block, round_key: int, f: RoundFunction) -> Block:
    """KAFv/Lucifer round map (key XORed after the round function)."""
    return Block(state.right, state.left ^ f(state.right) ^ round_key)


@dataclass
class TraceRecord:
    """Round-function inputs/outputs and states of one encryption."""

    pre_whitened: Block
    rounds: list[tuple[int, int, Block]]  # (x_i, y_i, state after round i)
    ciphertext: Block


def _chain(fs, layout: tuple, left: int, right: int, inverse=False, trace=None):
    """w_out ^ round_t o ... o round_1 (w_in ^ (left, right)) on plain ints.

    layout is (w_in, round keys, w_out, whether the keys go into f or after
    it).  The inverse runs the reversed rounds and swapped whitening between
    two half swaps; `trace` collects (x_i, y_i, state after round i).
    """
    w_in, keys, w_out, key_into_f = layout
    if inverse:
        fs, keys, w_in, w_out = fs[::-1], keys[::-1], w_out[::-1], w_in[::-1]
        left, right = right, left
    left ^= w_in[0]
    right ^= w_in[1]
    into, after = (keys, repeat(0)) if key_into_f else (repeat(0), keys)
    for f, k_in, k_out in zip(fs, into, after):
        x = k_in ^ right
        y = f(x)
        left, right = right, left ^ y ^ k_out
        if trace is not None:
            trace.append((x, y, Block(left, right)))
    left ^= w_out[0]
    right ^= w_out[1]
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
    schedule: KeySchedule | KafvSchedule | LuciferSchedule | None
    round_functions: Sequence[RoundFunction]
    construction: str = "kafw"
    # (layout function, key, layout) of the last Block-level free-function call.
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    # Block-level entry points so oracles can treat any instance as E_k.
    def encrypt_block(self, key: int, block: int) -> int:
        return self._block_op(key, block, False)

    def decrypt_block(self, key: int, block: int) -> int:
        return self._block_op(key, block, True)

    def _block_op(self, key: int, block: int, inverse: bool) -> int:
        # No kept layout here: the games ask for a new key on nearly every call.
        n = self.params.n
        layout = _LAYOUTS[CONSTRUCTIONS[self.construction]](self, key)
        left, right = _chain(self.round_functions, layout, block >> n, block & self.params.mask, inverse)
        return (left << n) | right


def _schedule(c: CipherInstance, kind: type):
    """c's schedule, checked to be a `kind` with one round key per round."""
    s = c.schedule
    if not isinstance(s, kind):
        raise ScheduleArityMismatch(f"this evaluation needs a {kind.__name__}")
    if s.t != c.rounds:
        raise ScheduleArityMismatch(f"schedule arity {s.t} != rounds {c.rounds}")
    return s


def _kafw_layout(c: CipherInstance, key: int) -> tuple:
    """wf0||wf1, gamma_1..gamma_t into f, wf2||wf3."""
    s = _schedule(c, KeySchedule)
    w_in = (s.whitening_key(0, key), s.whitening_key(1, key))
    # tuple() of a list: a generator expression costs encrypt_block 0.3 us more.
    keys = tuple([s.round_key(i, key) for i in range(1, c.rounds + 1)])
    return w_in, keys, (s.whitening_key(2, key), s.whitening_key(3, key)), True


def _kafv_layout(c: CipherInstance, key: int) -> tuple:
    """0||g*_0, g*_1..g*_t after f, g*_{t+1}||0."""
    s = _schedule(c, KafvSchedule)
    keys = tuple([s.subkey(i, key) for i in range(1, c.rounds + 1)])
    return (0, s.subkey(0, key)), keys, (s.subkey(c.rounds + 1, key), 0), False


def _lucifer_layout(c: CipherInstance, keys: Sequence[int]) -> tuple:
    """No whitening, explicit round keys k1..kt after f."""
    if len(keys) < 2:
        raise TooFewRounds("lucifer needs t >= 2")
    if len(keys) != c.rounds:
        raise ScheduleArityMismatch("one key per round required")
    return (0, 0), tuple(keys), (0, 0), False


def _lucifer_schedule_layout(c: CipherInstance, key: int) -> tuple:
    s = _schedule(c, LuciferSchedule)
    return _lucifer_layout(c, [s.round_key(i, key) for i in range(1, c.rounds + 1)])


# Schedule class -> the sub-key layout of its construction under one key.
_LAYOUTS = {
    KeySchedule: _kafw_layout,
    KafvSchedule: _kafv_layout,
    LuciferSchedule: _lucifer_schedule_layout,
}


def _kept_layout(c: CipherInstance, layout, key: int) -> tuple:
    """layout(c, key), reused from c's last call with the same layout and key.

    Keying on the layout function too means a kafw call on a KAFv instance
    still reaches `_schedule` and raises ScheduleArityMismatch.
    """
    kept = c._kept
    if kept is None or kept[0] is not layout or kept[1] != key:
        kept = c._kept = (layout, key, layout(c, key))
    return kept[2]


def kafw_encrypt(c: CipherInstance, key: int, plaintext: Block) -> Block:
    """wk_out ^ (round t) o ... o (round 1) (wk_in ^ plaintext).

    Like every Block-level free function taking a master key, it reuses the
    sub-key layout that `c` keeps from the previous call while the key (and
    the construction) repeats, so a sweep over all blocks under one key
    evaluates the schedule once.  `CipherInstance.encrypt_block` keeps none:
    the games ask for a new key on nearly every call.
    """
    return Block(*_chain(c.round_functions, _kept_layout(c, _kafw_layout, key), *plaintext))


def kafw_decrypt(c: CipherInstance, key: int, ciphertext: Block) -> Block:
    return Block(*_chain(c.round_functions, _kept_layout(c, _kafw_layout, key), *ciphertext, True))


def kafw_encrypt_traced(c: CipherInstance, key: int, plaintext: Block) -> TraceRecord:
    layout = _kept_layout(c, _kafw_layout, key)
    w_in = layout[0]
    trace = TraceRecord(Block(plaintext.left ^ w_in[0], plaintext.right ^ w_in[1]), [], plaintext)
    trace.ciphertext = Block(*_chain(c.round_functions, layout, *plaintext, False, trace.rounds))
    return trace


def replay_trace(c: CipherInstance, key: int, plaintext: Block, trace: TraceRecord) -> Block:
    """Recompute the ciphertext from recorded y values, without round functions."""
    recorded = iter(trace.rounds)

    def recorded_y(x: int) -> int:
        x_i, y_i, _after = next(recorded)
        assert x == x_i, "trace inconsistent with schedule"
        return y_i

    return Block(*_chain(repeat(recorded_y), _kept_layout(c, _kafw_layout, key), *plaintext))


def kafv_encrypt(c: CipherInstance, key: int, plaintext: Block) -> Block:
    """(g*_{t+1}||0) ^ rounds(... (0||g*_0) ^ plaintext)."""
    return Block(*_chain(c.round_functions, _kept_layout(c, _kafv_layout, key), *plaintext))


def kafv_decrypt(c: CipherInstance, key: int, ciphertext: Block) -> Block:
    return Block(*_chain(c.round_functions, _kept_layout(c, _kafv_layout, key), *ciphertext, True))


def lucifer_encrypt(c: CipherInstance, keys: Sequence[int], plaintext: Block) -> Block:
    """Chain of key-after-function rounds under explicit round keys k1..kt."""
    return Block(*_chain(c.round_functions, _lucifer_layout(c, keys), *plaintext))


def lucifer_decrypt(c: CipherInstance, keys: Sequence[int], ciphertext: Block) -> Block:
    return Block(*_chain(c.round_functions, _lucifer_layout(c, keys), *ciphertext, True))


def tweakable_encrypt(c: CipherInstance, key: int, tweak: int, plaintext: Block) -> Block:
    """Tweak folded into the key: E_{key ^ tweak}(plaintext)."""
    return kafw_encrypt(c, key ^ tweak, plaintext)


def tweakable_decrypt(c: CipherInstance, key: int, tweak: int, ciphertext: Block) -> Block:
    return kafw_decrypt(c, key ^ tweak, ciphertext)
