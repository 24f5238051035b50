"""Feistel constructions: KAFw and its KAF/KAFv/Lucifer shufflings, plus a tweak wrapper.

State is a pair of n-bit halves.  One KAFw round is

    (L, R)  ->  (R, L ^ f(round_key ^ R))

with the round key XORed into the function input; the KAFv/Lucifer round
XORs the key into the output instead:

    (L, R)  ->  (R, L ^ f(R) ^ round_key)

KAFw adds input whitening wf0(k)||wf1(k) and output whitening
wf2(k)||wf3(k); KAF is KAFw with zero whitening; a t-round KAFv uses t+2
sub-keys, 0||g*_0 before and g*_{t+1}||0 after its rounds.  Decryption
only ever evaluates round functions forward, so non-invertible functions
still give permutations of the full 2n-bit block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import ScheduleArityMismatch, TooFewRounds
from .gf2 import DomainParams
from .schedules import CONSTRUCTIONS, KafvSchedule, KeySchedule, LuciferSchedule


class Block(NamedTuple):
    left: int
    right: int


def block_to_int(b: Block, n: int) -> int:
    return (b.left << n) | b.right


def block_from_int(w: int, n: int) -> Block:
    return Block(w >> n, w & ((1 << n) - 1))


RoundFunction = Callable[[int], int]


def psi_round(state: Block, round_key: int, f: RoundFunction) -> Block:
    """KAFw round map."""
    return Block(state.right, state.left ^ f(round_key ^ state.right))


def psi_round_inverse(state: Block, round_key: int, f: RoundFunction) -> Block:
    return Block(state.right ^ f(round_key ^ state.left), state.left)


def psi_tilde_round(state: Block, round_key: int, f: RoundFunction) -> Block:
    """KAFv/Lucifer round map (key XORed after the round function)."""
    return Block(state.right, state.left ^ f(state.right) ^ round_key)


def psi_tilde_round_inverse(state: Block, round_key: int, f: RoundFunction) -> Block:
    return Block(state.right ^ f(state.left) ^ round_key, state.left)


@dataclass
class TraceRecord:
    """Round-function inputs/outputs and states of one encryption."""

    pre_whitened: Block
    rounds: list[tuple[int, int, Block]]  # (x_i, y_i, state after round i)
    ciphertext: Block


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

    def __post_init__(self):
        fs = tuple(self.round_functions)
        if len(fs) == 1 and self.rounds != 1:
            fs = fs * self.rounds
        self.round_functions = fs
        if len(fs) != self.rounds:
            raise ScheduleArityMismatch(
                f"{self.rounds} rounds but {len(fs)} round functions"
            )
        kind = CONSTRUCTIONS.get(self.construction)
        if kind is None:
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.schedule is None:
            return  # explicit-key use (lucifer with literal round keys)
        if not isinstance(self.schedule, kind):
            raise ScheduleArityMismatch(
                f"construction {self.construction!r} needs a {kind.__name__}"
            )
        if self.schedule.t != self.rounds:
            raise ScheduleArityMismatch(
                f"schedule arity {self.schedule.t} != rounds {self.rounds}"
            )
        if self.construction == "kaf" and not self.schedule.has_zero_whitening():
            raise ScheduleArityMismatch("KAF requires a zero-whitening schedule")

    # Block-level entry points so oracles can treat any instance as E_k.
    def encrypt_block(self, key: int, block: int) -> int:
        return self._block_op(key, block, kafw_encrypt, kafv_encrypt, lucifer_encrypt)

    def decrypt_block(self, key: int, block: int) -> int:
        return self._block_op(key, block, kafw_decrypt, kafv_decrypt, lucifer_decrypt)

    def _block_op(self, key, block, kafw_op, kafv_op, lucifer_op) -> int:
        n = self.params.n
        state = block_from_int(block, n)
        kind = CONSTRUCTIONS[self.construction]
        if kind is KeySchedule:
            out = kafw_op(self, key, state)
        elif kind is KafvSchedule:
            out = kafv_op(self, key, state)
        else:
            keys = [self.schedule.round_key(i, key) for i in range(1, self.rounds + 1)]
            out = lucifer_op(self, keys, state)
        return block_to_int(out, n)


def _schedule(c: CipherInstance, kind: type):
    """c's schedule, checked to be a `kind` with one round key per round."""
    s = c.schedule
    if not isinstance(s, kind):
        raise ScheduleArityMismatch(f"this evaluation needs a {kind.__name__}")
    if s.t != c.rounds:
        raise ScheduleArityMismatch(f"schedule arity {s.t} != rounds {c.rounds}")
    return s


def kafw_encrypt(
    c: CipherInstance, key: int, plaintext: Block, trace: TraceRecord | None = None
) -> Block:
    """wk_out ^ (round t) o ... o (round 1) (wk_in ^ plaintext)."""
    s = _schedule(c, KeySchedule)
    state = Block(
        plaintext.left ^ s.whitening_key(0, key),
        plaintext.right ^ s.whitening_key(1, key),
    )
    if trace is not None:
        trace.pre_whitened = state
    for i in range(1, c.rounds + 1):
        x = s.round_key(i, key) ^ state.right
        y = c.round_functions[i - 1](x)
        state = Block(state.right, state.left ^ y)
        if trace is not None:
            trace.rounds.append((x, y, state))
    out = Block(
        state.left ^ s.whitening_key(2, key),
        state.right ^ s.whitening_key(3, key),
    )
    if trace is not None:
        trace.ciphertext = out
    return out


def kafw_decrypt(c: CipherInstance, key: int, ciphertext: Block) -> Block:
    s = _schedule(c, KeySchedule)
    state = Block(
        ciphertext.left ^ s.whitening_key(2, key),
        ciphertext.right ^ s.whitening_key(3, key),
    )
    for i in range(c.rounds, 0, -1):
        state = psi_round_inverse(state, s.round_key(i, key), c.round_functions[i - 1])
    return Block(
        state.left ^ s.whitening_key(0, key),
        state.right ^ s.whitening_key(1, key),
    )


def kafw_encrypt_traced(c: CipherInstance, key: int, plaintext: Block) -> TraceRecord:
    trace = TraceRecord(plaintext, [], plaintext)
    kafw_encrypt(c, key, plaintext, trace)
    return trace


def replay_trace(c: CipherInstance, key: int, plaintext: Block, trace: TraceRecord) -> Block:
    """Recompute the ciphertext from recorded y values, without round functions."""
    s = _schedule(c, KeySchedule)
    state = Block(
        plaintext.left ^ s.whitening_key(0, key),
        plaintext.right ^ s.whitening_key(1, key),
    )
    for i, (x, y, _after) in enumerate(trace.rounds, start=1):
        assert x == s.round_key(i, key) ^ state.right, "trace inconsistent with schedule"
        state = Block(state.right, state.left ^ y)
    return Block(
        state.left ^ s.whitening_key(2, key),
        state.right ^ s.whitening_key(3, key),
    )


def kaf_encrypt(c: CipherInstance, key: int, plaintext: Block) -> Block:
    """KAFw with zero whitening."""
    s = _schedule(c, KeySchedule)
    if not s.has_zero_whitening():
        raise ScheduleArityMismatch("KAF requires a zero-whitening schedule")
    return kafw_encrypt(c, key, plaintext)


def kaf_decrypt(c: CipherInstance, key: int, ciphertext: Block) -> Block:
    s = _schedule(c, KeySchedule)
    if not s.has_zero_whitening():
        raise ScheduleArityMismatch("KAF requires a zero-whitening schedule")
    return kafw_decrypt(c, key, ciphertext)


def kafv_encrypt(c: CipherInstance, key: int, plaintext: Block) -> Block:
    """(g*_{t+1}||0) ^ rounds(... (0||g*_0) ^ plaintext)."""
    s = _schedule(c, KafvSchedule)
    state = Block(plaintext.left, plaintext.right ^ s.subkey(0, key))
    for i in range(1, c.rounds + 1):
        state = psi_tilde_round(state, s.subkey(i, key), c.round_functions[i - 1])
    return Block(state.left ^ s.subkey(c.rounds + 1, key), state.right)


def kafv_decrypt(c: CipherInstance, key: int, ciphertext: Block) -> Block:
    s = _schedule(c, KafvSchedule)
    state = Block(ciphertext.left ^ s.subkey(c.rounds + 1, key), ciphertext.right)
    for i in range(c.rounds, 0, -1):
        state = psi_tilde_round_inverse(state, s.subkey(i, key), c.round_functions[i - 1])
    return Block(state.left, state.right ^ s.subkey(0, key))


def lucifer_encrypt(c: CipherInstance, keys: Sequence[int], plaintext: Block) -> Block:
    """Chain of key-after-function rounds under explicit round keys k1..kt."""
    if len(keys) < 2:
        raise TooFewRounds("lucifer needs t >= 2")
    if len(keys) != c.rounds:
        raise ScheduleArityMismatch("one key per round required")
    state = plaintext
    for i, k in enumerate(keys):
        state = psi_tilde_round(state, k, c.round_functions[i])
    return state


def lucifer_decrypt(c: CipherInstance, keys: Sequence[int], ciphertext: Block) -> Block:
    if len(keys) < 2:
        raise TooFewRounds("lucifer needs t >= 2")
    if len(keys) != c.rounds:
        raise ScheduleArityMismatch("one key per round required")
    state = ciphertext
    for i in range(len(keys) - 1, -1, -1):
        state = psi_tilde_round_inverse(state, keys[i], c.round_functions[i])
    return state


def tweakable_encrypt(c: CipherInstance, key: int, tweak: int, plaintext: Block) -> Block:
    """Tweak folded into the key: E_{key ^ tweak}(plaintext)."""
    return kafw_encrypt(c, key ^ tweak, plaintext)


def tweakable_decrypt(c: CipherInstance, key: int, tweak: int, ciphertext: Block) -> Block:
    return kafw_decrypt(c, key ^ tweak, ciphertext)
