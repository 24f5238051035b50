"""Related-key distinguishers against affine-schedule constructions.

Every attack consumes a RelatedKeyOracle and returns a single bit (1 =
"this is the construction").  The boomerang family exploits that one
round with an affine schedule carries a probability-1 related-key
differential: under key offset d, a state difference (M_{i+1}.d, M_i.d)
entering round i makes the round-function inputs collide, so the round
deterministically emits (M_i.d, M_{i+1}.d).  Chaining two such rounds
down from the plaintext and two up from the ciphertext closes a quartet
of four related-key queries whose final XOR is predictable; against an
ideal cipher, with both block shifts nonzero, the closing equality holds
with probability exactly 2/N^2: 1/N^2 from the two forward answers meeting
the ciphertext shift, and (1 - 1/N^2)/(N^2 - 1) from the two backward ones.

The complementation attacks push the same differential through every
round at once, which needs all odd-round matrices to agree on the offset
(and likewise the even ones); two queries then suffice.  The birthday
attack is schedule-agnostic: it trades q_e related-key queries against
q_g offline key guesses and wins once some guess hits k ^ offset.

The constants an attack derives from its schedule alone are kept: the
affine forms and the weak offset in the schedule's `memo`, the block
shifts of an offset where its `per_key` says.  So repeated trials over one
schedule compute them once; every trial still makes all of its queries.
A precondition that fails keeps nothing, and raises again on the next call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

from .errors import ArityMismatch, DomainError, NoWeakDelta, TooFewRounds
from .feistel import CipherInstance
from .gf2 import BinMatrix, joint_kernel_basis, mat_vec
from .oracles import CountedFunction, RelatedKeyOracle, order_free
from .schedules import KeySchedule, _sample_range


def _pack(left: int, right: int, n: int) -> int:
    return (left << n) | right


@dataclass(frozen=True)
class BoomerangParams:
    """Derived offsets of one quartet: key offset and the four block shifts."""

    delta: int
    nabla1: int
    nabla2: int
    nabla3: int
    nabla4: int
    base_left: int = 0
    base_right: int = 0


@dataclass
class AttackOutcome:
    """Result of one attack run plus its measured query usage."""

    bit: int
    q_e_used: int
    q_f_used: int


def _affine_forms(s: KeySchedule):
    """(wf matrices, gamma matrices 1-indexed) or NotAffine; kept in s.memo."""
    forms = s.memo.get("affine forms")
    if forms is None:
        wf = tuple(s.wf_matrix(j) for j in range(4))
        gammas = tuple(s.gamma_matrix(i) for i in range(1, s.t + 1))
        forms = s.memo["affine forms"] = wf, gammas
    return forms


def weak_delta(matrices: Sequence[BinMatrix]) -> int:
    """Smallest nonzero vector of the joint kernel basis; deterministic choice."""
    basis = joint_kernel_basis(matrices)
    if not basis:
        raise NoWeakDelta("the matrix-difference condition has only the trivial solution")
    return min(basis)


def _weak_offset(s: KeySchedule, name, constraints: Callable[[], list[BinMatrix]]) -> int:
    """weak_delta(constraints()), kept in s.memo under `name`; NoWeakDelta keeps nothing."""
    delta = s.memo.get(name)
    if delta is None:
        delta = s.memo[name] = weak_delta(constraints())
    return delta


def _quartet_params(s: KeySchedule, wf, g, delta: int, left: int, right: int) -> BoomerangParams:
    """Shifts of a quartet over t = len(g) rounds, t = 4 or 5.

    (nabla1, nabla2) starts the probability-1 trail down rounds 1-2, and
    nabla3 = (gamma_t ^ wf2).d, nabla4 = (gamma_{t-1} ^ wf3).d start the one
    up rounds t, t-1.  The four shifts are kept per offset, where
    s.per_key says; each (A ^ B).d is taken as A.d ^ B.d, without
    building A ^ B.
    """
    memo = s.per_key
    shifts = memo.get(("nablas", delta))
    if shifts is None:
        shifts = memo[("nablas", delta)] = (
            mat_vec(wf[0], delta) ^ mat_vec(g[1], delta),
            mat_vec(wf[1], delta) ^ mat_vec(g[0], delta),
            mat_vec(g[-1], delta) ^ mat_vec(wf[2], delta),
            mat_vec(g[-2], delta) ^ mat_vec(wf[3], delta),
        )
    return BoomerangParams(delta, *shifts, left, right)


def quartet_params_4round(
    s: KeySchedule, delta: int, left: int = 0, right: int = 0
) -> BoomerangParams:
    """Shifts for the 4-round boomerang: two probability-1 two-round trails."""
    wf, g = _affine_forms(s)
    if s.t != 4:
        raise ArityMismatch("the 4-round boomerang needs t = 4")
    return _quartet_params(s, wf, g, delta, left, right)


def run_quartet(rk: RelatedKeyOracle, n: int, bp: BoomerangParams) -> int:
    """Four related-key queries; 1 iff the returning pair differs by (nabla1, nabla2)."""
    mask = (1 << n) - 1
    ct0 = rk.encrypt(0, _pack(bp.base_left, bp.base_right, n))
    ct1 = rk.encrypt(
        bp.delta, _pack(bp.base_left ^ bp.nabla1, bp.base_right ^ bp.nabla2, n)
    )
    back0 = rk.decrypt(bp.delta, _pack((ct0 >> n) ^ bp.nabla3, (ct0 & mask) ^ bp.nabla4, n))
    back1 = rk.decrypt(0, _pack((ct1 >> n) ^ bp.nabla3, (ct1 & mask) ^ bp.nabla4, n))
    return 1 if back0 ^ back1 == _pack(bp.nabla1, bp.nabla2, n) else 0


def four_round_boomerang(
    rk: RelatedKeyOracle, s: KeySchedule, delta: int, left: int = 0, right: int = 0
) -> int:
    """(0,4)-distinguisher against any 4-round affine schedule; real-world output
    is 1 for every key, function tuple, base plaintext, and nonzero offset."""
    if delta == 0:
        raise DomainError("the key offset must be nonzero")
    return run_quartet(rk, s.params.n, quartet_params_4round(s, delta, left, right))


_FIVE_ROUND_NAMES = {5: "the switch boomerang", 3: "this boomerang"}


def _five_round_boomerang(
    rk: RelatedKeyOracle, s: KeySchedule, partner: int, delta: int | None, left: int, right: int
) -> int:
    """5-round quartet on an offset with M1.d = M{partner}.d (partner 5 or 3)."""
    wf, g = _affine_forms(s)
    if s.t != 5:
        raise ArityMismatch(f"{_FIVE_ROUND_NAMES[partner]} needs t = 5")
    if delta is None:
        delta = _weak_offset(s, ("weak", partner), lambda: [g[0] ^ g[partner - 1]])
    elif delta == 0 or mat_vec(g[0] ^ g[partner - 1], delta) != 0:
        raise NoWeakDelta(f"offset does not satisfy M1.d = M{partner}.d")
    return run_quartet(rk, s.params.n, _quartet_params(s, wf, g, delta, left, right))


def five_round_boomerang_switch(
    rk: RelatedKeyOracle,
    s: KeySchedule,
    delta: int | None = None,
    left: int = 0,
    right: int = 0,
) -> int:
    """5-round boomerang: the middle round is switched for free when the offset
    satisfies M1.d = M5.d, so the bottom trail covers rounds 4-5."""
    return _five_round_boomerang(rk, s, 5, delta, left, right)


def five_round_complementation_boomerang(
    rk: RelatedKeyOracle,
    s: KeySchedule,
    delta: int | None = None,
    left: int = 0,
    right: int = 0,
) -> int:
    """5-round quartet for schedules with M1.d = M3.d: the probability-1 top
    trail then extends through round 3, and the bottom trail covers rounds 4-5
    exactly as in the switch variant."""
    return _five_round_boomerang(rk, s, 3, delta, left, right)


def quartet_probe(
    rk: RelatedKeyOracle, s: KeySchedule, delta: int, left: int = 0, right: int = 0
) -> int:
    """Boomerang-shaped null probe: the quartet with all block shifts zero.

    Structurally valid against any schedule; closes only by accident unless
    the schedule leaks a degenerate differential.
    """
    return run_quartet(rk, s.params.n, BoomerangParams(delta, 0, 0, 0, 0, left, right))


def any_round_differential(
    rk: RelatedKeyOracle,
    s: KeySchedule,
    delta: int | None = None,
    left: int = 0,
    right: int = 0,
) -> int:
    """Two-query complementation distinguisher for any round count t >= 2.

    Needs an offset on which all odd-round matrices agree and all
    even-round matrices agree; the input shift (nabla1, nabla2) then rides
    the alternating differential through every round, and the output
    difference is fully determined (swapping halves once per round, with
    the output whitening masks applied position-wise).
    """
    t = s.t
    if t < 2:
        raise TooFewRounds("the differential needs t >= 2")
    wf, g = _affine_forms(s)
    n = s.params.n

    def constraints():  # M1 vs M3, M5, ..., then M2 vs M4, M6, ...
        return [g[0] ^ g[j] for j in range(2, t, 2)] + [g[1] ^ g[j] for j in range(3, t, 2)]

    if delta is None:
        # t = 2 has no constraint: every nonzero offset works.
        delta = _weak_offset(s, ("weak", "any-round"), constraints) if t > 2 else 1
    elif delta == 0 or any(mat_vec(c, delta) != 0 for c in constraints()):
        raise NoWeakDelta("offset does not satisfy the common-difference conditions")
    memo = s.per_key
    shifts = memo.get(("any-round", delta))
    if shifts is None:
        d1 = mat_vec(g[0], delta)
        d2 = mat_vec(g[1], delta)
        # State difference after round i alternates (d1, d2), (d2, d1), ...
        sl, sr = (d2, d1) if t % 2 == 0 else (d1, d2)
        shifts = memo[("any-round", delta)] = (
            mat_vec(wf[0] ^ g[1], delta),
            mat_vec(wf[1] ^ g[0], delta),
            _pack(sl ^ mat_vec(wf[2], delta), sr ^ mat_vec(wf[3], delta), n),
        )
    nabla1, nabla2, expect = shifts
    out0 = rk.encrypt(0, _pack(left, right, n))
    out1 = rk.encrypt(delta, _pack(left ^ nabla1, right ^ nabla2, n))
    return 1 if out0 ^ out1 == expect else 0


def _uncounted(fs):
    """(the oracles behind fs, the FunctionBudget metering them), or None
    unless fs are CountedFunctions sharing one budget over order-free
    oracles."""
    if not all(isinstance(f, CountedFunction) for f in fs):
        return None
    budget = fs[0].budget
    if any(f.budget is not budget for f in fs) or not order_free(f.oracle for f in fs):
        return None
    return tuple(f.oracle for f in fs), budget


def birthday_collision_attack(
    rk: RelatedKeyOracle,
    fs: Sequence[Callable[[int], int]],
    schedule,
    q_e: int,
    q_g: int,
    rng,
) -> int:
    """Collide secret related keys with offline key guesses.

    Queries the related-key oracle at q_e distinct offsets on one fixed
    plaintext, evaluates the schedule's construction under q_g guessed keys
    offline through the public round-function interface, and on a
    ciphertext match confirms the candidate on a second plaintext (one
    extra oracle query).
    The probe plaintext is 0 and the confirming one 1.
    Success against the construction approaches 1 - exp(-q_e*q_g/N); an
    ideal cipher only passes the confirmation by accident.  Offsets and
    guesses are `_sample_range`'s, which are rng.sample's.

    The spec is the scalar loop: guess by guess, encrypt through fs, stop
    at the first confirmed guess.  It is what runs unless fs have an
    uncounted view (CountedFunctions sharing one budget over order-free
    random functions) and every guess lies in [0, N).  With a view, the
    guesses go in chunks of ceil(N / q_e) (N when q_e = 0), the expected
    gap between hits, through `encrypt_many` on the oracles behind fs,
    which charges no budget and records every round's inputs.  A guess
    whose ciphertext left half no probe has seen cannot match, so the
    chunk may skip its last round's f (`wanted`).  The budget is then
    charged in scalar order, from those inputs, for the guesses the loop
    would have evaluated: up to each candidate, whose confirmation runs
    through fs as before, and to the end of a chunk without a confirmed
    hit.  So the bit, q_e and q_f (and the query at which a budget runs
    out) are those of the scalar loop.
    """
    N = schedule.params.N
    if not (0 <= q_e <= N and 0 <= q_g <= N):
        raise DomainError(f"q_e = {q_e} and q_g = {q_g} must lie in [0, {N}]")
    offline = CipherInstance(schedule, tuple(fs))
    w1, w2 = 0, 1
    offsets = _sample_range(rng, N, q_e)
    guesses = _sample_range(rng, N, q_g)
    seen = dict(zip(rk.encrypt_many(offsets, w1), offsets))
    confirm_cache: dict[int, int] = {}

    def confirmed(guess: int, off: int) -> bool:
        if off not in confirm_cache:
            confirm_cache[off] = rk.encrypt(off, w2)
        return confirm_cache[off] == offline.encrypt_block(guess, w2)

    view = _uncounted(fs) if guesses and 0 <= min(guesses) and max(guesses) < N else None
    if view is None:
        for guess in guesses:
            off = seen.get(offline.encrypt_block(guess, w1))
            if off is not None and confirmed(guess, off):
                return 1
        return 0
    uncounted, budget = CipherInstance(schedule, view[0]), view[1]
    indices = [f.index for f in offline.round_functions]
    wanted = set(map(schedule.params.n.__rrshift__, seen))  # a guess can match only with one of these left halves
    step = -(-N // q_e) if q_e else N
    for start in range(0, len(guesses), step):
        chunk = guesses[start : start + step]
        inputs: list[list[int]] = []
        cts = uncounted.encrypt_many(chunk, w1, inputs, wanted)
        charged = 0  # chunk[:charged] is charged, as the loop through fs would spend it
        for j in compress(range(len(cts)), map(seen.__contains__, cts)):
            budget.spend_many(indices, [x[charged : j + 1] for x in inputs])
            charged = j + 1
            if confirmed(chunk[j], seen[cts[j]]):
                return 1
        if charged < len(chunk):
            budget.spend_many(indices, [x[charged:] for x in inputs] if charged else inputs)
    return 0
