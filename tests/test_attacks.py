"""Distinguisher behavior: probability-1 wins, query budgets, precondition errors."""

import dataclasses
import random

import pytest

from kafw import game
from kafw.attacks import (
    any_round_differential,
    birthday_collision_attack,
    five_round_boomerang_switch,
    five_round_complementation_boomerang,
    four_round_boomerang,
    quartet_params_4round,
    weak_delta,
)
from kafw.errors import ArityMismatch, DomainError, NoWeakDelta, NotAffine, TooFewRounds
from kafw.feistel import CipherInstance
from kafw.game import ConstructionSpec, WorldSpec
from kafw.gf2 import BinMatrix, DomainParams, gf_mul, mat_vec
from kafw.oracles import IdealCipherOracle, RandomFunctionOracle, RelatedKeyOracle, derive_seed
from kafw.schedules import (
    AffineSubkey,
    KeySchedule,
    ZeroMap,
    builtin,
    identity_map,
    random_affine,
)

P8 = DomainParams.for_width(8)
Z = ZeroMap()


def real_oracle(spec_schedule, rounds, key, seed):
    fs = tuple(RandomFunctionOracle(8, derive_seed(seed, "f", i)) for i in range(rounds))
    inst = CipherInstance(spec_schedule, fs)
    return RelatedKeyOracle(key, inst, 8), fs


def mul_matrix(p, c):
    """Matrix of y -> c (x) y; row i bit j = bit i of c (x) (1 << j)."""
    cols = [gf_mul(c, 1 << j, p) for j in range(p.n)]
    rows = tuple(
        sum(((cols[j] >> i) & 1) << j for j in range(p.n)) for i in range(p.n)
    )
    return BinMatrix(rows)


def test_boomerang4_always_wins_on_randomized_instances():
    # Probability-1 claim, exercised as an exact universal at 1000 sampled
    # (schedule, functions, key, plaintext, offset) tuples.
    rng = random.Random(2024)
    for trial in range(1000):
        s = random_affine(P8, 4, rng)
        rk, _ = real_oracle(s, 4, rng.randrange(256), trial)
        delta = rng.randrange(1, 256)
        bit = four_round_boomerang(rk, s, delta, rng.randrange(256), rng.randrange(256))
        assert bit == 1
        assert rk.query_count == 4


def test_boomerang4_rejects_zero_offset_and_nonaffine():
    s = random_affine(P8, 4, random.Random(0))
    rk, _ = real_oracle(s, 4, 7, 1)
    with pytest.raises(DomainError):
        four_round_boomerang(rk, s, 0)
    mini = builtin("minimal4", P8)
    rk, _ = real_oracle(mini, 4, 7, 2)
    with pytest.raises(NotAffine):
        four_round_boomerang(rk, mini, 1)
    with pytest.raises(ArityMismatch):
        quartet_params_4round(builtin("identity_bad(5)", P8), 1)


def test_complementation_shift_values():
    # Identity matrices, zero whitening, all-ones offset: the classical
    # complementation quartet with all shifts equal to the offset itself.
    s = builtin("identity_bad(4)", P8)
    bp = quartet_params_4round(s, 0xFF)
    assert (bp.nabla1, bp.nabla2, bp.nabla3, bp.nabla4) == (0xFF, 0xFF, 0xFF, 0xFF)


def test_switch5_on_bitperm_schedule():
    s = builtin("bitperm_bad5", P8)
    delta = weak_delta([s.gamma_matrix(1) ^ s.gamma_matrix(5)])
    assert delta != 0
    assert mat_vec(s.gamma_matrix(1), delta) == mat_vec(s.gamma_matrix(5), delta)
    rng = random.Random(1)
    for trial in range(200):
        rk, _ = real_oracle(s, 5, rng.randrange(256), 1000 + trial)
        assert five_round_boomerang_switch(rk, s, None, rng.randrange(256), rng.randrange(256)) == 1
        assert rk.query_count == 4


def test_switch5_no_weak_delta_when_difference_invertible():
    # M1 = I, M5 = multiply-by-2: their XOR is multiply-by-3, invertible.
    maps = (identity_map(8), Z, Z, Z, AffineSubkey(mul_matrix(P8, 2)))
    s = KeySchedule(P8, (Z, Z, Z, Z), maps)
    rk, _ = real_oracle(s, 5, 3, 5)
    with pytest.raises(NoWeakDelta):
        five_round_boomerang_switch(rk, s)
    with pytest.raises(NoWeakDelta):
        five_round_boomerang_switch(rk, s, delta=0x01)  # fails M1.d = M5.d


def test_comp5_reconstruction_validated_over_1000_seeds():
    # M1 = M3 (both rotations by 1) enables the three-round top trail.
    rot = lambda r: AffineSubkey(BinMatrix.rotation(8, r))
    s = KeySchedule(P8, (Z, Z, Z, Z), (rot(1), rot(2), rot(1), rot(3), rot(4)))
    rng = random.Random(9)
    for trial in range(1000):
        rk, _ = real_oracle(s, 5, rng.randrange(256), 5000 + trial)
        bit = five_round_complementation_boomerang(
            rk, s, None, rng.randrange(256), rng.randrange(256)
        )
        assert bit == 1
        assert rk.query_count == 4


def test_comp5_preconditions():
    maps = (identity_map(8), Z, AffineSubkey(mul_matrix(P8, 2)), Z, Z)
    s = KeySchedule(P8, (Z, Z, Z, Z), maps)
    rk, _ = real_oracle(s, 5, 3, 6)
    with pytest.raises(NoWeakDelta):
        five_round_complementation_boomerang(rk, s)
    s4 = random_affine(P8, 4, random.Random(4))
    rk, _ = real_oracle(s4, 4, 3, 7)
    with pytest.raises(ArityMismatch):
        five_round_complementation_boomerang(rk, s4)


@pytest.mark.parametrize(
    "attack, partner",
    [(five_round_complementation_boomerang, 3), (five_round_boomerang_switch, 5)],
    ids=["comp5", "switch5"],
)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_comp5_offset_exists_iff_m1_xor_m3_is_singular(n, attack, partner):
    # Over random affine schedules: NoWeakDelta exactly when M1 ^ M3 (for
    # switch5, M1 ^ M5) is invertible (checked by brute force), and a win
    # at the offset otherwise.
    p = DomainParams.for_width(n)
    rng = random.Random(500 + n)
    found = 0
    for trial in range(300):
        s = random_affine(p, 5, rng)
        m = s.gamma_matrix(1) ^ s.gamma_matrix(partner)
        invertible = all(mat_vec(m, x) for x in range(1, 1 << n))
        fs = (RandomFunctionOracle(n, derive_seed(trial, "f")),)
        rk = RelatedKeyOracle(rng.randrange(1 << n), CipherInstance(s, fs * 5), n)
        if invertible:
            with pytest.raises(NoWeakDelta):
                attack(rk, s)
        else:
            found += 1
            assert attack(rk, s) == 1
            assert rk.query_count == 4
    assert 0 < found < 300


def test_any_round_on_identity_schedule_uses_two_queries():
    s = builtin("identity_bad(8)", P8)
    rng = random.Random(3)
    for trial in range(200):
        rk, _ = real_oracle(s, 8, rng.randrange(256), 7000 + trial)
        bit = any_round_differential(rk, s, None, rng.randrange(256), rng.randrange(256))
        assert bit == 1
        assert rk.query_count == 2


@pytest.mark.parametrize("t", [5, 7])
def test_any_round_odd_round_count_with_whitening(t):
    # Odd round counts take the swapped state difference; the whitening
    # masks stay with their block positions.
    rng = random.Random(20 + t)
    whitening = tuple(
        AffineSubkey(BinMatrix(tuple(rng.randrange(256) for _ in range(8))), rng.randrange(256))
        for _ in range(4)
    )
    s = KeySchedule(P8, whitening, (identity_map(8),) * t)
    for trial in range(150):
        rk, _ = real_oracle(s, t, rng.randrange(256), 9000 + 100 * t + trial)
        assert any_round_differential(rk, s, None, rng.randrange(256), rng.randrange(256)) == 1


def test_any_round_two_rounds_any_offset():
    s = random_affine(P8, 2, random.Random(6))
    rng = random.Random(6)
    for trial in range(100):
        rk, _ = real_oracle(s, 2, rng.randrange(256), 11000 + trial)
        delta = rng.randrange(1, 256)
        assert any_round_differential(rk, s, delta) == 1


def test_any_round_preconditions():
    s = builtin("ortho6", P8)
    rk, _ = real_oracle(s, 6, 3, 8)
    with pytest.raises(NoWeakDelta):
        any_round_differential(rk, s)
    mini = builtin("minimal4", P8)
    rk, _ = real_oracle(mini, 4, 3, 9)
    with pytest.raises(NotAffine):
        any_round_differential(rk, mini)
    ident = builtin("identity_bad(8)", P8)
    rk, _ = real_oracle(ident, 8, 3, 10)
    with pytest.raises(NoWeakDelta):
        any_round_differential(rk, ident, delta=0)
    one_round = KeySchedule(P8, (Z, Z, Z, Z), (identity_map(8),))
    rk, _ = real_oracle(one_round, 1, 3, 11)
    with pytest.raises(TooFewRounds):
        any_round_differential(rk, one_round)


def test_filled6_no_weak_delta():
    s = builtin("filled6", P8)
    rk, _ = real_oracle(s, 6, 3, 12)
    with pytest.raises(NoWeakDelta):
        any_round_differential(rk, s)


class _Planted(random.Random):
    """sample() returns the planted lists in turn: the attack's offsets, then its guesses."""

    def __init__(self, *lists):
        super().__init__(0)
        self.lists = list(lists)

    def sample(self, population, k):
        return self.lists.pop(0)


def test_birthday_planted_collision():
    s = builtin("minimal4", P8)
    key = 0x5C
    rk, fs = real_oracle(s, 4, key, 13)
    delta = 0x21
    bit = birthday_collision_attack(rk, fs, s, 1, 1, _Planted([delta], [key ^ delta]))
    assert bit == 1
    assert rk.query_count == 2  # one probe + one confirmation


def test_birthday_miss_returns_zero():
    s = builtin("minimal4", P8)
    rk, fs = real_oracle(s, 4, 0x5C, 14)
    bit = birthday_collision_attack(rk, fs, s, 1, 1, _Planted([0x21], [0x00]))
    assert bit == 0


@pytest.mark.parametrize("q_e, q_g", [(257, 1), (1, 257), (-1, 1), (1, -1)])
def test_birthday_rejects_budgets_outside_the_key_space(q_e, q_g):
    s = builtin("minimal4", P8)
    rk, fs = real_oracle(s, 4, 0x5C, 16)
    with pytest.raises(DomainError):
        birthday_collision_attack(rk, fs, s, q_e, q_g, random.Random(0))
    assert rk.query_count == 0


def test_good_schedules_reject_affine_attacks():
    # The applicable affine attack against each good schedule ends in
    # NotAffine or NoWeakDelta, never in a run.
    mini = builtin("minimal4", P8)
    rk, _ = real_oracle(mini, 4, 1, 15)
    with pytest.raises(NotAffine):
        four_round_boomerang(rk, mini, 1)
    with pytest.raises(NotAffine):
        any_round_differential(rk, mini)
    for name in ("ortho6", "filled6"):
        s = builtin(name, P8)
        rk, _ = real_oracle(s, 6, 1, 16)
        with pytest.raises(NoWeakDelta):
            any_round_differential(rk, s)
    assert rk.query_count == 0  # preconditions fail before any query


def test_ideal_world_rates_are_near_zero():
    spec = ConstructionSpec(P8, 4, lambda rng: random_affine(P8, 4, rng), "kafw", "permutation", False)
    d = game.boomerang4_distinguisher()
    hits = sum(
        game.run_trial(d, WorldSpec(game.IDEAL, spec), derive_seed(77, "ideal", i))
        for i in range(3000)
    )
    assert hits <= 2  # expected rate 2/N^2 ~ 3.1e-5


def _rotations(*amounts):
    return KeySchedule(P8, (Z, Z, Z, Z), tuple(AffineSubkey(BinMatrix.rotation(8, r)) for r in amounts))


@pytest.mark.parametrize("world", ["real", "ideal"])
def test_kept_attack_constants_answer_as_a_fresh_copy(world):
    """Repeated calls on one schedule, whose memo fills, give the bit and the
    queries of the same call on a fresh equal copy, whose memo is empty."""
    rng = random.Random(f"kept-constants-{world}")
    whitening = tuple(AffineSubkey(BinMatrix(tuple(rng.randrange(256) for _ in range(8))), 7) for _ in range(4))
    bitperm, rotations = builtin("bitperm_bad5", P8), _rotations(1, 2, 1, 3, 4)
    # (attack, schedule, the weak offset it finds by itself)
    cases = [
        (four_round_boomerang, random_affine(P8, 4, rng), None),
        (five_round_boomerang_switch, bitperm, weak_delta([bitperm.gamma_matrix(1) ^ bitperm.gamma_matrix(5)])),
        (five_round_complementation_boomerang, rotations,
         weak_delta([rotations.gamma_matrix(1) ^ rotations.gamma_matrix(3)])),
        (any_round_differential, builtin("identity_bad(8)", P8), 1),
        (any_round_differential, KeySchedule(P8, whitening, (identity_map(8),) * 5), 1),
    ]
    for attack, s, weak in cases:
        for call in range(200):
            key, seed = rng.randrange(256), rng.randrange(1 << 40)
            # Few offsets, so most calls reuse kept shifts; every other call
            # of a weak-offset attack names its offset.
            if weak is None:
                delta = rng.randrange(1, 12)
            else:
                delta = weak if call % 2 else None
            left, right = rng.randrange(256), rng.randrange(256)
            answers = []
            for schedule in (s, dataclasses.replace(s)):
                if world == "real":
                    rk, _ = real_oracle(schedule, schedule.t, key, seed)
                else:
                    rk = RelatedKeyOracle(key, IdealCipherOracle(8, seed), 8)
                answers.append((attack(rk, schedule, delta, left, right), rk.query_count, sorted(rk._seen)))
            assert answers[0] == answers[1], (attack.__name__, call)
            assert answers[0][1] == (2 if attack is any_round_differential else 4)
        assert len(s.memo) > 1


def test_failed_preconditions_raise_on_every_call():
    """A failed precondition raises again on every call, also on a schedule
    whose constants are already kept.  The first call may keep what it
    derived before failing (the affine forms); no later one keeps more."""
    mini, filled = builtin("minimal4", P8), builtin("filled6", P8)
    s4 = random_affine(P8, 4, random.Random(4))
    bitperm = builtin("bitperm_bad5", P8)
    ident = builtin("identity_bad(8)", P8)
    invertible5 = KeySchedule(P8, (Z, Z, Z, Z), (identity_map(8), Z, Z, Z, AffineSubkey(mul_matrix(P8, 2))))
    warm = [
        lambda rk: four_round_boomerang(rk, s4, 5),
        lambda rk: five_round_boomerang_switch(rk, bitperm),
        lambda rk: any_round_differential(rk, ident),
    ]
    failing = [
        (NotAffine, mini, lambda rk: four_round_boomerang(rk, mini, 1)),
        (NotAffine, mini, lambda rk: any_round_differential(rk, mini)),
        (DomainError, s4, lambda rk: four_round_boomerang(rk, s4, 0)),
        (ArityMismatch, s4, lambda rk: five_round_complementation_boomerang(rk, s4)),
        (ArityMismatch, bitperm, lambda rk: quartet_params_4round(bitperm, 1)),
        (NoWeakDelta, invertible5, lambda rk: five_round_boomerang_switch(rk, invertible5)),
        (NoWeakDelta, bitperm, lambda rk: five_round_boomerang_switch(rk, bitperm, delta=0)),
        (NoWeakDelta, bitperm, lambda rk: five_round_boomerang_switch(rk, bitperm, delta=0x01)),
        (NoWeakDelta, bitperm, lambda rk: five_round_complementation_boomerang(rk, bitperm, delta=0x01)),
        (NoWeakDelta, ident, lambda rk: any_round_differential(rk, ident, delta=0)),
        (NoWeakDelta, filled, lambda rk: any_round_differential(rk, filled)),
    ]
    for call in warm:
        assert call(RelatedKeyOracle(3, IdealCipherOracle(8, 1), 8)) in (0, 1)
    after_first = {}
    for _ in range(3):
        for i, (error, s, call) in enumerate(failing):
            rk = RelatedKeyOracle(3, IdealCipherOracle(8, 1), 8)
            with pytest.raises(error):
                call(rk)
            assert rk.query_count == 0
            assert after_first.setdefault(i, dict(s.memo)) == s.memo


def test_per_offset_constants_are_kept_up_to_n12_only():
    """A long run of random offsets cannot grow a wide schedule's memo."""
    for n, kept in ((12, True), (13, False)):
        s = random_affine(DomainParams.for_width(n), 4, random.Random(n))
        for delta in (1, 2, 3, 2):
            four_round_boomerang(RelatedKeyOracle(3, IdealCipherOracle(n, 1), n), s, delta)
        assert len(s.memo) == (4 if kept else 1)  # the affine forms, and one entry per offset
