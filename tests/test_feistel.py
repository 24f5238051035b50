"""Cipher constructions: round maps, pipelines, round trips, structural identities."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from kafw import equivalence
from kafw.equivalence import random_subkey_map
from kafw.errors import DomainError, ScheduleArityMismatch, TooFewRounds
from kafw.feistel import (
    Block,
    CipherInstance,
    block_from_int,
    block_to_int,
    kafv_decrypt,
    kafv_encrypt,
    kafw_decrypt,
    kafw_encrypt,
    kafw_encrypt_traced,
    lucifer_decrypt,
    lucifer_encrypt,
    psi_round,
    psi_tilde_round,
    replay_trace,
    tweakable_decrypt,
    tweakable_encrypt,
)
from kafw.gf2 import BinMatrix, DomainParams
from kafw.oracles import RandomFunctionOracle, RandomPermutationOracle
from kafw.schedules import (
    AffineSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    XorSubkey,
    ZeroMap,
    builtin,
    identity_map,
    random_affine,
)

P4 = DomainParams.for_width(4)
P8 = DomainParams.for_width(8)
Z = ZeroMap()


def zero_schedule(p, t):
    return KeySchedule(p, (Z, Z, Z, Z), (Z,) * t)


def const_map(n, c):
    return AffineSubkey(BinMatrix.zero(n), c)


def table_f(n, seed):
    oracle = RandomFunctionOracle(n, seed)
    return [oracle.query(x) for x in range(1 << n)].__getitem__


def swap(state):
    return Block(state.right, state.left)


def test_psi_round_examples():
    ident = lambda x: x
    assert psi_round(Block(0b1010, 0b0110), 0, ident) == Block(0b0110, 0b1100)
    zero_f = lambda x: 0
    assert psi_round(Block(3, 9), 5, zero_f) == Block(9, 3)
    rng = random.Random(0)
    f = table_f(4, 1)
    for _ in range(50):
        state = Block(rng.randrange(16), rng.randrange(16))
        k = rng.randrange(16)
        # The inverse round is the same round between two half swaps.
        assert swap(psi_round(swap(psi_round(state, k, f)), k, f)) == state


def test_psi_tilde_examples():
    f = table_f(4, 2)
    for l in range(16):
        for r in range(16):
            state = Block(l, r)
            assert psi_tilde_round(state, 0, f) == psi_round(state, 0, f)
            zero_f = lambda x: 0
            assert psi_tilde_round(state, 0xC, zero_f) == Block(r, l ^ 0xC)
            # Key-after-function equals key-folded-into-function with key 0.
            folded = lambda x: f(x) ^ 0x7
            assert psi_tilde_round(state, 0x7, f) == psi_round(state, 0, folded)
            k = 0x7
            assert swap(psi_tilde_round(swap(psi_tilde_round(state, k, f)), k, f)) == state


def test_degenerate_all_zero_four_rounds_is_four_swaps():
    zero_f = lambda x: 0
    inst = CipherInstance(P4, 4, zero_schedule(P4, 4), (zero_f,), "kafw")
    for word in range(256):
        pt = block_from_int(word, 4)
        expected = pt
        for _ in range(4):
            expected = Block(expected.right, expected.left)
        assert kafw_encrypt(inst, 0, pt) == expected == pt


def test_kafw_roundtrip_exhaustive_n4():
    inst = CipherInstance(P4, 4, random_affine(P4, 4, random.Random(3)), (table_f(4, 9),))
    for key in range(16):
        for word in range(256):
            pt = block_from_int(word, 4)
            assert kafw_decrypt(inst, key, kafw_encrypt(inst, key, pt)) == pt


def test_four_and_six_round_pipelines_match_itemized_steps():
    # Independent reimplementation straight from the step lists.
    def four_steps(s, f, k, L, R):
        wf = [s.whitening_key(j, k) for j in range(4)]
        g = [None] + [s.round_key(i, k) for i in range(1, 5)]
        x1 = g[1] ^ wf[1] ^ R
        y1 = f(x1)
        X = wf[0] ^ L ^ y1
        x2 = g[2] ^ X
        y2 = f(x2)
        Y = wf[1] ^ R ^ y2
        x3 = g[3] ^ Y
        y3 = f(x3)
        S = X ^ y3 ^ wf[2]
        x4 = g[4] ^ wf[2] ^ S
        y4 = f(x4)
        T = Y ^ y4 ^ wf[3]
        return Block(S, T), [x1, x2, x3, x4]

    def six_steps(s, f, k, L, R):
        wf = [s.whitening_key(j, k) for j in range(4)]
        g = [None] + [s.round_key(i, k) for i in range(1, 7)]
        x1 = g[1] ^ wf[1] ^ R
        y1 = f(x1)
        X = wf[0] ^ L ^ y1
        x2 = g[2] ^ X
        y2 = f(x2)
        Y = wf[1] ^ R ^ y2
        x3 = g[3] ^ Y
        y3 = f(x3)
        Zs = X ^ y3
        x4 = g[4] ^ Zs
        y4 = f(x4)
        A = Y ^ y4
        x5 = g[5] ^ A
        y5 = f(x5)
        S = Zs ^ y5 ^ wf[2]
        x6 = g[6] ^ wf[2] ^ S
        y6 = f(x6)
        T = A ^ y6 ^ wf[3]
        return Block(S, T), [x1, x2, x3, x4, x5, x6]

    rng = random.Random(10)
    for t, stepper in ((4, four_steps), (6, six_steps)):
        s = random_affine(P8, t, rng)
        f = table_f(8, 20 + t)
        inst = CipherInstance(P8, t, s, (f,))
        for _ in range(60):
            k, l, r = rng.randrange(256), rng.randrange(256), rng.randrange(256)
            want, xs = stepper(s, f, k, l, r)
            trace = kafw_encrypt_traced(inst, k, Block(l, r))
            assert trace.ciphertext == want
            assert [x for x, _, _ in trace.rounds] == xs


def test_trace_replay_reproduces_ciphertext():
    rng = random.Random(5)
    s = random_affine(P8, 6, rng)
    inst = CipherInstance(P8, 6, s, (table_f(8, 6),))
    for _ in range(30):
        k = rng.randrange(256)
        pt = Block(rng.randrange(256), rng.randrange(256))
        trace = kafw_encrypt_traced(inst, k, pt)
        assert replay_trace(inst, k, pt, trace) == trace.ciphertext


def test_helper_style_backward_recomputation_agrees():
    # "LR -> X, Y <- ST": recompute the second/third-round values from the
    # ciphertext side and check them against the forward trace.
    rng = random.Random(8)
    s = random_affine(P8, 4, rng)
    f = table_f(8, 44)
    inst = CipherInstance(P8, 4, s, (f,))
    for _ in range(80):
        k, l, r = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        trace = kafw_encrypt_traced(inst, k, Block(l, r))
        S, T = trace.ciphertext
        wf = [s.whitening_key(j, k) for j in range(4)]
        g = [None] + [s.round_key(i, k) for i in range(1, 5)]
        x1 = (wf[1] ^ g[1]) ^ r
        y1 = f(x1)
        X = l ^ wf[0] ^ y1
        x4 = (wf[2] ^ g[4]) ^ S
        y4 = f(x4)
        Y = T ^ wf[3] ^ y4
        y2 = r ^ wf[1] ^ Y
        y3 = S ^ wf[2] ^ X
        assert f(g[2] ^ X) == y2
        assert f(g[3] ^ Y) == y3
        assert trace.rounds[0][0] == x1 and trace.rounds[3][0] == x4


def test_identical_round_keys_collapse_to_single_whitened_keyless_feistel():
    # 2t rounds with one repeated round key equal a keyless Feistel wrapped
    # in (k'||k') whitening on both sides.
    rng = random.Random(12)
    fs = tuple(table_f(4, 30 + i) for i in range(4))
    for kprime in range(16):
        sched = KeySchedule(P4, (Z, Z, Z, Z), (const_map(4, kprime),) * 4)
        inst = CipherInstance(P4, 4, sched, fs)
        for word in range(256):
            pt = block_from_int(word, 4)
            state = Block(pt.left ^ kprime, pt.right ^ kprime)
            for f in fs:
                state = psi_round(state, 0, f)
            expected = Block(state.left ^ kprime, state.right ^ kprime)
            assert kafw_encrypt(inst, 0, pt) == expected


def test_encryption_with_noninvertible_function_is_bijection():
    f = table_f(4, 13)  # random function: almost surely non-injective
    assert len(set(f(x) for x in range(16))) < 16
    inst = CipherInstance(P4, 4, zero_schedule(P4, 4), (f,))
    images = {block_to_int(kafw_encrypt(inst, 0, block_from_int(w, 4)), 4) for w in range(256)}
    assert len(images) == 256


def test_kaf_requires_zero_whitening():
    inst = CipherInstance(P8, 4, builtin("minimal4", P8), (table_f(8, 1),), "kaf")
    assert inst.decrypt_block(9, inst.encrypt_block(9, 0x0102)) == 0x0102
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(P8, 4, builtin("tweakem4", P8), (table_f(8, 1),), "kaf")


def test_kaf_equals_kafw_with_zero_whitening():
    inst = CipherInstance(P8, 4, builtin("minimal4", P8), (table_f(8, 2),), "kaf")
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randrange(256)
        pt = Block(rng.randrange(256), rng.randrange(256))
        want = block_to_int(kafw_encrypt(inst, k, pt), 8)
        assert inst.encrypt_block(k, block_to_int(pt, 8)) == want


def test_kafv_zero_schedule_is_keyless_chain():
    f = table_f(4, 3)
    sched = KafvSchedule(P4, (Z,) * 6)
    inst = CipherInstance(P4, 4, sched, (f,), "kafv")
    for word in range(256):
        pt = block_from_int(word, 4)
        state = pt
        for _ in range(4):
            state = psi_tilde_round(state, 0, f)
        assert kafv_encrypt(inst, 7, pt) == state
        assert kafv_decrypt(inst, 7, kafv_encrypt(inst, 7, pt)) == pt


def test_lucifer_smallest_and_zero_cases():
    f1, f2 = table_f(4, 40), table_f(4, 41)
    inst = CipherInstance(P4, 2, None, (f1, f2), "lucifer")
    for word in range(256):
        pt = block_from_int(word, 4)
        k1, k2 = 0b0101, 0b1100
        direct = lucifer_encrypt(inst, [k1, k2], pt)
        # t=2 sandwich: outer keyless rounds around whitening only.
        mid = psi_tilde_round(pt, 0, f1)
        mid = Block(mid.left, mid.right ^ k1)
        mid = Block(mid.left ^ k2, mid.right)
        assert direct == psi_tilde_round(mid, 0, f2)
        chain = psi_tilde_round(psi_tilde_round(pt, 0, f1), 0, f2)
        assert lucifer_encrypt(inst, [0, 0], pt) == chain
        assert lucifer_decrypt(inst, [k1, k2], direct) == pt


def test_lucifer_needs_two_rounds():
    inst = CipherInstance(P4, 1, None, (table_f(4, 1),), "lucifer")
    with pytest.raises(TooFewRounds):
        lucifer_encrypt(inst, [3], Block(0, 0))


def test_tweakable_wrapper():
    inst = CipherInstance(P8, 4, builtin("tweakem4", P8), (table_f(8, 50),))
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randrange(256)
        tw = rng.randrange(256)
        pt = Block(rng.randrange(256), rng.randrange(256))
        ct = tweakable_encrypt(inst, k, tw, pt)
        assert tweakable_decrypt(inst, k, tw, ct) == pt
        assert tweakable_encrypt(inst, k, 0, pt) == kafw_encrypt(inst, k, pt)
        assert ct == kafw_encrypt(inst, k ^ tw, pt)


def test_tweakem4_per_tweak_bijection():
    inst = CipherInstance(P4, 4, builtin("tweakem4", P4, m1=2, m4=3), (table_f(4, 51),))
    for tw in (0, 5, 11):
        images = {
            block_to_int(tweakable_encrypt(inst, 6, tw, block_from_int(w, 4)), 4)
            for w in range(256)
        }
        assert len(images) == 256


def test_arity_mismatches():
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(P8, 5, builtin("minimal4", P8), (table_f(8, 1),))
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(P8, 4, builtin("minimal4", P8), (table_f(8, 1), table_f(8, 2)))
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(P8, 4, KafvSchedule(P8, (Z,) * 6), (table_f(8, 1),), "kafw")
    with pytest.raises(DomainError):
        CipherInstance(P8, 4, builtin("minimal4", P8), (table_f(8, 1),), "feistel")


def test_lucifer_schedule_instance_roundtrip():
    maps = tuple(identity_map(4) for _ in range(3))
    inst = CipherInstance(P4, 3, LuciferSchedule(P4, maps), tuple(table_f(4, 60 + i) for i in range(3)), "lucifer")
    for key in range(16):
        for word in range(0, 256, 7):
            assert inst.decrypt_block(key, inst.encrypt_block(key, word)) == word


def test_schedule_less_lucifer_instance_needs_a_schedule_for_block_ops():
    inst = CipherInstance(P4, 2, None, (table_f(4, 1), table_f(4, 2)), "lucifer")
    with pytest.raises(ScheduleArityMismatch):
        inst.encrypt_block(3, 0x12)
    with pytest.raises(ScheduleArityMismatch):
        inst.decrypt_block(3, 0x12)


def _random_maps(rng, p, count):
    """Random sub-key maps of every kind the file format has but the zero map."""
    maps = []
    while len(maps) < count:
        m = random_subkey_map(p, rng)
        if not isinstance(m, ZeroMap):
            maps.append(m)
    return tuple(maps)


def _kat_instance(construction):
    rng = random.Random(f"kat-{construction}")
    if construction == "kafw":
        sched = KeySchedule(P4, _random_maps(rng, P4, 4), _random_maps(rng, P4, 4))
        return CipherInstance(P4, 4, sched, (RandomFunctionOracle(4, 11),))
    if construction == "kaf":
        fs = tuple(RandomPermutationOracle(4, 20 + i) for i in range(4))
        return CipherInstance(P4, 4, builtin("minimal4", P4), fs, "kaf")
    if construction == "kafv":
        sched = KafvSchedule(P4, _random_maps(rng, P4, 7))
        return CipherInstance(P4, 5, sched, (RandomPermutationOracle(4, 12),), "kafv")
    fs = tuple(RandomFunctionOracle(4, 30 + i) for i in range(3))
    return CipherInstance(P4, 3, LuciferSchedule(P4, _random_maps(rng, P4, 3)), fs, "lucifer")


# sha256 of every encrypt_block output, then every decrypt_block output, at n = 4
# (key-major).  The permutation oracles make them pin the order of f queries too.
KNOWN_ANSWERS = {
    "kafw": "6359eeb4a8798b9fd37975661fe605fcbb313fcf93e97a48f6b8245eacb36278",
    "kaf": "35e0f855680c19f4b6f4aa96e3430b597ca83e37e9caeb8a3061e56582d6b195",
    "kafv": "3764e77c97226768adcc72017f052f428116d06a1ee23b54628afe21e824c70b",
    "lucifer": "5e996f919a380dc63cff3c626aa68493b0116675836ca7b97fffb0db3340d10c",
}


@pytest.mark.parametrize("construction", sorted(KNOWN_ANSWERS))
def test_known_answer_digest_exhaustive_n4(construction):
    inst = _kat_instance(construction)
    h = hashlib.sha256()
    for op in (inst.encrypt_block, inst.decrypt_block):
        for key in range(16):
            h.update(bytes(op(key, block) for block in range(256)))
    assert h.hexdigest() == KNOWN_ANSWERS[construction]


def _reference_encrypt(inst, key, pt):
    """Whitening around a composition of the one-round reference maps."""
    s, fs, t = inst.schedule, inst.round_functions, inst.rounds
    if isinstance(s, KeySchedule):
        state = Block(pt.left ^ s.whitening_key(0, key), pt.right ^ s.whitening_key(1, key))
        for i in range(1, t + 1):
            state = psi_round(state, s.round_key(i, key), fs[i - 1])
        return Block(state.left ^ s.whitening_key(2, key), state.right ^ s.whitening_key(3, key))
    if isinstance(s, KafvSchedule):
        state = Block(pt.left, pt.right ^ s.subkey(0, key))
        for i in range(1, t + 1):
            state = psi_tilde_round(state, s.subkey(i, key), fs[i - 1])
        return Block(state.left ^ s.subkey(t + 1, key), state.right)
    state = pt
    for i in range(1, t + 1):
        state = psi_tilde_round(state, s.round_key(i, key), fs[i - 1])
    return state


@pytest.mark.parametrize("construction", ("kafw", "kaf", "kafv", "lucifer"))
def test_every_construction_is_whitening_around_reference_rounds(construction):
    rng = random.Random(f"differential-{construction}")
    for p in (P4, DomainParams.for_width(5), P8):
        for _ in range(6):
            t = rng.randrange(2, 7)
            fs = tuple(table_f(p.n, rng.randrange(1 << 30)) for _ in range(t))
            if construction == "kafw":
                sched = KeySchedule(p, _random_maps(rng, p, 4), _random_maps(rng, p, t))
            elif construction == "kaf":
                sched = KeySchedule(p, (Z,) * 4, _random_maps(rng, p, t))
            elif construction == "kafv":
                sched = KafvSchedule(p, _random_maps(rng, p, t + 2))
            else:
                sched = LuciferSchedule(p, _random_maps(rng, p, t))
            inst = CipherInstance(p, t, sched, fs, construction)
            for _ in range(40):
                key, word = rng.randrange(p.N), rng.randrange(p.N * p.N)
                want = block_to_int(_reference_encrypt(inst, key, block_from_int(word, p.n)), p.n)
                assert inst.encrypt_block(key, word) == want
                assert inst.decrypt_block(key, want) == word


def _random_schedules(p, t, rng):
    kafw = KeySchedule(p, _random_maps(rng, p, 4), _random_maps(rng, p, t))
    return kafw, KafvSchedule(p, _random_maps(rng, p, t + 2))


def test_kept_layout_matches_a_fresh_instance_per_call():
    rng = random.Random(60)
    sched, star = _random_schedules(P4, 4, rng)
    f = table_f(4, 61)
    kafw_inst = CipherInstance(P4, 4, sched, (f,), "kafw")
    kafv_inst = CipherInstance(P4, 4, star, (f,), "kafv")
    ops = (
        (kafw_inst, kafw_encrypt),
        (kafw_inst, kafw_decrypt),
        (kafv_inst, kafv_encrypt),
        (kafv_inst, kafv_decrypt),
    )
    key = 0
    for _ in range(2000):
        if rng.random() < 0.3:
            key = rng.randrange(16)
        inst, op = rng.choice(ops)
        block = Block(rng.randrange(16), rng.randrange(16))
        fresh = CipherInstance(P4, 4, inst.schedule, (f,), inst.construction)
        assert op(inst, key, block) == op(fresh, key, block), (op.__name__, key, block)


def test_kept_layout_still_checks_the_construction():
    rng = random.Random(62)
    sched, star = _random_schedules(P4, 4, rng)
    f = table_f(4, 63)
    kafv_inst = CipherInstance(P4, 4, star, (f,), "kafv")
    kafw_inst = CipherInstance(P4, 4, sched, (f,), "kafw")
    kafv_encrypt(kafv_inst, 5, Block(1, 2))
    kafw_encrypt(kafw_inst, 5, Block(1, 2))
    for op, inst in ((kafw_encrypt, kafv_inst), (kafw_decrypt, kafv_inst),
                     (kafv_encrypt, kafw_inst), (kafv_decrypt, kafw_inst)):
        with pytest.raises(ScheduleArityMismatch):
            op(inst, 5, Block(1, 2))


def test_sweep_evaluates_each_subkey_map_once_per_key(monkeypatch):
    calls = Counter()

    def spy(cls, attr):
        original = getattr(cls, attr)

        def counted(self, i, k):
            calls[(attr, id(self), i, k)] += 1
            return original(self, i, k)

        monkeypatch.setattr(cls, attr, counted)

    for cls, attr in ((KafvSchedule, "subkey"), (KeySchedule, "round_key"),
                      (KeySchedule, "whitening_key")):
        spy(cls, attr)
    n, t = 3, 2
    assert equivalence.kafv_vs_kafw_sweep(n, t, seeds=(0,)).passed
    assert set(calls.values()) == {1}
    per_attr = Counter(attr for attr, *_ in calls)
    N = 1 << n
    assert per_attr == {"subkey": N * (t + 2), "round_key": N * t, "whitening_key": N * 4}


def test_sweep_with_a_broken_conversion_still_mismatches(monkeypatch):
    convert = equivalence.kafv_to_kafw

    def broken(star):
        # Output whitening wf2 off by the key itself: wrong under every key but 0.
        s = convert(star)
        wf = list(s.whitening)
        wf[2] = XorSubkey((wf[2], identity_map(s.params.n)))
        return KeySchedule(s.params, tuple(wf), s.round_keys)

    monkeypatch.setattr(equivalence, "kafv_to_kafw", broken)
    n = 3
    result = equivalence.kafv_vs_kafw_sweep(n, 2, seeds=(0,))
    N = 1 << n
    assert result.mismatches == (N - 1) * N * N


@pytest.mark.parametrize("t", [1, 2, 4])
def test_chains_leave_column_operands_alone(t):
    # A sweep passes one plaintext column to two chains: neither may whiten
    # or round it in place.
    f = np.array([table_f(4, 70)(x) for x in range(16)], dtype=np.int64).__getitem__
    words = np.arange(256, dtype=np.int64)
    block = Block(words >> 4, words & 15)
    saved = (block.left.copy(), block.right.copy())
    consts = lambda first, count: tuple(const_map(4, first + i) for i in range(count))  # noqa: E731
    kafw_inst = CipherInstance(P4, t, KeySchedule(P4, consts(3, 4), consts(7, t)), (f,), "kafw")
    kafv_inst = CipherInstance(P4, t, KafvSchedule(P4, consts(5, t + 2)), (f,), "kafv")
    ops = [(kafw_encrypt, kafw_decrypt, kafw_inst, 9), (kafv_encrypt, kafv_decrypt, kafv_inst, 9)]
    if t >= 2:
        lucifer_inst = CipherInstance(P4, t, None, (f,), "lucifer")
        ops.append((lucifer_encrypt, lucifer_decrypt, lucifer_inst, [11 + i for i in range(t)]))
    for encrypt, decrypt, inst, key in ops:
        for op in (encrypt, decrypt):
            out = op(inst, key, block)
            assert np.array_equal(block.left, saved[0]) and np.array_equal(block.right, saved[1])
            back = (decrypt if op is encrypt else encrypt)(inst, key, out)
            assert np.array_equal(back.left, saved[0]) and np.array_equal(back.right, saved[1])
            assert [op(inst, key, Block(int(l), int(r))) for l, r in zip(*saved)] == [
                Block(l, r) for l, r in zip(out.left.tolist(), out.right.tolist())
            ]
