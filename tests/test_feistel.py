"""Cipher constructions: round maps, pipelines, round trips, structural identities."""

import random

import pytest

from kafw.errors import ScheduleArityMismatch, TooFewRounds
from kafw.feistel import (
    Block,
    CipherInstance,
    block_from_int,
    block_to_int,
    kaf_decrypt,
    kaf_encrypt,
    kafv_decrypt,
    kafv_encrypt,
    kafw_decrypt,
    kafw_encrypt,
    kafw_encrypt_traced,
    lucifer_decrypt,
    lucifer_encrypt,
    psi_round,
    psi_round_inverse,
    psi_tilde_round,
    psi_tilde_round_inverse,
    replay_trace,
    tweakable_decrypt,
    tweakable_encrypt,
)
from kafw.gf2 import BinMatrix, DomainParams
from kafw.oracles import RandomFunctionOracle
from kafw.schedules import (
    AffineSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
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
        assert psi_round_inverse(psi_round(state, k, f), k, f) == state


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
            assert psi_tilde_round_inverse(psi_tilde_round(state, k, f), k, f) == state


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
    pt = Block(1, 2)
    assert kaf_decrypt(inst, 9, kaf_encrypt(inst, 9, pt)) == pt
    whitened = CipherInstance(P8, 4, builtin("tweakem4", P8), (table_f(8, 1),))
    with pytest.raises(ScheduleArityMismatch):
        kaf_encrypt(whitened, 9, pt)
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(P8, 4, builtin("tweakem4", P8), (table_f(8, 1),), "kaf")


def test_kaf_equals_kafw_with_zero_whitening():
    inst = CipherInstance(P8, 4, builtin("minimal4", P8), (table_f(8, 2),), "kaf")
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randrange(256)
        pt = Block(rng.randrange(256), rng.randrange(256))
        assert kaf_encrypt(inst, k, pt) == kafw_encrypt(inst, k, pt)


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


def test_lucifer_schedule_instance_roundtrip():
    maps = tuple(identity_map(4) for _ in range(3))
    inst = CipherInstance(P4, 3, LuciferSchedule(P4, maps), tuple(table_f(4, 60 + i) for i in range(3)), "lucifer")
    for key in range(16):
        for word in range(0, 256, 7):
            assert inst.decrypt_block(key, inst.encrypt_block(key, word)) == word
