"""Cipher constructions: round maps, pipelines, round trips, structural identities."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from kafw import equivalence, feistel
from kafw.equivalence import random_subkey_map
from kafw.errors import DomainError, ScheduleArityMismatch, TooFewRounds
from kafw.feistel import CipherInstance, psi_round, psi_tilde_round
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
    check_construction,
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
    return state[1], state[0]


def split(word, n):
    """(left, right) halves of a 2n-bit word."""
    return word >> n, word & ((1 << n) - 1)


def join(state, n):
    return (state[0] << n) | state[1]


def test_psi_round_examples():
    ident = lambda x: x
    assert psi_round((0b1010, 0b0110), 0, ident) == (0b0110, 0b1100)
    zero_f = lambda x: 0
    assert psi_round((3, 9), 5, zero_f) == (9, 3)
    rng = random.Random(0)
    f = table_f(4, 1)
    for _ in range(50):
        state = (rng.randrange(16), rng.randrange(16))
        k = rng.randrange(16)
        # The inverse round is the same round between two half swaps.
        assert swap(psi_round(swap(psi_round(state, k, f)), k, f)) == state


def test_psi_tilde_examples():
    f = table_f(4, 2)
    for l in range(16):
        for r in range(16):
            state = (l, r)
            assert psi_tilde_round(state, 0, f) == psi_round(state, 0, f)
            zero_f = lambda x: 0
            assert psi_tilde_round(state, 0xC, zero_f) == (r, l ^ 0xC)
            # Key-after-function equals key-folded-into-function with key 0.
            folded = lambda x: f(x) ^ 0x7
            assert psi_tilde_round(state, 0x7, f) == psi_round(state, 0, folded)
            k = 0x7
            assert swap(psi_tilde_round(swap(psi_tilde_round(state, k, f)), k, f)) == state


def test_degenerate_all_zero_four_rounds_is_four_swaps():
    zero_f = lambda x: 0
    inst = CipherInstance(zero_schedule(P4, 4), (zero_f,))
    for word in range(256):
        expected = split(word, 4)
        for _ in range(4):
            expected = swap(expected)
        assert inst.encrypt_block(0, word) == join(expected, 4) == word


def test_kafw_roundtrip_exhaustive_n4():
    inst = CipherInstance(random_affine(P4, 4, random.Random(3)), (table_f(4, 9),))
    for key in range(16):
        for word in range(256):
            assert inst.decrypt_block(key, inst.encrypt_block(key, word)) == word


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
        return (S << 8) | T, [x1, x2, x3, x4]

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
        return (S << 8) | T, [x1, x2, x3, x4, x5, x6]

    rng = random.Random(10)
    for t, stepper in ((4, four_steps), (6, six_steps)):
        s = random_affine(P8, t, rng)
        f = table_f(8, 20 + t)
        inst = CipherInstance(s, (f,))
        for _ in range(60):
            k, l, r = rng.randrange(256), rng.randrange(256), rng.randrange(256)
            want, xs = stepper(s, f, k, l, r)
            trace = []
            assert inst.encrypt_block(k, (l << 8) | r, trace) == want
            assert [x for x, _, _ in trace] == xs


def test_trace_replay_reproduces_ciphertext():
    rng = random.Random(5)
    s = random_affine(P8, 6, rng)
    inst = CipherInstance(s, (table_f(8, 6),))
    for _ in range(30):
        k = rng.randrange(256)
        pt = rng.randrange(1 << 16)
        trace = []
        ct = inst.encrypt_block(k, pt, trace)
        recorded = iter(trace)

        def recorded_y(x):
            """Round function replaying the recorded y values, without f."""
            x_i, y_i, _after = next(recorded)
            assert x == x_i, "trace inconsistent with schedule"
            return y_i

        assert CipherInstance(s, (recorded_y,)).encrypt_block(k, pt) == ct
        assert next(recorded, None) is None


def test_helper_style_backward_recomputation_agrees():
    # "LR -> X, Y <- ST": recompute the second/third-round values from the
    # ciphertext side and check them against the forward trace.
    rng = random.Random(8)
    s = random_affine(P8, 4, rng)
    f = table_f(8, 44)
    inst = CipherInstance(s, (f,))
    for _ in range(80):
        k, l, r = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        trace = []
        S, T = split(inst.encrypt_block(k, (l << 8) | r, trace), 8)
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
        assert trace[0][0] == x1 and trace[3][0] == x4


def test_identical_round_keys_collapse_to_single_whitened_keyless_feistel():
    # 2t rounds with one repeated round key equal a keyless Feistel wrapped
    # in (k'||k') whitening on both sides.
    rng = random.Random(12)
    fs = tuple(table_f(4, 30 + i) for i in range(4))
    for kprime in range(16):
        sched = KeySchedule(P4, (Z, Z, Z, Z), (const_map(4, kprime),) * 4)
        inst = CipherInstance(sched, fs)
        for word in range(256):
            left, right = split(word, 4)
            state = (left ^ kprime, right ^ kprime)
            for f in fs:
                state = psi_round(state, 0, f)
            expected = join((state[0] ^ kprime, state[1] ^ kprime), 4)
            assert inst.encrypt_block(0, word) == expected


def test_encryption_with_noninvertible_function_is_bijection():
    f = table_f(4, 13)  # random function: almost surely non-injective
    assert len(set(f(x) for x in range(16))) < 16
    inst = CipherInstance(zero_schedule(P4, 4), (f,))
    images = {inst.encrypt_block(0, w) for w in range(256)}
    assert len(images) == 256


def test_kaf_requires_zero_whitening():
    inst = CipherInstance(builtin("minimal4", P8), (table_f(8, 1),))
    assert inst.decrypt_block(9, inst.encrypt_block(9, 0x0102)) == 0x0102
    with pytest.raises(ScheduleArityMismatch):
        check_construction("kaf", builtin("tweakem4", P8))


def test_kaf_equals_kafw_with_zero_whitening():
    s, f = builtin("minimal4", P8), table_f(8, 2)
    inst = CipherInstance(s, (f,))
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randrange(256)
        pt = rng.randrange(1 << 16)
        state = split(pt, 8)
        for i in range(1, 5):
            state = psi_round(state, s.round_key(i, k), f)
        assert inst.encrypt_block(k, pt) == join(state, 8)


def test_kafv_zero_schedule_is_keyless_chain():
    f = table_f(4, 3)
    sched = KafvSchedule(P4, (Z,) * 6)
    inst = CipherInstance(sched, (f,))
    for word in range(256):
        state = split(word, 4)
        for _ in range(4):
            state = psi_tilde_round(state, 0, f)
        assert inst.encrypt_block(7, word) == join(state, 4)
        assert inst.decrypt_block(7, inst.encrypt_block(7, word)) == word


def explicit_lucifer(keys, fs):
    """Lucifer under explicit round keys: a schedule of constant maps."""
    sched = LuciferSchedule(P4, tuple(const_map(4, k) for k in keys))
    return CipherInstance(sched, fs)


def test_lucifer_smallest_and_zero_cases():
    f1, f2 = table_f(4, 40), table_f(4, 41)
    k1, k2 = 0b0101, 0b1100
    inst, zero = explicit_lucifer((k1, k2), (f1, f2)), explicit_lucifer((0, 0), (f1, f2))
    for word in range(256):
        pt = split(word, 4)
        direct = inst.encrypt_block(0, word)
        # t=2 sandwich: outer keyless rounds around whitening only.
        mid = psi_tilde_round(pt, 0, f1)
        mid = (mid[0], mid[1] ^ k1)
        mid = (mid[0] ^ k2, mid[1])
        assert direct == join(psi_tilde_round(mid, 0, f2), 4)
        chain = psi_tilde_round(psi_tilde_round(pt, 0, f1), 0, f2)
        assert zero.encrypt_block(0, word) == join(chain, 4)
        assert inst.decrypt_block(0, direct) == word


def test_lucifer_needs_two_rounds():
    with pytest.raises(TooFewRounds):
        explicit_lucifer((3,), (table_f(4, 1),))


def test_tweak_folded_into_the_key_round_trips():
    inst = CipherInstance(builtin("tweakem4", P8), (table_f(8, 50),))
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randrange(256)
        tw = rng.randrange(256)
        pt = rng.randrange(1 << 16)
        ct = inst.encrypt_block(k ^ tw, pt)
        assert inst.decrypt_block(k ^ tw, ct) == pt


def test_tweakem4_per_tweak_bijection():
    inst = CipherInstance(builtin("tweakem4", P4), (table_f(4, 51),))
    for tw in (0, 5, 11):
        images = {inst.encrypt_block(6 ^ tw, w) for w in range(256)}
        assert len(images) == 256


def test_arity_mismatches():
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(builtin("minimal4", P8), (table_f(8, 1),) * 5)
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(builtin("minimal4", P8), (table_f(8, 1), table_f(8, 2)))
    with pytest.raises(ScheduleArityMismatch):
        check_construction("kafw", KafvSchedule(P8, (Z,) * 6))
    with pytest.raises(DomainError):
        check_construction("feistel", builtin("minimal4", P8))


def test_lucifer_schedule_instance_roundtrip():
    maps = tuple(identity_map(4) for _ in range(3))
    inst = CipherInstance(LuciferSchedule(P4, maps), tuple(table_f(4, 60 + i) for i in range(3)))
    for key in range(16):
        for word in range(0, 256, 7):
            assert inst.decrypt_block(key, inst.encrypt_block(key, word)) == word


def test_lucifer_instance_needs_a_schedule():
    with pytest.raises(ScheduleArityMismatch):
        CipherInstance(None, (table_f(4, 1), table_f(4, 2)))


def _random_maps(rng, p, count):
    """Random sub-key maps of every kind the file format has but the zero map."""
    maps = []
    while len(maps) < count:
        m = random_subkey_map(p, rng)
        if not isinstance(m, ZeroMap):
            maps.append(m)
    return tuple(maps)


def _schedule(construction, p, t, rng):
    """A seeded schedule of non-zero maps for `construction`."""
    if construction == "kafw":
        return KeySchedule(p, _random_maps(rng, p, 4), _random_maps(rng, p, t))
    if construction == "kaf":
        return KeySchedule(p, (Z,) * 4, _random_maps(rng, p, t))
    if construction == "kafv":
        return KafvSchedule(p, _random_maps(rng, p, t + 2))
    return LuciferSchedule(p, _random_maps(rng, p, t))


def _kat_instance(construction):
    rng = random.Random(f"kat-{construction}")
    if construction == "kafw":
        sched = KeySchedule(P4, _random_maps(rng, P4, 4), _random_maps(rng, P4, 4))
        return CipherInstance(sched, (RandomFunctionOracle(4, 11),))
    if construction == "kaf":
        fs = tuple(RandomPermutationOracle(4, 20 + i) for i in range(4))
        return CipherInstance(builtin("minimal4", P4), fs)
    if construction == "kafv":
        sched = KafvSchedule(P4, _random_maps(rng, P4, 7))
        return CipherInstance(sched, (RandomPermutationOracle(4, 12),))
    fs = tuple(RandomFunctionOracle(4, 30 + i) for i in range(3))
    return CipherInstance(LuciferSchedule(P4, _random_maps(rng, P4, 3)), fs)


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


def _reference_encrypt(inst, key, word):
    """Whitening around a composition of the one-round reference maps."""
    s, fs = inst.schedule, inst.round_functions
    t, n = s.t, s.params.n
    left, right = split(word, n)
    if isinstance(s, KeySchedule):
        state = (left ^ s.whitening_key(0, key), right ^ s.whitening_key(1, key))
        for i in range(1, t + 1):
            state = psi_round(state, s.round_key(i, key), fs[i - 1])
        return join((state[0] ^ s.whitening_key(2, key), state[1] ^ s.whitening_key(3, key)), n)
    if isinstance(s, KafvSchedule):
        state = (left, right ^ s.subkey(0, key))
        for i in range(1, t + 1):
            state = psi_tilde_round(state, s.subkey(i, key), fs[i - 1])
        return join((state[0] ^ s.subkey(t + 1, key), state[1]), n)
    state = (left, right)
    for i in range(1, t + 1):
        state = psi_tilde_round(state, s.round_key(i, key), fs[i - 1])
    return join(state, n)


@pytest.mark.parametrize("construction", ("kafw", "kaf", "kafv", "lucifer"))
def test_every_construction_is_whitening_around_reference_rounds(construction):
    rng = random.Random(f"differential-{construction}")
    for p in (P4, DomainParams.for_width(5), P8):
        for _ in range(6):
            t = rng.randrange(2, 7)
            fs = tuple(table_f(p.n, rng.randrange(1 << 30)) for _ in range(t))
            inst = CipherInstance(_schedule(construction, p, t, rng), fs)
            for _ in range(40):
                key, word = rng.randrange(p.N), rng.randrange(p.N * p.N)
                want = _reference_encrypt(inst, key, word)
                assert inst.encrypt_block(key, word) == want
                assert inst.decrypt_block(key, want) == word


def test_block_ops_match_a_fresh_instance_per_call():
    rng = random.Random(60)
    sched, star = _schedule("kafw", P4, 4, rng), _schedule("kafv", P4, 4, rng)
    f = table_f(4, 61)
    kafw_inst = CipherInstance(sched, (f,))
    kafv_inst = CipherInstance(star, (f,))
    ops = ("encrypt_block", "decrypt_block")
    key = 0
    for _ in range(2000):
        if rng.random() < 0.3:
            key = rng.randrange(16)
        inst, op = rng.choice((kafw_inst, kafv_inst)), rng.choice(ops)
        block = rng.randrange(256)
        fresh = CipherInstance(inst.schedule, (f,))
        assert getattr(inst, op)(key, block) == getattr(fresh, op)(key, block), (op, key, block)


def test_sweep_evaluates_each_layout_once_per_schedule_and_key(monkeypatch):
    """A block of whole keys evaluates their layouts in one `_key_columns`
    call; a key whose words split into several blocks (CHUNK = 4) passes as
    an int, whose layout is kept after its first block."""
    calls = Counter()
    reference, columns = feistel._reference_layout, feistel._key_columns

    def counted(s, key):
        calls[(type(s).__name__, id(s), key)] += 1
        return reference(s, key)

    def counted_columns(s, keys):
        for key in np.ravel(keys).tolist():
            calls[(type(s).__name__, id(s), key)] += 1
        return columns(s, keys)

    monkeypatch.setattr(feistel, "_reference_layout", counted)
    monkeypatch.setattr(feistel, "_key_columns", counted_columns)
    n, t = 3, 2
    N = 1 << n
    for chunk in (equivalence.CHUNK, 4):
        monkeypatch.setattr(equivalence, "CHUNK", chunk)
        calls.clear()
        assert equivalence.kafv_vs_kafw_sweep(n, t, seeds=(0,)).passed
        assert set(calls.values()) == {1}
        assert Counter(kind for kind, *_ in calls) == {"KafvSchedule": N, "KeySchedule": N}


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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer"])
def test_sweep_chain_takes_word_rows(construction, n):
    # A sweep passes one row of halves to two instances: neither may whiten
    # or round it in place.
    p = DomainParams.for_width(n)
    rng = random.Random(f"word-columns-{construction}-{n}")
    table = [rng.randrange(p.N) for _ in range(p.N)]
    words = np.arange(p.N * p.N, dtype=np.int64)[None]
    halves = words >> n, words & p.mask
    saved = [half.copy() for half in halves]
    for t in (2, 4) if construction == "lucifer" else (1, 2, 4):
        sched = _schedule(construction, p, t, rng)
        ints = CipherInstance(sched, (table.__getitem__,))
        columns = CipherInstance(sched, (np.array(table, dtype=np.int64).__getitem__,))
        key = rng.randrange(p.N)
        left, right = feistel._sweep_chain(columns, key, *halves)
        assert all(map(np.array_equal, halves, saved))
        assert (left << n | right).tolist() == [[ints.encrypt_block(key, w) for w in range(p.N * p.N)]]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("construction", ["kafw", "kaf", "kafv", "lucifer", "keyless"])
def test_sweep_chain_takes_key_columns(construction, n):
    """A (K, 1) column of keys against a (1, W) row of halves, as the sweeps
    run them, is the int loop over (key, word), K x W ciphertexts even when
    no sub-key depends on the key; neither operand is written into."""
    p = DomainParams.for_width(n)
    rng = random.Random(f"key-columns-{construction}-{n}")
    table = [rng.randrange(p.N) for _ in range(p.N)]
    keys = np.array([[0], *([rng.randrange(p.N)] for _ in range(5)), [p.N - 1]], dtype=np.int64)
    words = np.arange(p.N * p.N, dtype=np.int64)[None]
    halves = words >> n, words & p.mask
    saved = [keys.copy(), *(half.copy() for half in halves)]
    for t in (2, 4) if construction == "lucifer" else (1, 2, 4):
        if construction == "keyless":
            sched = KeySchedule(p, (Z,) * 4, (Z,) * t)
        else:
            sched = _schedule(construction, p, t, rng)
        ints = CipherInstance(sched, (table.__getitem__,))
        columns = CipherInstance(sched, (np.array(table, dtype=np.int64).__getitem__,))
        left, right = feistel._sweep_chain(columns, keys, *halves)
        assert all(map(np.array_equal, (keys, *halves), saved))
        assert left.shape == right.shape == (len(keys), p.N * p.N)
        assert (left << n | right).tolist() == [[ints.encrypt_block(k, w) for w in range(p.N * p.N)]
                                                for k in keys[:, 0].tolist()]
