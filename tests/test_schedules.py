"""Schedule representations, transformations, and the builtin catalog."""

import hashlib
import random

import pytest

from kafw.errors import DomainError, NotAffine, OddN, TooFewRounds, UnknownName
from kafw.gf2 import (
    REDUCTION_POLYNOMIALS, BinMatrix, DomainParams, gf_cube, gf_mul, is_orthomorphism, mat_is_invertible, mat_vec,
)
from kafw import schedules
from kafw.schedules import (
    BUILTIN_NAMES,
    AffineSubkey,
    FieldCubicSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    XorSubkey,
    ZeroMap,
    builtin,
    identity_map,
    is_builtin,
    kafv_to_kafw,
    lucifer_strip,
    ortho_map,
    random_affine,
    random_affine_map,
)

P4 = DomainParams.for_width(4)
P8 = DomainParams.for_width(8)
Z = ZeroMap()


def rand_affine_map(p, rng):
    return AffineSubkey(
        BinMatrix(tuple(rng.randrange(p.N) for _ in range(p.n))), rng.randrange(p.N)
    )


def test_kafv_to_kafw_zero_schedule():
    star = KafvSchedule(P4, (Z,) * 6)
    conv = kafv_to_kafw(star)
    for k in range(16):
        assert all(conv.whitening_key(j, k) == 0 for j in range(4))
        assert all(conv.round_key(i, k) == 0 for i in range(1, 5))


def test_kafv_to_kafw_t4_structure():
    rng = random.Random(0)
    maps = tuple(rand_affine_map(P4, rng) for _ in range(6))
    star = KafvSchedule(P4, maps)
    conv = kafv_to_kafw(star)
    sv = lambda i, k: maps[i].value(k, P4)
    for k in range(16):
        assert conv.round_key(1, k) == sv(0, k)
        assert conv.round_key(2, k) == sv(1, k)
        assert conv.round_key(3, k) == sv(0, k) ^ sv(2, k)
        assert conv.round_key(4, k) == sv(1, k) ^ sv(3, k)
        assert conv.whitening_key(0, k) == 0
        assert conv.whitening_key(1, k) == 0
        assert conv.whitening_key(2, k) == conv.round_key(4, k) ^ sv(5, k)
        assert conv.whitening_key(3, k) == conv.round_key(3, k) ^ sv(4, k)


def test_kafv_to_kafw_t6_matrix_identities():
    rng = random.Random(1)
    star = KafvSchedule(P8, tuple(rand_affine_map(P8, rng) for _ in range(8)))
    conv = kafv_to_kafw(star)
    # The conversion makes gamma_1 ^ gamma_3 = gamma*_2 and gamma_4 ^ gamma_6 = gamma*_5.
    assert conv.gamma_matrix(1) ^ conv.gamma_matrix(3) == star.star_matrix(2)
    assert conv.gamma_matrix(4) ^ conv.gamma_matrix(6) == star.star_matrix(5)


def test_kafv_to_kafw_too_few_rounds():
    with pytest.raises(TooFewRounds):
        kafv_to_kafw(KafvSchedule(P4, (Z, Z, Z)))  # t = 1


def test_lucifer_strip_shapes():
    fs = [object() for _ in range(5)]
    keys = [1, 2, 3, 4, 5]
    parts = lucifer_strip(fs, keys)
    assert parts.outer_first is fs[0] and parts.outer_last is fs[4]
    assert parts.core_functions == tuple(fs[1:4])
    assert parts.core_subkeys == (1, 2, 3, 4, 5)
    smallest = lucifer_strip(fs[:3], keys[:3])
    assert len(smallest.core_functions) == 1  # one-round core
    with pytest.raises(TooFewRounds):
        lucifer_strip(fs[:2], keys[:2])


def test_builtin_minimal4_values():
    s = builtin("minimal4", P8)
    assert s.t == 4 and s.has_zero_whitening()
    assert isinstance(s.round_keys[0], FieldCubicSubkey)
    assert s.round_keys[1].is_zero(P8) and s.round_keys[2].is_zero(P8)


def test_builtin_ortho6_and_filled6():
    s = builtin("ortho6", P8)
    assert s.t == 6 and s.has_zero_whitening()
    pi = s.gamma_matrix(6)
    assert is_orthomorphism(lambda x: mat_vec(pi, x), 8)
    f = builtin("filled6", P8)
    for k in range(0, 256, 17):
        assert f.round_key(1, k) == k == f.round_key(2, k)
        assert f.round_key(3, k) == mat_vec(pi, k) == f.round_key(6, k)
    with pytest.raises(OddN):
        builtin("ortho6", DomainParams.for_width(5))
    with pytest.raises(OddN):
        builtin("filled6", DomainParams.for_width(7))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_ortho_map_is_orthomorphism_every_even_width(n):
    m = ortho_map(n).m
    assert is_orthomorphism(lambda x: mat_vec(m, x), n)
    assert mat_is_invertible(m)
    assert mat_is_invertible(m ^ BinMatrix.identity(n))


def test_builtin_tweakem4():
    s = builtin("tweakem4", P8)
    assert isinstance(s.whitening[1], FieldCubicSubkey)
    assert isinstance(s.whitening[2], FieldCubicSubkey)
    assert s.whitening[0].is_zero(P8) and s.whitening[3].is_zero(P8)
    assert all(m.is_zero(P8) for m in s.round_keys)
    # Audited quantities coincide with minimal4's.
    mini = builtin("minimal4", P8)
    for k in range(256):
        assert s.phi1_map().value(k, P8) == mini.phi1_map().value(k, P8)
        assert s.phi_last_map().value(k, P8) == mini.phi_last_map().value(k, P8)


def test_builtin_identity_bad_and_name_parsing():
    s = builtin("identity_bad(7)", P8)
    assert s.t == 7
    for k in (0, 1, 255):
        assert all(s.round_key(i, k) == k for i in range(1, 8))
    s2 = builtin("identity_bad", P8, rounds=3)
    assert s2.t == 3
    assert builtin("identity_bad(7)", P8, rounds=3).t == 7  # the name wins
    with pytest.raises(UnknownName):
        builtin("identity_bad", P8)
    with pytest.raises(UnknownName):
        builtin("minimal4(3)", P8)
    with pytest.raises(UnknownName):
        builtin("nonesuch", P8)


def test_builtin_bitperm_bad5():
    s = builtin("bitperm_bad5", P8)
    assert s.t == 5
    all_ones = 0xFF
    assert mat_vec(s.gamma_matrix(1), all_ones) == all_ones
    assert mat_vec(s.gamma_matrix(5), all_ones) == all_ones
    ms = [s.gamma_matrix(i) for i in range(1, 6)]
    assert len({m.rows for m in ms}) == 5
    with pytest.raises(ValueError):
        builtin("bitperm_bad5", P4)


def test_affine_linearity_probe():
    # Evaluating at k and k ^ a differs by M.a; constants cancel.
    rng = random.Random(9)
    for _ in range(40):
        m = rand_affine_map(P8, rng)
        a = rng.randrange(256)
        k = rng.randrange(256)
        assert m.value(k ^ a, P8) ^ m.value(k, P8) == mat_vec(m.m, a)


def test_xor_map_affine_introspection():
    rng = random.Random(4)
    a, b = rand_affine_map(P8, rng), rand_affine_map(P8, rng)
    x = XorSubkey((a, b, Z))
    assert x.is_affine
    assert x.matrix(P8) == a.m ^ b.m
    for k in (0, 3, 200):
        assert x.value(k, P8) == a.value(k, P8) ^ b.value(k, P8)
    mixed = XorSubkey((a, FieldCubicSubkey(2)))
    assert not mixed.is_affine
    with pytest.raises(NotAffine):
        mixed.matrix(P8)


def test_a_schedule_is_affine_when_every_map_it_holds_is():
    """One `is_affine` over the slots for every schedule class: the zero
    slots KAFv and Lucifer add are affine, so only the maps decide."""
    rng = random.Random(5)
    cubic = FieldCubicSubkey(2)
    for t in (2, 3):
        for bad in (None, *range(t)):
            maps = [cubic if i == bad else rand_affine_map(P8, rng) for i in range(t)]
            want = bad is None
            assert KeySchedule(P8, (Z,) * 4, tuple(maps)).is_affine is want
            assert KeySchedule(P8, (Z, Z, cubic, Z), tuple(maps)).is_affine is False
            assert KafvSchedule(P8, tuple(maps)).is_affine is want
            assert LuciferSchedule(P8, tuple(maps)).is_affine is want


def test_phi_maps_and_arity():
    s = builtin("minimal4", P8)
    phi1 = s.phi1_map()
    phi4 = s.phi_last_map()
    for k in range(0, 256, 11):
        assert phi1.value(k, P8) == s.round_key(1, k)
        assert phi4.value(k, P8) == s.round_key(4, k)
    s6 = builtin("ortho6", P8)
    assert s6.phi_last_map().value(5, P8) == s6.round_key(6, 5)


def test_random_affine_is_deterministic_per_rng():
    a = random_affine(P8, 4, random.Random(77))
    b = random_affine(P8, 4, random.Random(77))
    for k in (0, 9, 254):
        assert [a.round_key(i, k) for i in range(1, 5)] == [
            b.round_key(i, k) for i in range(1, 5)
        ]
        assert [a.whitening_key(j, k) for j in range(4)] == [
            b.whitening_key(j, k) for j in range(4)
        ]


class RandomByRandom(random.Random):
    """Overrides random() alone, so its randrange draws through random()."""

    def random(self):
        return super().random()


def randrange_affine(p, t, rng):
    """random_affine written with randrange: t + 4 maps, each its n rows
    then its constant."""
    maps = [rand_affine_map(p, rng) for _ in range(t + 4)]
    return KeySchedule(p, tuple(maps[:4]), tuple(maps[4:]))


@pytest.mark.parametrize("cls, seeds", [(random.Random, 300), (RandomByRandom, 60)])
def test_random_affine_equals_the_randrange_reference(cls, seeds):
    """random_affine, then random_affine_map: the same maps, and the
    generator left in the same state, for n = 2..16 over `seeds` seeds each."""
    for n in range(2, 17):
        p = DomainParams.for_width(n)
        for seed in range(seeds):
            t = 1 + seed % 4
            fast, ref = cls(seed), cls(seed)
            assert random_affine(p, t, fast) == randrange_affine(p, t, ref), (n, seed)
            assert random_affine_map(p, fast) == rand_affine_map(p, ref), (n, seed)
            assert fast.getstate() == ref.getstate(), (n, seed)


def test_a_random_only_subclass_draws_by_random():
    assert RandomByRandom._randbelow is random.Random._randbelow_without_getrandbits
    assert not schedules._randrange_by_getrandbits(RandomByRandom(0))
    assert schedules._randrange_by_getrandbits(random.Random(0))


@pytest.mark.parametrize("cls", [random.Random, RandomByRandom])
def test_sample_range_equals_random_sample(cls):
    """The same list and generator state as Random.sample(range(N), k),
    either side of stdlib's switch from its pool branch to its set branch
    (N > 21 for k <= 5, N > 85 for k = 6), and where the birthday attack
    samples (N = 2^16, k = 512)."""
    cases = [(N, k) for N in (1, 5, 21, 22, 85, 86, 256) for k in (0, 1, 5, 6, N) if k <= N]
    cases += [(1 << 16, 512), (1 << 16, 1 << 12), (86, 7)]
    for seed, (N, k) in enumerate(cases * 3):
        fast, ref = cls(seed), cls(seed)
        fast.random(), ref.random()  # a state mid-stream, not a fresh one
        assert schedules._sample_range(fast, N, k) == ref.sample(range(N), k), (N, k)
        assert fast.getstate() == ref.getstate(), (N, k)
    for N, k in ((5, 6), (100, -1)):
        with pytest.raises(ValueError, match="Sample larger than population or is negative"):
            schedules._sample_range(random.Random(0), N, k)


def test_gamma_matrix_not_affine():
    s = builtin("minimal4", P8)
    with pytest.raises(NotAffine):
        s.gamma_matrix(1)
    assert s.gamma_matrix(2) == BinMatrix.zero(8)


def test_identity_map_matrix():
    m = identity_map(6)
    for k in range(64):
        assert m.value(k, DomainParams.for_width(6)) == k


@pytest.mark.parametrize("name, n", [
    ("bitperm_bad5", 4),
])
def test_builtin_parameter_errors_are_domain_errors(name, n):
    with pytest.raises(DomainError):
        builtin(name, DomainParams.for_width(n))


def test_is_builtin():
    assert all(is_builtin(name) for name in BUILTIN_NAMES)
    assert is_builtin("identity_bad(9)") and is_builtin("minimal4(3)")
    assert not is_builtin("data/strong5.sched")


def _multipliers(p, rng):
    return (0, 1, 2, p.N - 1, rng.randrange(p.N))


@pytest.mark.parametrize("n", range(2, 11))
def test_field_cubic_value_is_the_cubic_at_every_key(n):
    # value computes k (x) (m ^ k^2); the definition reads m (x) k ^ k^3.
    p, rng = DomainParams.for_width(n), random.Random(n)
    for m in _multipliers(p, rng):
        f = FieldCubicSubkey(m)
        assert [f.value(k, p) for k in range(p.N)] == [gf_mul(m, k, p) ^ gf_cube(k, p) for k in range(p.N)]


@pytest.mark.parametrize("n", range(11, 33))
def test_field_cubic_value_is_the_cubic_on_samples(n):
    p, rng = DomainParams.for_width(n), random.Random(n)
    keys = [0, 1, p.N - 1] + [rng.randrange(p.N) for _ in range(300)]
    for m in _multipliers(p, rng):
        f = FieldCubicSubkey(m)
        assert [f.value(k, p) for k in keys] == [gf_mul(m, k, p) ^ gf_cube(k, p) for k in keys]


def test_field_cubic_value_rejects_a_multiplier_or_key_outside_the_field():
    for m, k in ((P8.N, 3), (-1, 3), (2, P8.N), (2, -1), (P8.N, 0)):
        with pytest.raises(DomainError):
            FieldCubicSubkey(m).value(k, P8)


def test_field_cubic_tables_keep_their_digest():
    # Every table for n = 2..16 and a spread of multipliers, pinned byte for
    # byte: any changed entry changes the digest.
    digest = hashlib.sha256()
    for n in range(2, 17):
        N = 1 << n
        for m in sorted({0, 1, 2, 3, N - 1, N // 3}):
            digest.update(bytes(schedules._field_cubic_table(m, n, REDUCTION_POLYNOMIALS[n])))
    assert digest.hexdigest() == "5c22b0eda6008d9a1233c378034d7ab78de4a9684e337e446a339cf3e75b1f98"
