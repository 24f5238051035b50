"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines print
regardless of capture).  Every tolerance is pinned here; nothing is
calibrated at run time.
"""

import random
import time
from fractions import Fraction

import pytest

from kafw import game
from kafw.attacks import any_round_differential, four_round_boomerang
from kafw.auditor import measure_axu, measure_cross_uniformity, measure_uniformity
from kafw.equivalence import kafv_vs_kafw_sweep, lucifer_sandwich_sweep
from kafw.errors import NoWeakDelta, NotAffine
from kafw.feistel import CipherInstance
from kafw.game import ConstructionSpec, WorldSpec, bound_formula
from kafw.gf2 import BinMatrix, DomainParams, gf_mul
from kafw.oracles import (
    RandomFunctionOracle,
    RandomPermutationOracle,
    derive_seed,
)
from kafw.schedules import (
    AffineSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    ZeroMap,
    builtin,
    random_affine,
)

P3 = DomainParams.for_width(3)
P4 = DomainParams.for_width(4)
P8 = DomainParams.for_width(8)
P16 = DomainParams.for_width(16)
Z = ZeroMap()


def report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def run_world(d, spec, kind, trials, base_seed):
    world = WorldSpec(kind, spec)
    hits = 0
    for i in range(trials):
        hits += game.run_trial(d, world, derive_seed(base_seed, kind, i))
    return hits


def test_criterion_1_four_round_boomerang(capsys):
    started = time.monotonic()
    spec = ConstructionSpec(
        P8, 4, lambda rng: random_affine(P8, 4, rng), "kafw", "permutation", single_f=False
    )
    d = game.boomerang4_distinguisher()
    real_hits = run_world(d, spec, game.REAL, 200, 101)
    ideal_hits = run_world(d, spec, game.IDEAL, 10_000, 101)
    elapsed = time.monotonic() - started
    p_real = real_hits / 200
    p_ideal = ideal_hits / 10_000
    advantage = p_real - p_ideal
    ok = real_hits == 200 and p_ideal <= 0.01 and advantage >= 0.99 and elapsed < 10.0
    report(
        capsys,
        f"ACCEPTANCE 1 {'PASS' if ok else 'FAIL'}: 4-round boomerang "
        f"real {real_hits}/200, ideal {p_ideal:.5f}, adv {advantage:.4f}, {elapsed:.1f}s",
    )
    assert real_hits == 200
    assert p_ideal <= 0.01
    assert advantage >= 0.99
    assert elapsed < 10.0


def test_criterion_2_five_round_switch(capsys):
    spec = ConstructionSpec(
        P8, 5, builtin("bitperm_bad5", P8), "kafw", "permutation", single_f=False
    )
    d = game.switch5_distinguisher()
    real_hits = run_world(d, spec, game.REAL, 200, 202)
    ideal_hits = run_world(d, spec, game.IDEAL, 10_000, 202)
    p_ideal = ideal_hits / 10_000
    ok = real_hits == 200 and p_ideal <= 0.01
    report(
        capsys,
        f"ACCEPTANCE 2 {'PASS' if ok else 'FAIL'}: 5-round switch boomerang "
        f"real {real_hits}/200, ideal {p_ideal:.5f}",
    )
    assert real_hits == 200
    assert p_ideal <= 0.01


def test_criterion_3_any_round_complementation(capsys):
    spec = ConstructionSpec(
        P8, 8, builtin("identity_bad(8)", P8), "kafw", "permutation", single_f=False
    )
    d = game.comp_any_distinguisher()
    world = WorldSpec(game.REAL, spec)
    real_hits = 0
    for i in range(200):
        out = game.run_trial_detailed(d, world, derive_seed(303, game.REAL, i))
        assert out.q_e_used == 2
        real_hits += out.bit
    ideal_hits = run_world(d, spec, game.IDEAL, 10_000, 303)
    p_ideal = ideal_hits / 10_000
    ok = real_hits == 200 and p_ideal <= 0.01
    report(
        capsys,
        f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'}: any-round complementation "
        f"real {real_hits}/200 at exactly 2 queries, ideal {p_ideal:.5f}",
    )
    assert real_hits == 200
    assert p_ideal <= 0.01


def test_criterion_4_delta_bounds(capsys):
    started = time.monotonic()
    mini = builtin("minimal4", P8)
    phi1 = mini.bind(mini.round_keys[0])
    phi4 = mini.bind(mini.round_keys[3])
    d1 = max(measure_uniformity(phi1, 8), measure_uniformity(phi4, 8))
    d2 = max(measure_axu(phi1, 8), measure_axu(phi4, 8))
    d3 = measure_cross_uniformity(phi1, phi4, 8)
    elapsed = time.monotonic() - started
    ok = d1 <= 3 and d2 <= 2 and d3 <= 2 and elapsed < 60.0
    report(
        capsys,
        f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: exhaustive deltas x N = "
        f"({d1}, {d2}, {d3}) vs (3, 2, 2), {elapsed:.1f}s",
    )
    assert d1 <= 3 and d2 <= 2 and d3 <= 2
    assert elapsed < 60.0


def test_criterion_5_structural_equivalences(capsys):
    total_cases = 0
    mismatches = 0
    for t in range(2, 7):
        res = kafv_vs_kafw_sweep(4, t, seeds=(0, 1, 2))
        assert res.cases == 3 * 16 * 256
        total_cases += res.cases
        mismatches += res.mismatches
    luc = lucifer_sandwich_sweep(4, 4, seeds=(0, 1, 2))
    assert luc.cases == 3 * 16 * 256
    total_cases += luc.cases
    mismatches += luc.mismatches
    ok = mismatches == 0
    report(
        capsys,
        f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: kafv->kafw (t=2..6) and lucifer "
        f"sandwich, {total_cases} cases, {mismatches} mismatches",
    )
    assert mismatches == 0


def test_criterion_6_good_schedule_robustness(capsys):
    mini = builtin("minimal4", P8)
    ortho = builtin("ortho6", P8)
    filled = builtin("filled6", P8)

    # Affine attacks must refuse to run, without touching the oracle.
    dummy_rk = None  # preconditions fire before any query is possible
    with pytest.raises(NotAffine):
        four_round_boomerang(dummy_rk, mini, 1)
    with pytest.raises(NotAffine):
        any_round_differential(dummy_rk, mini)
    for sched in (ortho, filled):
        with pytest.raises(NoWeakDelta):
            any_round_differential(dummy_rk, sched)

    # Desk-scale probes: a structural quartet and a tiny birthday attack.
    worst = 0.0
    lines = []
    for name, sched, rounds in (
        ("minimal4", mini, 4),
        ("ortho6", ortho, 6),
        ("filled6", filled, 6),
    ):
        spec = ConstructionSpec(P8, rounds, sched, "kafw", "function", True)
        for d in (game.quartet_probe_distinguisher(), game.birthday_distinguisher(2, 2, rounds)):
            est = game.estimate_advantage(d, spec, 10_000, derive_seed(606, name, d.name))
            worst = max(worst, est.advantage)
            lines.append(f"{name}/{d.name}={est.advantage:.4f}")
            assert est.advantage <= 0.05

    # Published bounds at the probes' budgets: vacuous where > 1.
    deltas = (Fraction(3, 256), Fraction(2, 256), Fraction(2, 256))
    b1 = bound_formula(1, 0, 4, 256, *deltas)
    b2 = bound_formula(2, 0, 4, 256, *deltas)
    b5 = bound_formula(5, 0, 4, 256)
    b6 = bound_formula(6, 0, 4, 256)
    assert b1.vacuous and b5.vacuous and b6.vacuous
    assert not b2.vacuous
    assert worst <= float(b2.value)  # measurements stay under the one live bound
    ok = worst <= 0.05
    report(
        capsys,
        f"ACCEPTANCE 6 {'PASS' if ok else 'FAIL'}: advantages {'; '.join(lines)}; "
        f"bounds T1={float(b1.value):.3f} (vacuous), T2={float(b2.value):.3f}, "
        f"T5={float(b5.value):.3f} (vacuous), T6={float(b6.value):.3f} (vacuous)",
    )


def test_criterion_7_birthday_attack(capsys):
    spec = ConstructionSpec(P16, 4, builtin("minimal4", P16), "kafw", "function", True)
    d = game.birthday_distinguisher(512, 512, 4)
    real_hits = run_world(d, spec, game.REAL, 100, 707)
    ideal_hits = run_world(d, spec, game.IDEAL, 1000, 707)
    rate_real = real_hits / 100
    rate_ideal = ideal_hits / 1000
    ok = rate_real >= 0.9 and rate_ideal <= 0.01
    report(
        capsys,
        f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'}: birthday n=16 q_e=q_g=512 "
        f"real {rate_real:.2f} (>=0.9), ideal {rate_ideal:.4f} (<=0.01)",
    )
    assert rate_real >= 0.9
    assert rate_ideal <= 0.01


def _table_f(n, seed):
    oracle = RandomFunctionOracle(n, seed)
    return [oracle.query(x) for x in range(1 << n)].__getitem__


def test_criterion_8_core_properties(capsys):
    rng = random.Random(808)
    checks = 0

    # 100k random encrypt/decrypt round trips across all four constructions.
    kafw_inst = CipherInstance(random_affine(P8, 4, rng), (_table_f(8, 1),))
    kaf_inst = CipherInstance(builtin("minimal4", P8), (_table_f(8, 2),))
    star = KafvSchedule(P8, tuple(random_affine(P8, 6, rng).round_keys) + (Z, Z))
    kafv_inst = CipherInstance(KafvSchedule(P8, star.maps), (_table_f(8, 3),))
    luc_maps = LuciferSchedule(P8, tuple(random_affine(P8, 4, rng).round_keys))
    luc_inst = CipherInstance(luc_maps, tuple(_table_f(8, 10 + i) for i in range(4)))
    for inst, count in ((kafw_inst, 30_000), (kaf_inst, 20_000), (kafv_inst, 25_000), (luc_inst, 25_000)):
        for _ in range(count):
            key = rng.randrange(256)
            block = rng.randrange(65536)
            assert inst.decrypt_block(key, inst.encrypt_block(key, block)) == block
            checks += 1
    assert checks == 100_000

    # Exhaustive bijectivity of KAFw over a non-invertible round function at n=4.
    f = _table_f(4, 4)
    small = CipherInstance(random_affine(P4, 4, rng), (f,))
    for key in range(16):
        images = {small.encrypt_block(key, w) for w in range(256)}
        assert len(images) == 256

    # Oracle permutation consistency under randomized interleavings.
    perm = RandomPermutationOracle(8, 5)
    for _ in range(2000):
        v = rng.randrange(256)
        if rng.random() < 0.5:
            assert perm.backward(perm.forward(v)) == v
        else:
            assert perm.forward(perm.backward(v)) == v

    # Field axioms sampled at n in {3, 8}.
    for p in (P3, P8):
        for _ in range(300):
            a, b, c = (rng.randrange(p.N) for _ in range(3))
            assert gf_mul(a, gf_mul(b, c, p), p) == gf_mul(gf_mul(a, b, p), c, p)
            assert gf_mul(a, b, p) == gf_mul(b, a, p)
            assert gf_mul(a, b ^ c, p) == gf_mul(a, b, p) ^ gf_mul(a, c, p)

    # Orthomorphism schedule map at every even width up to 16.
    from kafw.gf2 import is_orthomorphism, mat_vec
    from kafw.schedules import ortho_map

    for n in range(2, 17, 2):
        m = ortho_map(n).m
        assert is_orthomorphism(lambda x, _m=m: mat_vec(_m, x), n)

    report(
        capsys,
        "ACCEPTANCE 8 PASS: 100000 round trips, exhaustive n=4 bijectivity, "
        "oracle consistency, field axioms (n=3,8), orthomorphisms (even n<=16)",
    )


def test_criterion_9_five_round_complementation_boomerang(capsys):
    # Validation of the reconstructed quartet (primary branch of the open
    # question): probability-1 over fresh schedules-of-form, keys, functions.
    rot = lambda r: AffineSubkey(BinMatrix.rotation(8, r))
    sched = KeySchedule(P8, (Z, Z, Z, Z), (rot(1), rot(2), rot(1), rot(3), rot(4)))
    spec = ConstructionSpec(P8, 5, sched, "kafw", "permutation", single_f=False)
    d = game.comp5_distinguisher()
    real_hits = run_world(d, spec, game.REAL, 200, 909)
    ideal_hits = run_world(d, spec, game.IDEAL, 10_000, 909)
    p_ideal = ideal_hits / 10_000
    ok = real_hits == 200 and p_ideal <= 0.01
    report(
        capsys,
        f"ACCEPTANCE 9 {'PASS' if ok else 'FAIL'}: 5-round complementation boomerang, "
        f"branch=primary (quartet reconstruction validated; no fallback needed), "
        f"real {real_hits}/200, ideal {p_ideal:.5f}",
    )
    assert real_hits == 200
    assert p_ideal <= 0.01
