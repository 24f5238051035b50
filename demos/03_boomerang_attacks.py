#!/usr/bin/env python3
"""The related-key distinguishers, run in both worlds.

Each attack returns 1 with probability 1 against the construction it
targets and with probability ~1/(N^2-1) against an ideal cipher, so a
handful of queries separates the worlds completely.
"""

from kafw import game
from kafw.game import ConstructionSpec
from kafw.gf2 import BinMatrix, DomainParams
from kafw.schedules import AffineSubkey, KeySchedule, ZeroMap, builtin, random_affine

P8 = DomainParams.for_width(8)
Z = ZeroMap()
TRIALS_REAL, TRIALS_IDEAL = 100, 5000


def ones(d, spec, trials, seed, world):
    return sum(outcome.bit for *_, outcome in game.iter_trials(d, spec, trials, seed, (world,)))


def show(name, d, spec, seed):
    real = ones(d, spec, TRIALS_REAL, seed, game.REAL)
    ideal = ones(d, spec, TRIALS_IDEAL, seed, game.IDEAL)
    print(
        f"{name:34s} real {real}/{TRIALS_REAL}   ideal {ideal}/{TRIALS_IDEAL}"
        f" (expected ~{TRIALS_IDEAL / 65535:.2f})"
    )


print("== 4-round boomerang: works against EVERY affine schedule ==")
spec = ConstructionSpec(
    P8, 4, lambda rng: random_affine(P8, 4, rng), "kafw", "permutation", single_f=False
)
show("fresh random affine schedule/trial", game.boomerang4_distinguisher(), spec, 1)

print("\n== 5-round switch boomerang: needs an offset with M1.d = M5.d ==")
spec = ConstructionSpec(P8, 5, builtin("bitperm_bad5", P8), "kafw", "permutation", False)
show("bitperm_bad5 (rotations)", game.switch5_distinguisher(), spec, 2)

print("\n== 5-round complementation boomerang: needs M1.d = M3.d ==")
rot = lambda r: AffineSubkey(BinMatrix.rotation(8, r))
m1_eq_m3 = KeySchedule(P8, (Z, Z, Z, Z), (rot(1), rot(2), rot(1), rot(3), rot(4)))
spec = ConstructionSpec(P8, 5, m1_eq_m3, "kafw", "permutation", False)
show("M1 = M3 rotation schedule", game.comp5_distinguisher(), spec, 3)

print("\n== Any-round complementation: 2 queries against identity schedules ==")
spec = ConstructionSpec(P8, 8, builtin("identity_bad(8)", P8), "kafw", "permutation", False)
show("identity_bad(8), 8 rounds", game.comp_any_distinguisher(), spec, 4)

print("\n== The same attacks refuse to run against the good schedules ==")
from kafw.attacks import any_round_differential, four_round_boomerang
from kafw.errors import NoWeakDelta, NotAffine

for name, attack in (("minimal4", lambda s: four_round_boomerang(None, s, 1)),
                     ("ortho6", lambda s: any_round_differential(None, s)),
                     ("filled6", lambda s: any_round_differential(None, s))):
    s = builtin(name, P8)
    try:
        attack(s)
    except (NotAffine, NoWeakDelta) as exc:
        print(f"{name:10s} -> {type(exc).__name__}: {exc}")
