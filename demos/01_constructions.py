#!/usr/bin/env python3
"""Tour of the cipher constructions: KAFw, KAF, KAFv, Lucifer, and tweaking.

Builds each construction at n=8 over seeded random round functions, shows a
round-trip, dumps one execution trace, and checks the two structural
identities (KAFv-to-KAFw conversion, Lucifer sandwich) at a glance.
"""

import random

from kafw.equivalence import kafv_vs_kafw_sweep, lucifer_sandwich_sweep
from kafw.feistel import CipherInstance
from kafw.gf2 import DomainParams
from kafw.oracles import RandomFunctionOracle
from kafw.schedules import builtin, random_affine

P8 = DomainParams.for_width(8)

print("== KAFw with a random affine schedule ==")
schedule = random_affine(P8, 4, random.Random(0))
f = RandomFunctionOracle(8, seed=42)
inst = CipherInstance(schedule, (f,))
key, pt = 0x3C, 0x1234
ct = inst.encrypt_block(key, pt)
print(f"key={key:02x}  plaintext={pt:04x}  ciphertext={ct:04x}")
assert inst.decrypt_block(key, ct) == pt
print("decrypt(encrypt(w)) == w  ok")

print("\n== Execution trace (x_i = function input, y_i = output) ==")
trace = []
inst.encrypt_block(key, pt, trace)
for i, (x, y, (left, right)) in enumerate(trace, start=1):
    print(f"round {i}: x={x:02x} y={y:02x} state={left:02x}{right:02x}")

print("\n== Tweakable wrapper: tweak XORed into the key ==")
tweak_inst = CipherInstance(builtin("tweakem4", P8), (RandomFunctionOracle(8, 7),))
for tweak in (0x00, 0x01, 0xFF):
    c = tweak_inst.encrypt_block(key ^ tweak, pt)
    print(f"tweak={tweak:02x} -> {c:04x}")

print("\n== Structural identities at n=4, exhaustive ==")
for t in (2, 4, 6):
    r = kafv_vs_kafw_sweep(4, t, seeds=(0,))
    print(f"KAFv == converted KAFw, t={t}: {r.cases} cases, {r.mismatches} mismatches")
r = lucifer_sandwich_sweep(4, 4, seeds=(0,))
print(f"Lucifer == keyless outer rounds o KAFv core: {r.cases} cases, {r.mismatches} mismatches")
