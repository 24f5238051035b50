"""Misuse of public entry points: each row is a call and the typed error it
raises, at the call itself rather than on some later use."""

import pytest

from kafw.errors import DomainError, ScheduleArityMismatch
from kafw.game import bound_formula
from kafw.gf2 import DomainParams
from kafw.oracles import IdealCipherOracle, RandomFunctionOracle, RandomPermutationOracle
from kafw.schedules import KafvSchedule, builtin, identity_map, kafv_to_kafw

P8 = DomainParams.for_width(8)

MISUSE = [
    ("function oracle of width -1", lambda: RandomFunctionOracle(-1, 0), DomainError),
    ("permutation oracle of width -2", lambda: RandomPermutationOracle(-2, 0), DomainError),
    ("ideal cipher of width -1", lambda: IdealCipherOracle(-1, 0), DomainError),
    *[
        (f"theorem {theorem} bound with N = 0", lambda theorem=theorem: bound_formula(theorem, 1, 1, 0), DomainError)
        for theorem in (1, 2, 5, 6)
    ],
    ("kafv_to_kafw of a KAFw schedule", lambda: kafv_to_kafw(builtin("minimal4", P8)), ScheduleArityMismatch),
    ("kafv_to_kafw of no schedule", lambda: kafv_to_kafw(None), ScheduleArityMismatch),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in MISUSE], ids=[row[0] for row in MISUSE])
def test_misuse_raises_its_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_the_edge_of_each_domain_still_works():
    for oracle in (RandomFunctionOracle(0, 5), RandomPermutationOracle(0, 5)):
        assert oracle(0) == 0  # width 0: the one-point domain
    assert IdealCipherOracle(0, 5).encrypt_block(0, 0) == 0
    assert bound_formula(6, 1, 1, 1).value == 24
    kafv = KafvSchedule(P8, (identity_map(8),) * 4)
    assert kafv_to_kafw(kafv).t == 2
