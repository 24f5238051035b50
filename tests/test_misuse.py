"""Misuse of public entry points: each row is a call and the typed error it
raises, at the call itself rather than on some later use."""

import pytest

from kafw.errors import DomainError, ScheduleArityMismatch
from kafw.game import bound_formula
from kafw.feistel import CipherInstance
from kafw.gf2 import BinMatrix, DomainParams
from kafw.oracles import IdealCipherOracle, RandomFunctionOracle, RandomPermutationOracle, RelatedKeyOracle
from kafw.schedules import KafvSchedule, builtin, identity_map, kafv_to_kafw

P8 = DomainParams.for_width(8)


def _cipher():
    return CipherInstance(builtin("identity_bad(4)", P8), (RandomFunctionOracle(8, 1),))


MISUSE = [
    ("function oracle of width -1", lambda: RandomFunctionOracle(-1, 0), DomainError),
    ("permutation oracle of width -2", lambda: RandomPermutationOracle(-2, 0), DomainError),
    ("ideal cipher of width -1", lambda: IdealCipherOracle(-1, 0), DomainError),
    ("related-key oracle of width -1", lambda: RelatedKeyOracle(0, IdealCipherOracle(0, 0), -1), DomainError),
    ("related-key oracle with master key 2^n + 0xFF", lambda: RelatedKeyOracle(0x1FF, _cipher(), 8), DomainError),
    ("related-key oracle with master key -1", lambda: RelatedKeyOracle(-1, _cipher(), 8), DomainError),
    ("affine sub-key of key 2^n", lambda: _cipher().encrypt_block(256, 0), DomainError),
    ("affine sub-key of key -1", lambda: _cipher().encrypt_block(-1, 0), DomainError),
    ("empty matrix", lambda: BinMatrix(()), DomainError),
    ("matrix row 2^n", lambda: BinMatrix((1, 4)), DomainError),
    ("negative matrix row", lambda: BinMatrix((1, -1)), DomainError),
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
    assert RelatedKeyOracle(0, IdealCipherOracle(0, 5), 0).encrypt(0, 0) == 0
    assert RelatedKeyOracle(0xFF, _cipher(), 8).encrypt(0, 0) == _cipher().encrypt_block(0xFF, 0)
    assert BinMatrix((1, 3)).n == 2
    assert bound_formula(6, 1, 1, 1).value == 24
    kafv = KafvSchedule(P8, (identity_map(8),) * 4)
    assert kafv_to_kafw(kafv).t == 2
