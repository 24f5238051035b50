"""Key-alternating Feistel ciphers with whitening keys and their related-key analysis.

Subpackage map:

- gf2:         GF(2^n) arithmetic and F2 matrix algebra
- oracles:     seeded random function / permutation / ideal-cipher /
               related-key oracles
- schedules:   sub-key map kinds, builtin schedules, structural transforms
- schedfile:   the schedule spec file format
- feistel:     KAFw / KAF / KAFv / Lucifer encryption on words or word columns
- auditor:     exhaustive key-schedule goodness measurements
- attacks:     boomerang, complementation, and birthday distinguishers
- game:        the real-vs-ideal distinguishing game and advantage bounds
- equivalence: exhaustive structural identity sweeps
- cli:         the `kafw` command-line front end
"""

from .gf2 import BinMatrix, DomainParams, gf_cube, gf_mul, is_orthomorphism, mat_is_invertible, mat_kernel_basis, mat_vec
from .feistel import CipherInstance
from .schedules import KafvSchedule, KeySchedule, LuciferSchedule, builtin, kafv_to_kafw, lucifer_strip
from .oracles import (
    IdealCipherOracle,
    RandomFunctionOracle,
    RandomPermutationOracle,
    RelatedKeyOracle,
)
from .game import ConstructionSpec, WorldSpec, bound_formula, estimate_advantage, run_trial

__all__ = [
    "BinMatrix",
    "CipherInstance",
    "ConstructionSpec",
    "DomainParams",
    "IdealCipherOracle",
    "KafvSchedule",
    "KeySchedule",
    "LuciferSchedule",
    "RandomFunctionOracle",
    "RandomPermutationOracle",
    "RelatedKeyOracle",
    "WorldSpec",
    "bound_formula",
    "builtin",
    "estimate_advantage",
    "gf_cube",
    "gf_mul",
    "is_orthomorphism",
    "kafv_to_kafw",
    "lucifer_strip",
    "mat_is_invertible",
    "mat_kernel_basis",
    "mat_vec",
    "run_trial",
]
