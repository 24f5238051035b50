"""Key-schedule representations, concrete instances, and structural transformations.

A schedule is a tuple of sub-key maps, each an n-bit to n-bit transformation
of the master key.  Map kinds: zero, affine (F2 matrix plus constant),
field-affine-cubic (m (x) k ^ k^3 over GF(2^n)), or a finite XOR of other
maps.  Affine maps expose their matrix so attack and audit code can reason
about differences; everything else raises NotAffine.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Sequence

from .errors import (
    ArityMismatch,
    DomainError,
    NotAffine,
    OddN,
    ScheduleArityMismatch,
    TooFewRounds,
    UnknownName,
)
from .gf2 import MAX_EXHAUSTIVE_N, BinMatrix, DomainParams, gf_mul, mat_vec


class SubkeyMap:
    """Base class; subclasses implement value() and the affine introspection."""

    is_affine = False

    def value(self, k: int, p: DomainParams) -> int:
        raise NotImplementedError

    def matrix(self, p: DomainParams) -> BinMatrix:
        raise NotAffine(f"{type(self).__name__} has no matrix form")

    def is_zero(self, p: DomainParams) -> bool:
        return False

    def values(self, keys, p: DomainParams):
        """value(k, p) for each k of an int64 array of keys in [0, N), as an
        int64 array of the keys' shape, or the int 0 for a zero map.

        Callers evaluate keys outside [0, N) with value() itself.
        """
        if self.is_zero(p):
            return 0
        import numpy as np

        return np.fromiter(map(self.value, keys.ravel().tolist(), repeat(p)), np.int64, keys.size).reshape(keys.shape)


@dataclass(frozen=True)
class ZeroMap(SubkeyMap):
    is_affine = True

    def value(self, k, p):
        return 0

    def matrix(self, p):
        return BinMatrix.zero(p.n)

    def is_zero(self, p):
        return True


_ZERO = ZeroMap()


@dataclass(frozen=True)
class AffineSubkey(SubkeyMap):
    """k -> M.k ^ C over F2."""

    m: BinMatrix
    c: int = 0
    is_affine = True

    def value(self, k, p):
        return mat_vec(self.m, k) ^ self.c

    def matrix(self, p):
        return self.m

    def is_zero(self, p):
        return self.c == 0 and not any(self.m.rows)


@dataclass(frozen=True)
class FieldCubicSubkey(SubkeyMap):
    """k -> multiplier (x) k ^ k^3 over GF(2^n); non-linear for any multiplier."""

    multiplier: int

    def value(self, k, p):
        # m (x) k ^ k^3 = k (x) (m ^ k^2): two products.  m ^ k^2 lies
        # outside the field exactly when m does, so gf_mul rejects both.
        return gf_mul(k, self.multiplier ^ gf_mul(k, k, p), p)

    def values(self, keys, p):
        """One gather from the map's table of all N values for n <=
        MAX_EXHAUSTIVE_N, key by key above.  A multiplier outside the field
        raises DomainError either way, as value() does."""
        if p.n > MAX_EXHAUSTIVE_N:
            return super().values(keys, p)
        import numpy as np

        return _field_cubic_table(self.multiplier, p.n, p.reduction_polynomial)[keys].astype(np.int64)


@lru_cache(maxsize=32)
def _field_cubic_table(multiplier: int, n: int, poly: int):
    """multiplier (x) k ^ k^3 for every k in GF(2^n), n <= MAX_EXHAUSTIVE_N,
    as a read-only numpy uint16 array indexed by k; a multiplier outside
    GF(2^n) raises DomainError, and no table is kept for it.

    Built as k (x) (multiplier ^ k^2) by gf_mul's shift-and-add on numpy
    uint32 columns (a shifted operand stays below 2^(n+1)), on the first
    `values` of such a map (never at import), and kept for the next
    instance: 2^(n+1) bytes each.  Blocks of 4096 keys keep the temporaries
    small: whole-range ones cost a run at n = 16 over 1 MB of peak memory.
    """
    if multiplier >> n:  # also nonzero for a negative multiplier
        raise DomainError(f"field-cubic multiplier {multiplier:#x} is not an element of GF(2^{n})")
    import numpy as np  # on first use; `import kafw.cli` does not load it

    full = (1 << n) | poly

    def mulmod(a, b):
        r = np.zeros_like(a)
        for i in range(n):
            r ^= a & -(b >> i & 1)
            a = a << 1
            a ^= full & -(a >> n)
        return r

    table = np.empty(1 << n, np.uint16)
    for lo in range(0, 1 << n, 4096):
        k = np.arange(lo, min(lo + 4096, 1 << n), dtype=np.uint32)
        table[lo : lo + 4096] = mulmod(k, mulmod(k, k) ^ multiplier)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class XorSubkey(SubkeyMap):
    """XOR of component maps; affine when every component is."""

    parts: tuple[SubkeyMap, ...]

    @property
    def is_affine(self):
        return all(part.is_affine for part in self.parts)

    def value(self, k, p):
        out = 0
        for part in self.parts:
            out ^= part.value(k, p)
        return out

    def matrix(self, p):
        m = BinMatrix.zero(p.n)
        for part in self.parts:
            m = m ^ part.matrix(p)
        return m

    def is_zero(self, p):
        return all(part.is_zero(p) for part in self.parts)

    def values(self, keys, p):
        out = 0
        for part in self.parts:
            out ^= part.values(keys, p)
        return out


def identity_map(n: int) -> AffineSubkey:
    return AffineSubkey(BinMatrix.identity(n))


def ortho_map(n: int) -> AffineSubkey:
    """pi(kL||kR) = kR||(kL ^ kR): a linear orthomorphism; needs even n."""
    if n % 2:
        raise OddN(f"orthomorphism split needs even n, got {n}")
    h = n // 2
    rows = [((1 << (h + j)) | (1 << j)) for j in range(h)]  # low half: kL ^ kR
    rows += [(1 << j) for j in range(h)]  # high half: kR
    return AffineSubkey(BinMatrix(tuple(rows)))


def _check_affine_widths(p: DomainParams, maps) -> None:
    """Raise DomainError unless every AffineSubkey among `maps`, XOR parts
    included, has an n x n matrix and a constant in [0, N)."""
    n = p.n
    todo = list(maps)
    for m in todo:  # the loop also visits the XOR parts appended to todo
        if isinstance(m, AffineSubkey):
            if m.m.n != n or m.c >> n:  # also nonzero for a negative constant
                raise DomainError(f"affine sub-key map of size {m.m.n}, constant {m.c:#x}, in an n={n} schedule")
        elif isinstance(m, XorSubkey):
            todo += m.parts


# Per-key and per-offset entries go into a schedule's memo only up to this
# n: at most 2^12 of each kind, each a few small ints and tuples.
MEMO_MAX_N = 12


class _Memo:
    """Values derived from the schedule alone, made on first use and freed
    with the schedule.

    `memo` is a dict of attack constants (attacks).  `per_key` is where
    entries made per master key (feistel's sub-key layouts, under int keys)
    or per key offset (attacks' block shifts) go: `memo` itself for n <=
    MEMO_MAX_N, otherwise a fresh dict that nothing keeps, so a wide
    schedule never grows one entry per key.  Nothing derived from an
    oracle goes in, and nothing refers back to the schedule.
    cached_property writes `memo` straight to the instance's __dict__, past
    the frozen dataclass's __setattr__, so no field, comparison or hash
    sees it.  An equal copy (dataclasses.replace) starts afresh.

    Each subclass states once, in `slots`, which map fills each of its
    construction's t + 4 sub-key slots in chain order (input whitening
    halves, round keys 1..t, output whitening halves; a ZeroMap where the
    construction has no key), and in `key_into_f` whether the round keys
    go into f or after it.
    """

    key_into_f = False

    @cached_property
    def memo(self) -> dict:
        return {}

    @property
    def per_key(self) -> dict:
        return self.memo if self.params.n <= MEMO_MAX_N else {}

    @property
    def is_affine(self) -> bool:
        """Whether every slot's map is affine (a zero slot is)."""
        return all(m.is_affine for m in self.slots)


@dataclass(frozen=True)
class KeySchedule(_Memo):
    """Whitening maps wf0..wf3 plus round-key maps gamma_1..gamma_t."""

    key_into_f = True
    params: DomainParams
    whitening: tuple[SubkeyMap, SubkeyMap, SubkeyMap, SubkeyMap]
    round_keys: tuple[SubkeyMap, ...]

    def __post_init__(self):
        if len(self.whitening) != 4:
            raise ArityMismatch("exactly four whitening maps required")
        if not self.round_keys:
            raise ArityMismatch("at least one round-key map required")
        _check_affine_widths(self.params, self.slots)

    @property
    def t(self) -> int:
        return len(self.round_keys)

    @property
    def slots(self) -> tuple[SubkeyMap, ...]:
        """wf0, wf1, gamma_1..gamma_t into f, wf2, wf3."""
        return (*self.whitening[:2], *self.round_keys, *self.whitening[2:])

    def whitening_key(self, j: int, k: int) -> int:
        return self.whitening[j].value(k, self.params)

    def round_key(self, i: int, k: int) -> int:
        """1-based round index, matching gamma_i."""
        return self.round_keys[i - 1].value(k, self.params)

    def gamma_matrix(self, i: int) -> BinMatrix:
        return self.round_keys[i - 1].matrix(self.params)

    def wf_matrix(self, j: int) -> BinMatrix:
        return self.whitening[j].matrix(self.params)

    def has_zero_whitening(self) -> bool:
        return all(m.is_zero(self.params) for m in self.whitening)

    # Derived masking maps: phi_1 = wf1 ^ gamma_1 protects the first round's
    # function input, phi_t = wf2 ^ gamma_t (phi_4, phi_6) the last round's.
    def phi1_map(self) -> XorSubkey:
        return XorSubkey((self.whitening[1], self.round_keys[0]))

    def phi_last_map(self) -> XorSubkey:
        return XorSubkey((self.whitening[2], self.round_keys[-1]))

    def bind(self, m: SubkeyMap):
        """Plain int -> int callable for enumeration code.

        For n <= MAX_EXHAUSTIVE_N, keys in [0, N) index a table of m's
        `values` over every key; any other key, and every key above that
        n, goes through m.value, so a negative key never indexes a table.
        """
        p, value = self.params, m.value
        if p.n > MAX_EXHAUSTIVE_N:
            return lambda k: value(k, p)
        import numpy as np

        size = p.N
        table = (np.zeros(size, np.int64) ^ m.values(np.arange(size, dtype=np.int64), p)).tolist()
        return lambda k: table[k] if 0 <= k < size else value(k, p)


@dataclass(frozen=True)
class KafvSchedule(_Memo):
    """Sub-key maps gamma*_0 .. gamma*_{t+1} for a t-round KAFv.

    maps[0] and maps[t+1] become the whitening halves; t = 0 (whitening
    only) is legal and shows up when stripping a 2-round Lucifer.
    """

    params: DomainParams
    maps: tuple[SubkeyMap, ...]

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ArityMismatch("a KAFv schedule needs at least t+2 = 2 maps")
        _check_affine_widths(self.params, self.maps)

    @property
    def t(self) -> int:
        return len(self.maps) - 2

    @property
    def slots(self) -> tuple[SubkeyMap, ...]:
        """0, g*_0, g*_1..g*_t after f, g*_{t+1}, 0."""
        return (_ZERO, *self.maps, _ZERO)

    def subkey(self, i: int, k: int) -> int:
        return self.maps[i].value(k, self.params)

    def star_matrix(self, i: int) -> BinMatrix:
        return self.maps[i].matrix(self.params)


@dataclass(frozen=True)
class LuciferSchedule(_Memo):
    """One sub-key map per round for the Lucifer-style chain (no whitening slots)."""

    params: DomainParams
    maps: tuple[SubkeyMap, ...]

    def __post_init__(self):
        if len(self.maps) < 2:
            raise TooFewRounds("lucifer needs t >= 2")
        _check_affine_widths(self.params, self.maps)

    @property
    def t(self) -> int:
        return len(self.maps)

    @property
    def slots(self) -> tuple[SubkeyMap, ...]:
        """No whitening, k_1..k_t after f."""
        return (_ZERO, _ZERO, *self.maps, _ZERO, _ZERO)

    def round_key(self, i: int, k: int) -> int:
        """1-based round index."""
        return self.maps[i - 1].value(k, self.params)


# Construction name -> the schedule class it reads.
CONSTRUCTIONS = {
    "kafw": KeySchedule,
    "kaf": KeySchedule,
    "kafv": KafvSchedule,
    "lucifer": LuciferSchedule,
}


def check_construction(construction: str, schedule) -> None:
    """The one check of a (construction, schedule) pair, run wherever a
    construction label comes in from outside the schedule: each game
    trial's ConstructionSpec and `kafw encrypt --construction`.

    The construction must be known; the schedule must be of the class it
    reads, and for KAF have zero whitening.  Nothing else of the schedule
    is read before its class is checked.
    """
    kind = CONSTRUCTIONS.get(construction)
    if kind is None:
        raise DomainError(f"unknown construction {construction!r}")
    if not isinstance(schedule, kind):
        raise ScheduleArityMismatch(f"construction {construction!r} needs a {kind.__name__}")
    if construction == "kaf" and not schedule.has_zero_whitening():
        raise ScheduleArityMismatch("KAF requires a zero-whitening schedule")


def kafv_to_kafw(s: KafvSchedule) -> KeySchedule:
    """KAFw schedule functionally equivalent to the given KAFv schedule.

    Round keys accumulate alternating prefixes of the KAFv sub-keys
    (gamma_{2l+1} = gamma*_0 ^ gamma*_2 ^ ... ^ gamma*_{2l}, and likewise for
    even rounds over the odd-indexed sub-keys); the output whitening absorbs
    the last two: wf2 = gamma_t ^ gamma*_{t+1}, wf3 = gamma_{t-1} ^ gamma*_t.
    No input whitening is needed.
    """
    if not isinstance(s, KafvSchedule):
        raise ScheduleArityMismatch(f"kafv_to_kafw needs a KafvSchedule, not {type(s).__name__}")
    t = s.t
    if t < 2:
        raise TooFewRounds("conversion needs t >= 2")
    gammas: list[SubkeyMap] = []
    for i in range(1, t + 1):
        # Round i takes the XOR of gamma*_{i-1}, gamma*_{i-3}, ... down to
        # gamma*_0 (odd i) or gamma*_1 (even i).
        parts = tuple(s.maps[j] for j in range(i - 1, -1, -2))
        gammas.append(parts[0] if len(parts) == 1 else XorSubkey(parts))
    zero = ZeroMap()
    wf2 = XorSubkey((gammas[t - 1], s.maps[t + 1]))
    wf3 = XorSubkey((gammas[t - 2], s.maps[t]))
    return KeySchedule(s.params, (zero, zero, wf2, wf3), tuple(gammas))


@dataclass(frozen=True)
class LuciferDecomposition:
    """Lucifer as keyless outer rounds around a (t-2)-round KAFv core."""

    outer_first: object  # round function f1, keyless
    outer_last: object  # round function ft, keyless
    core_functions: tuple  # f2 .. f_{t-1}
    core_subkeys: tuple  # k1 .. kt (sub-keys or sub-key maps), the KAFv's t sub-keys


def lucifer_strip(functions: Sequence, keys: Sequence) -> LuciferDecomposition:
    """Split a t-round Lucifer into keyless first/last rounds and a KAFv core.

    `keys` are the t round keys under one master key, or the t sub-key maps,
    which then become the core's KafvSchedule maps for every master key."""
    t = len(keys)
    if len(functions) != t:
        raise ArityMismatch("need one round function per round key")
    if t < 3:
        raise TooFewRounds("stripping needs t >= 3")
    return LuciferDecomposition(
        outer_first=functions[0],
        outer_last=functions[-1],
        core_functions=tuple(functions[1:-1]),
        core_subkeys=tuple(keys),
    )


BUILTIN_NAMES = (
    "minimal4",
    "ortho6",
    "filled6",
    "tweakem4",
    "identity_bad(t)",
    "bitperm_bad5",
)

# identity_bad(t)'s largest t.
MAX_BUILTIN_ROUNDS = 1 << 16

_NAME_RE = re.compile(r"^([a-z_][a-z0-9_]*)(?:\((\d+)\))?$")


def is_builtin(source: str) -> bool:
    """Whether `source` names a builtin schedule (possibly a malformed use of one)."""
    return source.partition("(")[0] in {name.partition("(")[0] for name in BUILTIN_NAMES}


def builtin(name: str, p: DomainParams, rounds: int | None = None) -> KeySchedule:
    """Named schedule instances.

    minimal4        4-round KAF: gamma_1 = 2 (x) k ^ k^3, gamma_4 = 3 (x) k ^ k^3,
                    middle rounds and whitening zero.
    ortho6          6-round KAF (k, 0, 0, 0, 0, pi(k)) with the linear
                    orthomorphism pi(kL||kR) = kR||(kL ^ kR); even n only.
    filled6         6-round KAF (k, k, pi(k), k, k, pi(k)); even n only.
    tweakem4        4-round KAFw with wf1 = 2 (x) k ^ k^3, wf2 = 3 (x) k ^ k^3
                    and every other sub-key zero.
    identity_bad(t) gamma_i = k for all t rounds, zero whitening
                    (complementation-vulnerable); t in the name beats rounds=,
                    and t is at most MAX_BUILTIN_ROUNDS.
    bitperm_bad5    5 distinct bit-rotations as round-key matrices; the
                    all-ones offset satisfies M1.d = M5.d.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise UnknownName(f"bad schedule name {name!r}")
    base, arg = m.group(1), m.group(2)
    if arg is not None:
        if base != "identity_bad":
            raise UnknownName(f"{base} takes no round-count argument")
        try:
            rounds = int(arg)
        except ValueError:  # past int()'s digit limit
            rounds = math.inf
    zero = ZeroMap()
    no_whitening = (zero, zero, zero, zero)

    if base in ("minimal4", "tweakem4"):
        c1, c4 = FieldCubicSubkey(2), FieldCubicSubkey(3)
        if base == "minimal4":
            return KeySchedule(p, no_whitening, (c1, zero, zero, c4))
        return KeySchedule(p, (zero, c1, c4, zero), (zero, zero, zero, zero))
    if base == "ortho6":
        return KeySchedule(
            p, no_whitening, (identity_map(p.n), zero, zero, zero, zero, ortho_map(p.n))
        )
    if base == "filled6":
        ident, pi = identity_map(p.n), ortho_map(p.n)
        return KeySchedule(p, no_whitening, (ident, ident, pi, ident, ident, pi))
    if base == "identity_bad":
        if rounds is None:
            raise UnknownName("identity_bad needs a round count, e.g. identity_bad(8)")
        if rounds > MAX_BUILTIN_ROUNDS:
            raise DomainError(f"identity_bad takes at most {MAX_BUILTIN_ROUNDS} rounds")
        return KeySchedule(p, no_whitening, (identity_map(p.n),) * rounds)
    if base == "bitperm_bad5":
        if p.n < 5:
            raise DomainError("bitperm_bad5 needs n >= 5 for five distinct rotations")
        rots = tuple(AffineSubkey(BinMatrix.rotation(p.n, r)) for r in range(5))
        return KeySchedule(p, no_whitening, rots)
    raise UnknownName(f"unknown builtin schedule {name!r}")


def _randrange_by_getrandbits(rng) -> bool:
    """Whether rng.randrange(N) is Random's own getrandbits rejection loop:
    a subclass that overrides random() alone draws by random() instead."""
    cls = type(rng)
    return (
        getattr(cls, "randrange", None) is random.Random.randrange
        and getattr(cls, "_randbelow", None) is random.Random._randbelow_with_getrandbits
    )


def _sample_range(rng: random.Random, N: int, k: int) -> list[int]:
    """rng.sample(range(N), k): the same list, and rng left in the same state.

    Where Random.sample would take its set branch (N above 21, plus
    4^ceil(log4(3k)) when k > 5) and rng draws by getrandbits, that branch
    is written out in batches: keep, in order, the values of
    getrandbits(N.bit_length()) below N not kept before.  Each batch draws
    as many values as are still missing, so it never draws past the last
    one sample would.  Otherwise it is rng.sample itself.
    """
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    if not (
        0 <= k <= N
        and N > setsize
        and type(rng).sample is random.Random.sample
        and _randrange_by_getrandbits(rng)
    ):
        return rng.sample(range(N), k)
    getrandbits, bits, kept = rng.getrandbits, N.bit_length(), {}
    while len(kept) < k:
        kept.update(dict.fromkeys(filter(N.__gt__, map(getrandbits, repeat(bits, k - len(kept))))))
    return list(kept)


def _affine_maps(p: DomainParams, rng: random.Random, count: int) -> list[AffineSubkey]:
    """`count` uniformly random affine maps, each drawing its n matrix rows,
    then its constant, by rng.randrange(N).

    For a Random that draws by getrandbits, all the draws are taken in
    randrange's own loop, written out once: keep getrandbits(N.bit_length())
    values below N.  The maps and the state rng is left in are the same.
    """
    N, n = p.N, p.n
    total = count * (n + 1)
    if _randrange_by_getrandbits(rng):
        getrandbits, bits, draws = rng.getrandbits, N.bit_length(), []
        while len(draws) < total:
            r = getrandbits(bits)
            if r < N:
                draws.append(r)
    else:
        draws = [rng.randrange(N) for _ in range(total)]
    return [
        AffineSubkey(BinMatrix(tuple(draws[i : i + n])), draws[i + n]) for i in range(0, total, n + 1)
    ]


def random_affine_map(p: DomainParams, rng: random.Random) -> AffineSubkey:
    """Uniformly random affine map; draws the n matrix rows, then the constant."""
    return _affine_maps(p, rng, 1)[0]


def random_affine(p: DomainParams, t: int, rng: random.Random) -> KeySchedule:
    """Uniformly random affine schedule: t+4 random matrices and constants,
    the whitening maps drawn first."""
    maps = _affine_maps(p, rng, 4 + max(t, 0))
    return KeySchedule(p, tuple(maps[:4]), tuple(maps[4:]))
