"""Exhaustive key-schedule goodness measurements.

The masking maps phi_1 = wf1 ^ gamma_1 and phi_last = wf2 ^ gamma_t guard
the outer round-function inputs.  Over a uniform key, the three quantities
that matter are exact maximum counts (N times the probabilities):

- uniformity:        max_y |{k : phi(k) = y}|
- XOR-universality:  max_{a != 0, b} |{k : phi(k ^ a) ^ phi(k) = b}|
- cross uniformity:  max_{a, y} |{k : phi1(k) ^ phi4(k ^ a) = y}|

The offset families from the security definitions reduce to these: with k
uniform, an additive offset inside phi(k ^ offset) cancels, and the
two-offset family collapses to the single relative offset a.  All audits
enumerate the full key space; nothing is sampled.

The XOR-universality and cross counts are one quantity, _count(u, v, first):
max over offsets a >= first and y of |{k : v[k] ^ u[k ^ a] = y}|.  Since
v[k] ^ u[k ^ a] = (u ^ v)[k] ^ u[k] ^ u[k ^ a], it is affine in k for every
a when deg u <= 2 and deg(u ^ v) <= 1, degrees read exactly from the
tables' algebraic normal form; each offset then counts 2^(n - rank) of an
n x n matrix over GF(2), O(N n^2) word operations in all.  Every map a
schedule file, a builtin or equivalence.random_subkey_map can state (zero,
affine, m (x) k ^ k^3, and XORs of these) has degree <= 2: a Definition 1
audit of a builtin takes about 5 ms at n = 12 and 0.11 s at n = 16 on a
2-core Xeon.  Other tables, such as those of callables of higher degree,
are counted by _shifted_count at up to N^2 bin increments per count: about
0.16 s for a Definition 1 audit at n = 12, growing 4x with each added bit.

numpy loads on the first count, not with this module, so a program that
imports the auditor but never audits starts without it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

from .errors import ArityMismatch, DomainError, DomainTooLarge, NotAffine, ScheduleArityMismatch
from .gf2 import MAX_EXHAUSTIVE_N, mat_is_invertible, mat_kernel_basis
from .gf2 import mat_vec  # noqa: F401  (bench/tracing.py wraps auditor.mat_vec)
from .schedules import KafvSchedule, KeySchedule


@dataclass
class AuditReport:
    """Measured counts, bijectivity flags, and kernel witnesses for one check.

    Kernel witnesses map a matrix-pair label to None (invertible) or to a
    nonzero offset it sends to zero.  delta counts are N x the bound, exact.
    """

    check: str
    n: int
    passed: bool
    delta1_times_n: int | None = None
    delta2_times_n: int | None = None
    delta3_times_n: int | None = None
    good_like: bool | None = None
    threshold: int | None = None
    phi_bijectivity: dict[str, bool] = field(default_factory=dict)
    kernel_witnesses: dict[str, int | None] = field(default_factory=dict)


def _integer(x, what: str) -> int:
    """x as an int (ints and numpy ints pass); anything else raises DomainError."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {x!r}") from None


def _check_width(n: int) -> int:
    n = _integer(n, "audit width n")
    if n < 1:
        raise DomainError(f"exhaustive audit needs n >= 1, got {n}")
    if n > MAX_EXHAUSTIVE_N:
        raise DomainTooLarge(f"exhaustive audit capped at n={MAX_EXHAUSTIVE_N}")
    return n


def _table(phi: Callable[[int], int], n: int) -> np.ndarray:
    """phi(k) for every k in [0, N); a value that is not an integer in [0, N)
    raises DomainError."""
    import numpy as np

    N = 1 << n
    values = [phi(k) for k in range(N)]
    try:
        values = list(map(operator.index, values))
    except TypeError:
        for v in values:
            _integer(v, "map value")
    if min(values) < 0 or max(values) >= N:
        raise DomainError(f"map values must lie in [0, 2^{n}), got {min(values)}..{max(values)}")
    return np.array(values, dtype=np.int64)


def _max_preimage(tab: np.ndarray) -> int:
    import numpy as np

    return int(np.bincount(tab, minlength=len(tab)).max())


def measure_uniformity(phi: Callable[[int], int], n: int) -> int:
    """Largest preimage size max_y |{k : phi(k) = y}|."""
    n = _check_width(n)
    return _max_preimage(_table(phi, n))


# Offsets per gather in _shifted_count: blocks of 2 to 8 measure alike at
# n = 12, 16 slower.  A gather holds b * N <= 2^14 values where it can, so
# wider audits use smaller blocks: 2 offsets at n = 13, 1 from n = 14 on.
# _derivative_count's temporaries hold about _BLOCK_VALUES values too.
_BLOCK = 4
_BLOCK_VALUES = 1 << 14


def _shifted_count(u: np.ndarray, v: np.ndarray, first: int) -> int:
    """max over offsets a >= first (0 or 1) and y of |{k : v[k] ^ u[k ^ a] = y}|,
    for tables u, v of length N = 2^n, by counting.

    For a != 0 with top bit h, the keys k whose bit h is clear pair up with
    k ^ a, whose term is u[k] ^ v[k ^ a]; when u is v the two terms are
    equal, so one side is counted and doubled.  Offsets run in aligned
    blocks of b; one take reads every u[k ^ a] and v[k ^ a] of a block, and
    each term carries its offset's row in the block above bit n, so one
    bincount counts every offset of the block at once.
    """
    import numpy as np

    N = len(u)
    n = N.bit_length() - 1
    same = u is v
    flat = u if same else np.concatenate((u, v))  # u at 0, v at N
    side = np.arange(1 if same else 2)[:, None, None] * N
    keys = np.arange(N)
    worst = int(np.bincount(v ^ u).max()) if first == 0 else 0
    for h in range(n):
        b = max(1, min(_BLOCK, 1 << h, _BLOCK_VALUES // N))
        low = keys[keys & (1 << h) == 0]
        rows = np.arange(b)[:, None]
        # index ^ a0 is k ^ a on each side for a = a0 + row, a0 being aligned to b.
        index = (low ^ rows) + side
        near = np.stack((v[low],) if same else (v[low], u[low]))[:, None, :] | (rows << n)
        for a0 in range(1 << h, 2 << h, b):
            count = int(np.bincount((near ^ flat.take(index ^ a0)).ravel()).max())
            worst = max(worst, 2 * count if same else count)
    return worst


def _anf(table: np.ndarray) -> np.ndarray:
    """The algebraic normal form of every output bit at once: bit i of entry u
    is the coefficient of the monomial prod_{j in u} k_j in output bit i.
    This is the binary Moebius transform, taken on a copy in n passes."""
    anf = table.copy()
    half = 1
    while half < len(anf):
        pairs = anf.reshape(-1, 2, half)
        pairs[:, 1] ^= pairs[:, 0]
        half *= 2
    return anf


def _ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """The GF(2) rank of each column of `rows`, an (n, c) array holding c
    sets of n vectors of n bits, one set per column.  For each bit, the
    largest vector of a column that has it clears it from every vector of
    the column, itself included, and counts one towards the rank.  Each
    step reduces over the n rows, c contiguous values at a time."""
    import numpy as np

    rank = np.zeros(rows.shape[1], dtype=rows.dtype)
    for bit in range(n):
        has = rows >> bit & 1
        pivot = (rows * has).max(axis=0)
        rows ^= has * pivot
        rank += pivot >> bit & 1
    return rank


def _derivative_count(u: np.ndarray, v: np.ndarray, first: int) -> int:
    """max over offsets a in [first, N) and y of |{k : v[k] ^ u[k ^ a] = y}|,
    for tables where each map k -> v[k] ^ u[k ^ a] is affine.

    An affine map takes each of its values 2^(n - rank) times or never, the
    rank being that of its linear part, whose vector j is the map at e_j
    XOR the map at 0.  Offsets run in blocks of about _BLOCK_VALUES / n;
    each block's vectors form an (n, offsets) array of uint16, exact for
    n <= 16, so each temporary holds about _BLOCK_VALUES values.
    """
    import numpy as np

    N = len(u)
    n = N.bit_length() - 1
    u, v = u.astype(np.uint16), v.astype(np.uint16)
    units = 1 << np.arange(n)
    base = (v[units] ^ v[0])[:, None]
    step = max(1, _BLOCK_VALUES // n)
    least = n
    for start in range(first, N, step):
        offsets = np.arange(start, min(start + step, N))
        vectors = u[units[:, None] ^ offsets] ^ u[offsets] ^ base
        least = min(least, int(_ranks(vectors, n).min()))
    return 1 << (n - least)


def _degree(anf: np.ndarray) -> int:
    """The algebraic degree of a table from its ANF: the largest weight of a
    monomial with a nonzero coefficient, -1 for the zero map."""
    import numpy as np

    monomials = np.flatnonzero(anf)
    weight = sum(monomials >> j & 1 for j in range(len(anf).bit_length() - 1))
    return int(np.max(weight, initial=-1))


def _count(u: np.ndarray, v: np.ndarray, first: int, anf_u: np.ndarray, anf_v: np.ndarray) -> int:
    """max over offsets a >= first and y of |{k : v[k] ^ u[k ^ a] = y}|, given
    the ANF of each table: from derivative ranks when every k -> v[k] ^ u[k ^ a]
    is affine, which holds when deg u <= 2 and deg(u ^ v) <= 1, else by counting."""
    if _degree(anf_u) <= 2 and _degree(anf_u ^ anf_v) <= 1:
        return _derivative_count(u, v, first)
    return _shifted_count(u, v, first)


def measure_axu(phi: Callable[[int], int], n: int) -> int:
    """Non-linearity count max_{a != 0, b} |{k : phi(k ^ a) ^ phi(k) = b}|."""
    n = _check_width(n)
    t = _table(phi, n)
    a = _anf(t)
    return _count(t, t, 1, a, a)


def measure_cross_uniformity(
    phi1: Callable[[int], int], phi4: Callable[[int], int], n: int
) -> int:
    """max_{a, y} |{k : phi1(k) ^ phi4(k ^ a) = y}|, a ranging over all offsets."""
    n = _check_width(n)
    t1, t4 = _table(phi1, n), _table(phi4, n)
    return _count(t4, t1, 0, _anf(t4), _anf(t1))


def _require(s, t: int, kind: type) -> None:
    """Check the round count, then the schedule class; a schedule of the wrong
    length keeps the ArityMismatch it has always got, whatever its class."""
    if s.t != t:
        noun = "KAFv schedules" if kind is KafvSchedule else "schedules"
        raise ArityMismatch(f"this audit applies to {t}-round {noun}")
    if not isinstance(s, kind):
        raise ScheduleArityMismatch(f"this audit reads a {kind.__name__}, not a {type(s).__name__}")


def _delta_report(check, s, threshold, outer) -> AuditReport:
    """Definition 1 counts for the two maps `outer(s)` of a 4-round KAFw schedule."""
    _require(s, 4, KeySchedule)
    threshold = _integer(threshold, "threshold")
    n = _check_width(s.params.n)
    # Each map is evaluated once per key; the three counts share the tables.
    t1, t4 = (_table(s.bind(m), n) for m in outer(s))
    a1, a4 = _anf(t1), _anf(t4)
    d1 = max(_max_preimage(t1), _max_preimage(t4))
    d2 = max(_count(t1, t1, 1, a1, a1), _count(t4, t4, 1, a4, a4))
    d3 = _count(t4, t1, 0, a4, a1)
    good = d1 <= threshold and d2 <= threshold and d3 <= threshold
    return AuditReport(check, n, good, delta1_times_n=d1, delta2_times_n=d2,
                       delta3_times_n=d3, good_like=good, threshold=threshold)


def check_definition1(s: KeySchedule, threshold: int = 3) -> AuditReport:
    """Audit a 4-round KAFw schedule through phi_1 = wf1 ^ gamma_1, phi_4 = wf2 ^ gamma_4.

    No universal numeric cutoff exists; `good_like` flags all three counts
    at or below `threshold` (default 3, the reference instance's level).
    """
    return _delta_report("def1", s, threshold, lambda s: (s.phi1_map(), s.phi_last_map()))


def check_corollary1_nl(s: KeySchedule, threshold: int = 3) -> AuditReport:
    """Same audit for a plain KAF schedule, where phi_1 = gamma_1 and phi_4 = gamma_4."""
    return _delta_report("cor1-nl", s, threshold, lambda s: (s.round_keys[0], s.round_keys[3]))


def _affine_report(check, s, kind, outer, inner) -> AuditReport:
    """6-round affine conditions on a `kind` schedule.  `outer(s)` and `inner(s)`
    each give two (label, matrix) pairs: the outer matrices and their XOR must
    be bijective, and each inner matrix invertible (else a kernel witness)."""
    _require(s, 6, kind)
    if not s.is_affine:
        raise NotAffine("this audit needs affine sub-key maps")
    (a, ma), (b, mb) = outer(s)
    bij = {a: mat_is_invertible(ma), b: mat_is_invertible(mb)}
    bij[f"{a}^{b}"] = mat_is_invertible(ma ^ mb)
    wit = {label: min(mat_kernel_basis(m), default=None) for label, m in inner(s)}
    passed = all(bij.values()) and not any(wit.values())
    return AuditReport(check, s.params.n, passed, phi_bijectivity=bij, kernel_witnesses=wit)


def _gamma_sums(s: KeySchedule):
    g = s.gamma_matrix
    return ("M1^M3", g(1) ^ g(3)), ("M4^M6", g(4) ^ g(6))


def check_definition3(s: KeySchedule) -> AuditReport:
    """6-round affine conditions: phi_1, phi_6, phi_1 ^ phi_6 bijective and
    M1.d != M3.d, M4.d != M6.d for every d != 0."""
    return _affine_report(
        "def3", s, KeySchedule,
        lambda s: (("phi1", s.phi1_map().matrix(s.params)),
                   ("phi6", s.phi_last_map().matrix(s.params))),
        _gamma_sums,
    )


def check_corollary1_affine(s: KeySchedule) -> AuditReport:
    """6-round affine KAF conditions, with gamma_1/gamma_6 standing in for the phis:
    Definition 3 of the same schedule with its whitening dropped."""
    return _affine_report(
        "cor1-affine", s, KeySchedule,
        lambda s: (("gamma1", s.gamma_matrix(1)), ("gamma6", s.gamma_matrix(6))),
        _gamma_sums,
    )


def check_corollary2(s: KafvSchedule) -> AuditReport:
    """6-round affine KAFv conditions: outer sub-keys bijective (also jointly),
    and the second/fifth round matrices themselves invertible.  These are
    Definition 3's conditions on kafv_to_kafw(s)."""
    return _affine_report(
        "cor2", s, KafvSchedule,
        lambda s: (("gamma*0", s.star_matrix(0)), ("gamma*7", s.star_matrix(7))),
        lambda s: (("M*2", s.star_matrix(2)), ("M*5", s.star_matrix(5))),
    )
