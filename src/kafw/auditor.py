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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArityMismatch, DomainTooLarge, NotAffine
from .gf2 import MAX_EXHAUSTIVE_N, BinMatrix, mat_is_invertible, mat_kernel_basis, mat_vec
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


def _check_width(n: int) -> None:
    if n > MAX_EXHAUSTIVE_N:
        raise DomainTooLarge(f"exhaustive audit capped at n={MAX_EXHAUSTIVE_N}")


def _table(phi: Callable[[int], int], n: int) -> np.ndarray:
    N = 1 << n
    return np.fromiter((phi(k) for k in range(N)), dtype=np.int64, count=N)


def measure_uniformity(phi: Callable[[int], int], n: int) -> int:
    """Largest preimage size max_y |{k : phi(k) = y}|."""
    _check_width(n)
    tab = _table(phi, n)
    return int(np.bincount(tab, minlength=1 << n).max())


def measure_axu(phi: Callable[[int], int], n: int) -> int:
    """Non-linearity count max_{a != 0, b} |{k : phi(k ^ a) ^ phi(k) = b}|."""
    _check_width(n)
    N = 1 << n
    tab = _table(phi, n)
    idx = np.arange(N)
    worst = 0
    for a in range(1, N):
        diffs = tab ^ tab[idx ^ a]
        worst = max(worst, int(np.bincount(diffs, minlength=N).max()))
    return worst


def measure_cross_uniformity(
    phi1: Callable[[int], int], phi4: Callable[[int], int], n: int
) -> int:
    """max_{a, y} |{k : phi1(k) ^ phi4(k ^ a) = y}|, a ranging over all offsets."""
    _check_width(n)
    N = 1 << n
    t1 = _table(phi1, n)
    t4 = _table(phi4, n)
    idx = np.arange(N)
    worst = 0
    for a in range(N):
        diffs = t1 ^ t4[idx ^ a]
        worst = max(worst, int(np.bincount(diffs, minlength=N).max()))
    return worst


def _delta_report(check, s, phi1, phi4, threshold):
    n = s.params.n
    f1, f4 = s.bind(phi1), s.bind(phi4)
    d1 = max(measure_uniformity(f1, n), measure_uniformity(f4, n))
    d2 = max(measure_axu(f1, n), measure_axu(f4, n))
    d3 = measure_cross_uniformity(f1, f4, n)
    good = d1 <= threshold and d2 <= threshold and d3 <= threshold
    return AuditReport(
        check=check,
        n=n,
        passed=good,
        delta1_times_n=d1,
        delta2_times_n=d2,
        delta3_times_n=d3,
        good_like=good,
        threshold=threshold,
    )


def check_definition1(s: KeySchedule, threshold: int = 3) -> AuditReport:
    """Audit a 4-round KAFw schedule through phi_1 = wf1 ^ gamma_1, phi_4 = wf2 ^ gamma_4.

    No universal numeric cutoff exists; `good_like` flags all three counts
    at or below `threshold` (default 3, the reference instance's level).
    """
    if s.t != 4:
        raise ArityMismatch("this audit applies to 4-round schedules")
    return _delta_report("def1", s, s.phi1_map(), s.phi4_map(), threshold)


def check_corollary1_nl(s: KeySchedule, threshold: int = 3) -> AuditReport:
    """Same audit for a plain KAF schedule, where phi_1 = gamma_1 and phi_4 = gamma_4."""
    if s.t != 4:
        raise ArityMismatch("this audit applies to 4-round schedules")
    return _delta_report("cor1-nl", s, s.round_keys[0], s.round_keys[3], threshold)


def _invertibility(label: str, m: BinMatrix, report: AuditReport) -> bool:
    basis = mat_kernel_basis(m)
    report.kernel_witnesses[label] = None if not basis else min(basis)
    return not basis


def check_definition3(s: KeySchedule) -> AuditReport:
    """6-round affine conditions: phi_1, phi_6, phi_1 ^ phi_6 bijective and
    M1.d != M3.d, M4.d != M6.d for every d != 0."""
    if s.t != 6:
        raise ArityMismatch("this audit applies to 6-round schedules")
    if not s.is_affine:
        raise NotAffine("this audit needs affine sub-key maps")
    p = s.params
    m_phi1 = s.phi1_map().matrix(p)
    m_phi6 = s.phi6_map().matrix(p)
    report = AuditReport(check="def3", n=p.n, passed=True)
    report.phi_bijectivity = {
        "phi1": mat_is_invertible(m_phi1),
        "phi6": mat_is_invertible(m_phi6),
        "phi1^phi6": mat_is_invertible(m_phi1 ^ m_phi6),
    }
    ok = all(report.phi_bijectivity.values())
    ok &= _invertibility("M1^M3", s.gamma_matrix(1) ^ s.gamma_matrix(3), report)
    ok &= _invertibility("M4^M6", s.gamma_matrix(4) ^ s.gamma_matrix(6), report)
    report.passed = ok
    return report


def check_corollary1_affine(s: KeySchedule) -> AuditReport:
    """6-round affine KAF conditions, with gamma_1/gamma_6 standing in for the phis."""
    if s.t != 6:
        raise ArityMismatch("this audit applies to 6-round schedules")
    if not s.is_affine:
        raise NotAffine("this audit needs affine sub-key maps")
    m1, m6 = s.gamma_matrix(1), s.gamma_matrix(6)
    report = AuditReport(check="cor1-affine", n=s.params.n, passed=True)
    report.phi_bijectivity = {
        "gamma1": mat_is_invertible(m1),
        "gamma6": mat_is_invertible(m6),
        "gamma1^gamma6": mat_is_invertible(m1 ^ m6),
    }
    ok = all(report.phi_bijectivity.values())
    ok &= _invertibility("M1^M3", m1 ^ s.gamma_matrix(3), report)
    ok &= _invertibility("M4^M6", s.gamma_matrix(4) ^ m6, report)
    report.passed = ok
    return report


def check_corollary2(s: KafvSchedule) -> AuditReport:
    """6-round affine KAFv conditions: outer sub-keys bijective (also jointly),
    and the second/fifth round matrices themselves invertible."""
    if s.t != 6:
        raise ArityMismatch("this audit applies to 6-round KAFv schedules")
    if not s.is_affine:
        raise NotAffine("this audit needs affine sub-key maps")
    g0, g7 = s.star_matrix(0), s.star_matrix(7)
    report = AuditReport(check="cor2", n=s.params.n, passed=True)
    report.phi_bijectivity = {
        "gamma*0": mat_is_invertible(g0),
        "gamma*7": mat_is_invertible(g7),
        "gamma*0^gamma*7": mat_is_invertible(g0 ^ g7),
    }
    ok = all(report.phi_bijectivity.values())
    ok &= _invertibility("M*2", s.star_matrix(2), report)
    ok &= _invertibility("M*5", s.star_matrix(5), report)
    report.passed = ok
    return report


def validate_kernel_witness(m: BinMatrix, witness: int) -> bool:
    """A reported witness must be nonzero and in the kernel."""
    return witness != 0 and mat_vec(m, witness) == 0
