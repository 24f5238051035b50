"""Field arithmetic and F2 linear algebra."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import kafw
from kafw.errors import DomainError, DomainTooLarge
from kafw.gf2 import (
    MAX_EXHAUSTIVE_N,
    REDUCTION_POLYNOMIALS,
    BinMatrix,
    DomainParams,
    gf_cube,
    gf_mul,
    is_orthomorphism,
    joint_kernel_basis,
    mat_is_invertible,
    mat_kernel_basis,
    mat_vec,
)

P3 = DomainParams.for_width(3)
P8 = DomainParams.for_width(8)


# Independent oracle: schoolbook polynomial multiply over coefficient lists,
# then reduce by repeated XOR of the shifted full reduction polynomial.
def schoolbook_mul(a, b, n, poly_mask):
    coeffs = [0] * (2 * n)
    for i in range(n):
        if (a >> i) & 1:
            for j in range(n):
                if (b >> j) & 1:
                    coeffs[i + j] ^= 1
    full = [(poly_mask >> i) & 1 for i in range(n)] + [1]
    for top in range(2 * n - 1, n - 1, -1):
        if coeffs[top]:
            for j, c in enumerate(full):
                coeffs[top - n + j] ^= c
    return sum(bit << i for i, bit in enumerate(coeffs[:n]))


def schoolbook_cube(a, n, poly_mask):
    return schoolbook_mul(schoolbook_mul(a, a, n, poly_mask), a, n, poly_mask)


# gf_mul and gf_cube against the schoolbook oracle: every pair up to n = 8,
# 2000 sampled pairs per width up to MAX_EXHAUSTIVE_N, 200 up to n = 32.
@pytest.mark.parametrize("n", range(2, 9))
def test_gf_mul_matches_schoolbook_on_every_pair(n):
    p = DomainParams.for_width(n)
    poly = p.reduction_polynomial
    for a in range(p.N):
        assert gf_cube(a, p) == schoolbook_cube(a, n, poly)
        for b in range(p.N):
            assert gf_mul(a, b, p) == schoolbook_mul(a, b, n, poly)


@pytest.mark.parametrize("n", range(9, MAX_EXHAUSTIVE_N + 1))
def test_gf_mul_matches_schoolbook_on_dense_samples(n):
    p = DomainParams.for_width(n)
    poly = p.reduction_polynomial
    rng = random.Random(n)
    pairs = [(0, rng.randrange(p.N)), (p.N - 1, p.N - 1), (1, p.N - 1)]
    pairs += [(rng.randrange(p.N), rng.randrange(p.N)) for _ in range(2000)]
    for a, b in pairs:
        assert gf_mul(a, b, p) == schoolbook_mul(a, b, n, poly)
        assert gf_cube(a, p) == schoolbook_cube(a, n, poly)


@pytest.mark.parametrize("n", range(MAX_EXHAUSTIVE_N + 1, 33))
def test_gf_mul_matches_schoolbook_on_sparse_samples(n):
    p = DomainParams.for_width(n)
    poly = p.reduction_polynomial
    rng = random.Random(n)
    for _ in range(200):
        a, b = rng.randrange(p.N), rng.randrange(p.N)
        assert gf_mul(a, b, p) == schoolbook_mul(a, b, n, poly)
        assert gf_cube(a, p) == schoolbook_cube(a, n, poly)


def test_scalar_encryption_builds_no_field_cubic_table():
    # The first n = 16 table build costs milliseconds and loads numpy; a
    # schedule and a scalar encryption must not make one.
    src = str(Path(kafw.__file__).resolve().parents[1])
    code = (
        "import kafw\n"
        "from kafw.feistel import CipherInstance\n"
        "from kafw.gf2 import DomainParams\n"
        "from kafw.schedules import _field_cubic_table, builtin\n"
        "schedule = builtin('minimal4', DomainParams.for_width(16))\n"
        "CipherInstance(schedule, (lambda x: x,)).encrypt_block(0x1234, 0x56789)\n"
        "print(_field_cubic_table.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"


def test_gf_mul_example_values():
    # x * (x^2 + x) = x^3 + x^2 = (x + 1) + x^2 under x^3 + x + 1.
    assert gf_mul(0b010, 0b110, P3) == 0b111
    for p in (P3, P8):
        for x in range(p.N):
            assert gf_mul(x, 1, p) == x
            assert gf_mul(x, 0, p) == 0


@pytest.mark.parametrize("a, b", [(0x1FF, 3), (3, 0x100), (-1, 3), (2, -2), (0, 0x100), (-1, 0)])
def test_gf_mul_rejects_non_field_operands(a, b):
    with pytest.raises(DomainError):
        gf_mul(a, b, P8)
    assert gf_mul(0xFF, 0xFF, P8) < P8.N


@pytest.mark.parametrize("n", [3, 8, 16, 20, 32])
def test_gf_mul_and_gf_cube_reject_operands_out_of_range(n):
    p = DomainParams.for_width(n)
    for bad in (p.N, -1, -p.N):
        with pytest.raises(DomainError):
            gf_mul(bad, 1, p)
        with pytest.raises(DomainError):
            gf_mul(1, bad, p)
        with pytest.raises(DomainError):
            gf_cube(bad, p)


def test_gf_cube_values():
    assert gf_cube(0, P3) == 0
    assert gf_cube(1, P3) == 1
    # Frozen from the schoolbook oracle: x^3 = x + 1 under x^3 + x + 1.
    expected = schoolbook_mul(schoolbook_mul(0b010, 0b010, 3, 3), 0b010, 3, 3)
    assert expected == 0b011
    assert gf_cube(0b010, P3) == expected


@pytest.mark.parametrize("p", [P3, P8], ids=["n3", "n8"])
def test_field_axioms_sampled(p):
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rng.randrange(p.N) for _ in range(3))
        assert gf_mul(a, gf_mul(b, c, p), p) == gf_mul(gf_mul(a, b, p), c, p)
        assert gf_mul(a, b, p) == gf_mul(b, a, p)
        assert gf_mul(a, b ^ c, p) == gf_mul(a, b, p) ^ gf_mul(a, c, p)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_nonzero_element_invertible(n):
    p = DomainParams.for_width(n)
    for a in range(1, p.N):
        row = {gf_mul(a, x, p) for x in range(p.N)}
        assert len(row) == p.N


def test_mat_vec_identity_and_zero():
    ident = BinMatrix.identity(5)
    for v in range(32):
        assert mat_vec(ident, v) == v
    m = BinMatrix((0b10011, 0b00110, 0b11111, 0b00001, 0b01010))
    assert mat_vec(m, 0) == 0


def test_mat_vec_bit_reversal():
    # Independent oracle: shuffle bits explicitly.
    def bitrev(v, n):
        return sum(((v >> (n - 1 - i)) & 1) << i for i in range(n))

    m = BinMatrix((1 << 3, 1 << 2, 1 << 1, 1 << 0))  # output bit i = input bit 3 - i
    assert mat_vec(m, 0b0011) == 0b1100
    for v in range(16):
        assert mat_vec(m, v) == bitrev(v, 4)


@pytest.mark.parametrize("n", range(2, 13))
def test_rotation_matrix_is_the_bit_rotation(n):
    mask = (1 << n) - 1
    rng = random.Random(n)
    vs = range(1 << n) if n <= 8 else [rng.randrange(1 << n) for _ in range(200)]
    for r in range(-n, 2 * n + 1):
        m, s = BinMatrix.rotation(n, r), r % n
        for v in vs:
            assert mat_vec(m, v) == ((v << s) | (v >> (n - s))) & mask, (n, r, v)


def test_mat_vec_equals_the_entrywise_product():
    """Output bit i is the sum over j of entry (i, j) = bit j of row i
    times bit j of v, on 600 random matrices and vectors at n = 1..12."""
    rng = random.Random(61)
    for trial in range(600):
        n = 1 + trial % 12
        rows = tuple(rng.randrange(1 << n) for _ in range(n))
        v = rng.randrange(1 << n)
        want = sum(
            (sum((rows[i] >> j) & (v >> j) & 1 for j in range(n)) % 2) << i for i in range(n)
        )
        assert mat_vec(BinMatrix(rows), v) == want, (rows, v)


def test_bin_matrix_names_the_first_row_out_of_range():
    for rows, bad in (((1, 4), 4), ((-1, 1), -1), ((0, 1, 16, -1), 16)):
        with pytest.raises(ValueError, match=f"row {bad:#x} out of range for n={len(rows)}"):
            BinMatrix(rows)
    with pytest.raises(ValueError, match="empty matrix"):
        BinMatrix(())


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.data())
def test_mat_vec_linearity(n, data):
    rows = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    m = BinMatrix(rows)
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    assert mat_vec(m, a ^ b) == mat_vec(m, a) ^ mat_vec(m, b)


def test_kernel_of_identity_and_zero():
    assert mat_kernel_basis(BinMatrix.identity(6)) == ()
    basis = mat_kernel_basis(BinMatrix.zero(6))
    assert sorted(basis) == [1 << i for i in range(6)]


def test_permutation_matrix_xor_kills_all_ones():
    m1 = BinMatrix.rotation(5, -1)
    m3 = BinMatrix.rotation(5, 1)
    diff = m1 ^ m3
    all_ones = 0b11111
    assert mat_vec(diff, all_ones) == 0
    assert all_ones in set(_span(mat_kernel_basis(diff)))
    assert not mat_is_invertible(diff)


def _span(basis):
    vecs = {0}
    for b in basis:
        vecs |= {v ^ b for v in vecs}
    return vecs


@pytest.mark.parametrize("n", [2, 4, 8, 12])
def test_kernel_invertibility_and_nonzero_images_agree(n):
    rng = random.Random(n)
    for _ in range(40):
        m = BinMatrix(tuple(rng.randrange(1 << n) for _ in range(n)))
        basis = mat_kernel_basis(m)
        inv = mat_is_invertible(m)
        assert inv == (len(basis) == 0)
        nonzero_kills = [v for v in range(1, 1 << n) if mat_vec(m, v) == 0]
        assert inv == (not nonzero_kills)
        assert sorted(_span(basis) - {0}) == nonzero_kills


def test_joint_kernel():
    m1 = BinMatrix.identity(4)
    assert joint_kernel_basis([m1, BinMatrix.zero(4)]) == ()
    rot1 = BinMatrix.rotation(4, 1)
    rot2 = BinMatrix.rotation(4, 2)
    joint = joint_kernel_basis([BinMatrix.identity(4) ^ rot1,
                                BinMatrix.identity(4) ^ rot2])
    for v in _span(joint):
        assert mat_vec(rot1, v) == v and mat_vec(rot2, v) == v
    assert 0b1111 in _span(joint)


def test_orthomorphism_examples():
    assert not is_orthomorphism(lambda x: x, 4)
    assert not is_orthomorphism(lambda x: 5, 4)
    # kL||kR -> kR||(kL ^ kR) at n=2, enumerated by hand: a permutation both ways.
    def pi2(k):
        kl, kr = k >> 1, k & 1
        return (kr << 1) | (kl ^ kr)

    assert is_orthomorphism(pi2, 2)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_orthomorphism_all_even_widths(n):
    h = n // 2
    mask = (1 << h) - 1

    def pi(k):
        kl, kr = k >> h, k & mask
        return (kr << h) | (kl ^ kr)

    assert is_orthomorphism(pi, n)


def test_orthomorphism_width_cap():
    with pytest.raises(DomainTooLarge):
        is_orthomorphism(lambda x: x, 17)


# Independent irreducibility oracle: trial division by every lower-degree
# polynomial with a nonzero constant allowed as factor candidate.
def has_factor(full, n):
    for d in range(1, n // 2 + 1):
        for mask in range(1 << d):
            div = (1 << d) | mask
            r = full
            while r.bit_length() >= div.bit_length():
                r ^= div << (r.bit_length() - div.bit_length())
            if r == 0:
                return True
    return False


@pytest.mark.parametrize("n", range(2, 17))
def test_polynomial_table_minimal_and_irreducible_small(n):
    mask = REDUCTION_POLYNOMIALS[n]
    full = (1 << n) | mask
    assert not has_factor(full, n)
    for smaller in range(1, mask):
        assert has_factor((1 << n) | smaller, n)


@pytest.mark.parametrize("n", range(2, 33))
def test_polynomial_table_against_sympy(n):
    x = sympy.Symbol("x")
    mask = REDUCTION_POLYNOMIALS[n]
    expr = x**n + sum((mask >> i & 1) * x**i for i in range(n))
    assert sympy.Poly(expr, x, modulus=2).is_irreducible


def test_domain_params_validation():
    assert DomainParams.for_width(8).N == 256
    with pytest.raises(ValueError):
        DomainParams(1)
    with pytest.raises(ValueError):
        DomainParams(33)
