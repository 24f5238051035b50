"""Exhaustive structural identity sweeps at n = 4."""

import pytest

from kafw.equivalence import kafv_vs_kafw_sweep, lucifer_sandwich_sweep
from kafw.errors import DomainError, DomainTooLarge, TooFewRounds


@pytest.mark.parametrize("t", range(2, 7))
def test_kafv_conversion_exhaustive(t):
    result = kafv_vs_kafw_sweep(4, t, seeds=(0, 1, 2))
    assert result.cases == 3 * 16 * 256
    assert result.mismatches == 0, result.first_mismatch


def test_lucifer_sandwich_exhaustive():
    result = lucifer_sandwich_sweep(4, 4, seeds=(0, 1, 2))
    assert result.cases == 3 * 16 * 256
    assert result.mismatches == 0, result.first_mismatch


def test_lucifer_sandwich_three_rounds():
    result = lucifer_sandwich_sweep(4, 3, seeds=(5,))
    assert result.passed


def test_sweep_guards():
    with pytest.raises(DomainTooLarge):
        kafv_vs_kafw_sweep(17, 4)
    with pytest.raises(TooFewRounds):
        lucifer_sandwich_sweep(4, 2)


@pytest.mark.parametrize("sweep", (kafv_vs_kafw_sweep, lucifer_sandwich_sweep))
def test_sweeps_reject_an_empty_seed_list(sweep):
    with pytest.raises(DomainError):
        sweep(4, 4, seeds=())
