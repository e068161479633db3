import random

import pytest

from speigen import (
    BudgetExceeded,
    SignWord,
    ZeroScaling,
    spectra,
    spectrum_level,
    zero_set_contains,
)

from conftest import instance_family


def test_level_one_is_the_digit_set(inst12):
    trunc = spectrum_level(inst12, 1, 1)
    assert trunc.elements == (0, 3, 6, 9)


def test_level_two_enumeration(inst12):
    trunc = spectrum_level(inst12, 1, 2)
    assert len(trunc.elements) == 16
    assert trunc.elements[0] == 0
    assert trunc.elements[-1] == 9 + 12 * 9


def test_level_two_signed(inst12):
    trunc = spectrum_level(inst12, 1, 2, SignWord((1, -1)))
    assert len(trunc.elements) == 16
    assert trunc.elements[0] == -108
    assert trunc.elements[-1] == 9


def test_block_digit_set_examples(inst12):
    # The block digits of a word of period r are its level-r truncation.
    assert spectrum_level(inst12, 5, 1, SignWord((1,))).elements == (0, 15, 30, 45)
    assert spectrum_level(inst12, 1, 1, SignWord((-1,))).elements == (-9, -6, -3, 0)
    blocks = spectrum_level(inst12, 1, 2, SignWord((1, -1))).elements
    assert len(blocks) == 16
    assert all(-108 <= x <= 9 for x in blocks)
    assert blocks == tuple(sorted(l1 - 12 * l2 for l1 in inst12.L for l2 in inst12.L))


def test_prefix_property(inst12):
    for omega in (None, SignWord((1, -1, -1))):
        previous = spectrum_level(inst12, 1, 1, omega).elements
        for k in (2, 3):
            current = spectrum_level(inst12, 1, k, omega).elements
            assert set(previous) <= set(current)
            previous = current


def test_each_level_is_a_magnitude_window_of_level_three():
    # instance_family(m_limit=400) x 6 seeded (t, omega) each, t of either sign up to 10**6 and omega
    # none or of period at most 3: 420 level-3 truncations, 1,260 windows.
    rng = random.Random(20)
    words = [None] + [SignWord.from_bits(r, bits) for r in (1, 2, 3) for bits in range(2**r)]
    windows = 0
    for inst in instance_family(m_limit=400):
        for _ in range(6):
            t, omega = rng.choice((-1, 1)) * rng.randrange(1, 10**6), rng.choice(words)
            top = spectrum_level(inst, t, 3, omega)
            for k in (1, 2, 3):
                level = spectrum_level(inst, t, k, omega).elements
                assert top.elements[spectra.level_window(inst, top, k)] == level, (inst.describe(), t, omega, k)
                windows += 1
    assert windows == 1260


def test_injective_counts(inst48, inst120):
    for inst, k in ((inst48, 3), (inst120, 2)):
        trunc = spectrum_level(inst, 1, k)
        assert len(trunc.elements) == len(set(trunc.elements)) == len(inst.L) ** k


def test_all_ones_word_equals_plain(inst12):
    for k in (1, 2, 3):
        assert spectrum_level(inst12, 7, k, SignWord((1,))).elements == spectrum_level(inst12, 7, k).elements


def test_nonzero_elements_lie_in_zero_set(inst12):
    for k in (1, 2, 3):
        for lam in spectrum_level(inst12, 1, k).elements:
            if lam:
                assert zero_set_contains(inst12, lam)


def test_unsigned_positive_scaling_bounds(inst120):
    for t, k in ((1, 2), (7, 2)):
        trunc = spectrum_level(inst120, t, k)
        assert trunc.elements[0] == 0
        assert all(0 <= x < t * inst120.M**k for x in trunc.elements)


def test_negative_scaling_sorted(inst12):
    trunc = spectrum_level(inst12, -5, 2)
    assert list(trunc.elements) == sorted(trunc.elements)
    assert trunc.elements[0] == -5 * (9 + 12 * 9)


def test_budget_and_zero_scaling(monkeypatch, inst12):
    def refuse(*args):
        raise AssertionError("the truncation was built past its budget")

    monkeypatch.setattr(spectra, "direct_sum", refuse)
    with pytest.raises(BudgetExceeded, match="spectrum truncation elements: needs 1048576, budget is 1000000"):
        spectrum_level(inst12, 1, 10)
    with pytest.raises(ZeroScaling):
        spectrum_level(inst12, 0, 1)
    with pytest.raises(ValueError):
        spectrum_level(inst12, 1, 0)


def test_sign_word_validation():
    with pytest.raises(ValueError):
        SignWord(())
    with pytest.raises(ValueError):
        SignWord((1, 2))
    assert SignWord.parse("1,-1").pattern == (1, -1)
    assert SignWord.from_bits(2, 0).pattern == (1, 1)
    assert SignWord.from_bits(2, 1).pattern == (1, -1)
    assert SignWord.from_bits(2, 3).pattern == (-1, -1)
    with pytest.raises(ValueError):
        SignWord.from_bits(2, 4)
    word = SignWord((1, -1))
    assert [word.sign_at(j) for j in range(1, 6)] == [1, -1, 1, -1, 1]
