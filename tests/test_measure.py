import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speigen import (
    ZeroScaling,
    _kernels,
    build_instance,
    completeness_probe,
    fourier_power,
    fourier_value,
    fourier_values,
    hadamard_check_exact,
    nadic_split,
    q_function,
    spectrum_level,
    zero_set_contains,
    zero_set_decompose,
)

from speigen.measure import _digit_runs

from oracles import SizeMismatch, companion_valuation_check, hadamard_check_numeric, mask_direct_sum


def mask_runs(inst, x):
    """m_D at x from the kernel's blocks, one per run of consecutive exponents."""
    amp, phase = _kernels.mask_factors(x, *_digit_runs(inst))
    return amp * np.exp(1j * math.pi * phase)


# --------------------------------------------------------------------------
# Mask polynomial
# --------------------------------------------------------------------------

def test_mask_at_zero_is_one(inst12):
    assert mask_runs(inst12, 0.0) == 1.0 + 0.0j


def test_mask_quarter_vanishes(inst12):
    assert abs(mask_runs(inst12, 0.25)) <= 1e-12


def test_mask_third_is_quarter(inst12):
    # (1 + w + w^2 + 1) / 4 with w a primitive cube root of unity.
    value = mask_runs(inst12, 1 / 3)
    assert abs(value - 0.25) <= 1e-12


def test_mask_product_matches_direct_sum(inst12, inst48, inst120):
    rng = random.Random(20240811)
    for inst in (inst12, inst48, inst120):
        for _ in range(100):
            x = rng.random()
            assert abs(mask_runs(inst, x) - mask_direct_sum(inst, x)) <= 1e-12


def test_mask_bounded(inst120):
    rng = random.Random(7)
    for _ in range(200):
        x = rng.uniform(-50, 50)
        assert abs(mask_runs(inst120, x)) <= 1 + 1e-12


# --------------------------------------------------------------------------
# Transform of the measure
# --------------------------------------------------------------------------

def test_fourier_at_zero_exact(inst12):
    assert fourier_value(inst12, 0.0, 1e-12) == 1.0 + 0.0j


def test_fourier_vanishes_on_zero_set_point(inst12):
    assert abs(fourier_value(inst12, 3.0, 1e-12)) <= 1e-12


def test_fourier_against_high_precision_product(inst12):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    acc = mp.mpc(1)
    for k in range(1, 201):
        y = mp.mpf(1) / mp.mpf(12) ** k
        acc *= sum(mpmath.expjpi(2 * d * y) for d in inst12.D) / 4
    got = fourier_value(inst12, 1.0, 1e-12)
    assert abs(got - complex(acc)) <= 1e-10


def test_fourier_bounded(inst48):
    rng = random.Random(99)
    for _ in range(100):
        xi = rng.uniform(-1e4, 1e4)
        assert abs(fourier_value(inst48, xi, 1e-12)) <= 1 + 1e-12


def test_fourier_rejects_bad_tol(inst12):
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            fourier_value(inst12, 0.3, tol)
        with pytest.raises(ValueError):
            fourier_values(inst12, [0.3], tol)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` have passed, so a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


NUMERIC_ENTRY_POINTS = {
    "fourier_value": lambda inst, xi: fourier_value(inst, xi),
    "fourier_values": lambda inst, xi: fourier_values(inst, [0.5, xi]),
    "fourier_power": lambda inst, xi: fourier_power(inst, [xi, 0.5]),
    "q_function": lambda inst, xi: q_function(inst, [0, 3], xi),
    "completeness_probe": lambda inst, xi: completeness_probe(inst, spectrum_level(inst, 1, 2), [0.0, xi]),
}


@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_non_finite_frequencies_are_rejected(inst12, entry):
    # An infinite frequency keeps the tail bound infinite, so the level loop would never end;
    # a NaN one would pass every comparison silently.
    for xi in (math.inf, -math.inf, math.nan):
        with deadline(5), pytest.raises(ValueError, match="finite"):
            NUMERIC_ENTRY_POINTS[entry](inst12, xi)


# --------------------------------------------------------------------------
# Exact zero-set membership
# --------------------------------------------------------------------------

def test_zero_set_examples(inst12, inst48):
    w = zero_set_decompose(inst12, 3)
    assert w is not None and (w.k, inst12.exponents[w.j], w.l) == (0, 0, 1)
    assert not zero_set_contains(inst12, 12)
    assert not zero_set_contains(inst12, Fraction(1, 2))
    w48 = zero_set_decompose(inst48, 120)
    assert w48 is not None and (w48.k, inst48.exponents[w48.j], w48.l) == (0, 3, 5)
    assert zero_set_decompose(inst48, 6) is None  # valuation 1 is no block exponent of (3, 0)


def test_zero_set_rejects_floats_and_zero(inst12):
    with pytest.raises(TypeError):
        zero_set_contains(inst12, 0.5)
    with pytest.raises(TypeError):
        zero_set_contains(inst12, True)
    assert not zero_set_contains(inst12, 0)


def test_zero_set_symmetry(inst12):
    for xi in range(1, 200):
        assert zero_set_contains(inst12, xi) == zero_set_contains(inst12, -xi)


def test_decompose_recovers_constructed_members(family):
    rng = random.Random(42)
    for inst in family:
        for _ in range(12):
            k = rng.randrange(0, 3)
            j = rng.randrange(0, inst.s + 1)
            l = rng.choice([u for u in range(-3 * inst.N, 3 * inst.N + 1) if u and u % inst.N])
            xi = inst.c * inst.M**k * inst.N ** inst.exponents[j] * l
            witness = zero_set_decompose(inst, xi)
            assert witness is not None
            assert (witness.k, witness.j, witness.l) == (k, j, l)


def test_members_kill_a_mask_factor(inst12, inst48, inst120):
    # xi = c * M^k * N^e * l vanishes through the factor at level k + 1.
    rng = random.Random(5)
    for inst in (inst12, inst48, inst120):
        for _ in range(40):
            k = rng.randrange(0, 3)
            j = rng.randrange(0, inst.s + 1)
            l = rng.choice([u for u in range(1, 4 * inst.N) if u % inst.N])
            xi = inst.c * inst.M**k * inst.N ** inst.exponents[j] * l
            witness = zero_set_decompose(inst, xi)
            assert witness is not None and witness.k == k
            assert abs(mask_runs(inst, xi / inst.M ** (k + 1))) < 1e-9


def test_non_members_keep_factors_large(inst12):
    # Multiples of c outside the zero set never come near a mask zero.
    checked = 0
    for n in range(1, 400):
        xi = inst12.c * n
        if zero_set_contains(inst12, xi):
            continue
        checked += 1
        for k in range(1, 7):
            assert abs(mask_runs(inst12, xi / inst12.M**k)) > 1e-6
    assert checked >= 50


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=-(10**12), max_value=10**12).filter(lambda v: v != 0),
    base=st.integers(min_value=2, max_value=12),
)
def test_nadic_split_is_exact(n, base):
    v, unit = nadic_split(n, base)
    assert base**v * unit == n
    assert unit % base != 0


def test_nadic_split_rejects_zero():
    with pytest.raises(ValueError):
        nadic_split(0, 2)


# --------------------------------------------------------------------------
# Hadamard pair checks
# --------------------------------------------------------------------------

def test_hadamard_numeric_examples():
    assert hadamard_check_numeric(12, [0, 1, 2, 3], [0, 3, 6, 9], 1e-9)
    assert hadamard_check_numeric(4, [0, 2], [0, 1], 1e-9)
    assert not hadamard_check_numeric(12, [0, 1, 2, 3], [0, 3, 6, 8], 1e-9)


def test_hadamard_numeric_size_mismatch():
    with pytest.raises(SizeMismatch):
        hadamard_check_numeric(12, [0, 1, 2, 3], [0, 3, 6], 1e-9)


def test_hadamard_exact_examples(inst12):
    assert hadamard_check_exact(inst12, 1)
    assert hadamard_check_exact(inst12, 11)
    assert not hadamard_check_exact(inst12, 4)
    with pytest.raises(ZeroScaling):
        hadamard_check_exact(inst12, 0)


def test_hadamard_exact_equals_gcd_and_numeric(inst12, inst48, inst120):
    for inst in (inst12, inst48, inst120):
        for t in range(-50, 51):
            if t == 0:
                continue
            expected = math.gcd(abs(t), inst.N) == 1
            assert hadamard_check_exact(inst, t) == expected
            if abs(t) <= 20:
                scaled = [t * l for l in inst.L]
                assert hadamard_check_numeric(inst.M, inst.D, scaled, 1e-9) == expected


def test_hadamard_closed_form_equals_the_valuation_oracle(family):
    # gcd(|t|, N) == 1 against the pairwise valuation walk, on instance_family() plus instances with
    # N = 4, 6, 10 and 12, where t can share a proper factor with N, at every 0 < |t| <= 60 and at
    # N**5 * 7, M, M**2 and R**3.
    extra = [build_instance(4, 3, 2, [1]), build_instance(6, 5, 2, [1]), build_instance(10, 3, 3, [2]),
             build_instance(12, 5, 1, []), build_instance(12, 7, 3, [2])]
    disagreements, shared = [], 0
    for inst in family + extra:
        for t in [t for t in range(-60, 61) if t] + [inst.N**5 * 7, inst.M, inst.M**2, inst.R**3]:
            closed = hadamard_check_exact(inst, t)
            if closed != companion_valuation_check(inst, t):
                disagreements.append((inst.describe(), t))
            shared += not closed
    assert disagreements == []
    assert shared > 1000
