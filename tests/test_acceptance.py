"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the two frozen numeric constants come from
``tools/calibrate_q_reference.py`` (mpmath at 30 significant digits).
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from speigen import (
    SignWord,
    Verdict,
    decide_scaling,
    decide_second_type,
    find_sign_word,
    hadamard_check_exact,
    q_function,
    shortcut_divisor,
    spectrum_level,
    word_witness_search,
    zero_set_contains,
)

from oracles import cycle_length_bound, hadamard_check_numeric

# Frozen floor: extended-precision minimum of Q_6 over the 25-point grid
# (0.999999035611738273) minus a 1e-9 safety margin.
Q6_FLOOR = 0.999999034612


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:02d}: PASS - {description}")


def spectrum_scaling_powers(inst):
    """Every t = u**k with u a divisor of R, u > 1, k <= 3."""
    divisors = [u for u in range(2, inst.R + 1) if inst.R % u == 0]
    return sorted({u**k for u in divisors for k in (1, 2, 3)})


def test_criterion_01_odd_scalings_below_twenty(inst12):
    with criterion(1, "odd t in 1..19 on the M=12 instance: Spectrum exactly when t != 11, under 1s"):
        start = time.perf_counter()
        verdicts = {t: decide_scaling(inst12, t).verdict for t in range(1, 20, 2)}
        elapsed = time.perf_counter() - start
        for t, verdict in verdicts.items():
            expected = Verdict.NOT_SPECTRUM if t == 11 else Verdict.SPECTRUM
            assert verdict is expected, (t, verdict)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_multiples_of_eleven(inst12):
    with criterion(2, "t in {11,33,55,121}: NotSpectrum with an exactly-verified cycle witness"):
        for t in (11, 33, 55, 121):
            decision = decide_scaling(inst12, t)
            assert decision.verdict is Verdict.NOT_SPECTRUM, t
            witness = decision.cycle
            assert witness is not None and all(eta != 0 for eta in witness.nodes)
            assert witness.verify(inst12.M)
            m = witness.length
            closing = sum(witness.digits[j] * inst12.M**j for j in range(m))
            assert (inst12.M**m - 1) * witness.nodes[0] == closing


def test_criterion_03_m120_power_scalings(inst120):
    with criterion(3, "M=120 instance: t in {3,5,9,15,25,45,225} all Spectrum, under 2s"):
        start = time.perf_counter()
        for t in (3, 5, 9, 15, 25, 45, 225):
            assert decide_scaling(inst120, t).verdict is Verdict.SPECTRUM, t
        assert time.perf_counter() - start < 2.0


def test_criterion_04_m48_power_scalings(inst48):
    with criterion(4, "M=48 instance: t in {3,9,27} all Spectrum"):
        for t in (3, 9, 27):
            assert decide_scaling(inst48, t).verdict is Verdict.SPECTRUM, t


def test_criterion_05_divisor_powers_over_family(family):
    with criterion(5, "family sweep: powers of divisors of R are Spectrum; shortcut never contradicts"):
        for inst in family:
            for t in spectrum_scaling_powers(inst):
                assert shortcut_divisor(inst, t) is Verdict.SPECTRUM, (inst.describe(), t)
                assert decide_scaling(inst, t).verdict is Verdict.SPECTRUM, (inst.describe(), t)
            for t in range(1, 21):
                shortcut = shortcut_divisor(inst, t)
                if shortcut is not None:
                    assert decide_scaling(inst, t).verdict is shortcut, (inst.describe(), t)


def test_criterion_06_graph_equals_word_oracle(family_small):
    with criterion(6, "M<=48 family, odd |t|<=25: graph decision equals word-enumeration decision"):
        disagreements = []
        for inst in family_small:
            for t in [t for t in range(-25, 26) if t % 2]:
                graph_verdict = decide_scaling(inst, t).verdict
                if math.gcd(abs(t), inst.N) != 1:
                    word_verdict = Verdict.NOT_SPECTRUM
                else:
                    digits = [abs(t) * l for l in inst.L]
                    bound = cycle_length_bound(inst.M, t, digits, 10**8)
                    witness = word_witness_search(inst.M, digits, bound, word_budget=10**8)
                    word_verdict = Verdict.NOT_SPECTRUM if witness else Verdict.SPECTRUM
                if graph_verdict is not word_verdict:
                    disagreements.append((inst.describe(), t))
        assert disagreements == []


def test_criterion_07_hadamard_cross_validation(family):
    with criterion(7, "exact Hadamard check == numeric check at 1e-9 == coprimality, |t|<=20"):
        for inst in family:
            for t in [t for t in range(-20, 21) if t]:
                expected = math.gcd(abs(t), inst.N) == 1
                assert hadamard_check_exact(inst, t) == expected, (inst.describe(), t)
                scaled = [t * l for l in inst.L]
                assert hadamard_check_numeric(inst.M, inst.D, scaled, 1e-9) == expected, (inst.describe(), t)


def test_criterion_08_exact_orthogonality_of_spectrum_verdicts(family):
    with criterion(8, "each Spectrum scaling: level-2 pairwise differences all in the zero set"):
        for inst in family:
            for t in spectrum_scaling_powers(inst):
                assert decide_scaling(inst, t).verdict is Verdict.SPECTRUM
                elements = spectrum_level(inst, t, 2).elements
                diffs = {b - a for i, a in enumerate(elements) for b in elements[i + 1 :]}
                assert all(zero_set_contains(inst, d) for d in diffs), (inst.describe(), t)


def test_criterion_09_missing_frequency_confirmation(inst12):
    with criterion(9, "t=11 missing frequency -3: exact orthogonality at level 3 and Q(-3) <= 1e-12"):
        decision = decide_scaling(inst12, 11)
        d = decision.missing_frequency
        assert d == -3
        level3 = spectrum_level(inst12, 11, 3)
        assert all(zero_set_contains(inst12, d - lam) for lam in level3.elements)
        assert d not in level3.elements
        assert q_function(inst12, level3.elements, float(d), tol=1e-12) <= 1e-12


def test_criterion_10_bessel_and_monotone_q(inst12):
    with criterion(10, "Q over levels 1..6: nondecreasing, <= 1 + 1e-9, terminal >= frozen floor"):
        grid = [i / 25 for i in range(25)]
        per_level = {k: spectrum_level(inst12, 1, k).elements for k in range(1, 7)}
        for xi in grid:
            previous = 0.0
            for k in range(1, 7):
                value = q_function(inst12, per_level[k], xi, tol=1e-12)
                assert value <= 1.0 + 1e-9, (xi, k, value)
                assert value >= previous - 1e-12, (xi, k, value, previous)
                previous = value
            assert previous >= Q6_FLOOR, (xi, previous)


def test_criterion_11_second_type_characterization(inst12):
    with criterion(11, "type-2 decision matches the coprimality characterization; [3,5] word is all-ones"):
        for t1 in range(-20, 21):
            for t2 in range(-20, 21):
                if t1 == 0 or t2 == 0:
                    continue
                ratio = Fraction(t1, t2)
                expected = math.gcd(abs(ratio.numerator), inst12.N) == 1 and math.gcd(ratio.denominator, inst12.N) == 1
                assert decide_second_type(inst12, t1, t2) == expected, (t1, t2)
        assert find_sign_word(inst12, [3, 5], 1) == SignWord((1,))
