import math
import random
from collections import Counter

import numpy as np
import pytest

from speigen import (
    EigenDecision,
    Reason,
    SignWord,
    SpectrumTruncation,
    Verdict,
    build_instance,
    check_orthogonal_set,
    completeness_probe,
    decide_scaling,
    default_grid,
    hadamard_check_exact,
    q_function,
    spectrum_level,
    validate,
    zero_set_contains,
)

from conftest import instance_family

# Frozen against tools/calibrate_q_reference.py (mpmath, 30 digits).
Q6_AT_HALF_ORACLE = 0.999999576754916776


def test_orthogonal_level_two(inst12):
    report = check_orthogonal_set(inst12, spectrum_level(inst12, 1, 2).elements)
    assert report.orthogonal and report.failing_pair is None


def test_truncations_are_orthogonal_exactly_when_the_hadamard_check_holds():
    # 400 seeded cases of instance_family() x 1 <= t < 60 coprime to N x omega in {none, (1,-1),
    # (1,1,-1)} x levels 1 to 3, up to 800 elements.  For such t the first nonzero digit of a
    # difference fixes its N-adic valuation below q, so the level-1 check decides every level.
    rng = random.Random(6)
    family = instance_family()
    words = [None, SignWord((1, -1)), SignWord((1, 1, -1))]
    levels = Counter()
    while sum(levels.values()) < 400:
        inst, t, omega, k = rng.choice(family), rng.randrange(1, 60), rng.choice(words), rng.randint(1, 3)
        if math.gcd(t, inst.N) != 1 or len(inst.L) ** k > 800:
            continue
        report = check_orthogonal_set(inst, spectrum_level(inst, t, k, omega).elements)
        assert report.orthogonal == hadamard_check_exact(inst, t), (inst.describe(), t, omega, k)
        levels[k] += 1
    assert min(levels[k] for k in (1, 2, 3)) >= 100


@pytest.mark.parametrize("t, failing_pair", [
    (6, None), (-6, None), (12, None), (-12, None), (36, None), (144, None),
    (2, (0, 12)), (4, (0, 12)), (8, (0, 24)), (24, (0, 144)),
])
def test_orthogonality_at_t_sharing_a_factor_with_N_is_not_the_hadamard_check(inst12, t, failing_pair):
    # The Hadamard check fails at every t sharing a factor with N, yet on M = 12 levels 1 to 3 of tL
    # stay orthogonal at t = +-6, +-12, 36 and 144: there the powers of R = 3 in t make up for its extra
    # powers of N, at a higher level of the zero set.  So the check decides orthogonality only for t
    # coprime to N; for other t the pairs must still be enumerated.
    assert not hadamard_check_exact(inst12, t)
    for k in (1, 2, 3):
        report = check_orthogonal_set(inst12, spectrum_level(inst12, t, k).elements)
        assert report.orthogonal is (failing_pair is None) and report.failing_pair == failing_pair, (t, k)


def test_not_orthogonal_pair(inst12):
    report = check_orthogonal_set(inst12, [0, 1])
    assert not report.orthogonal
    assert report.failing_pair == (0, 1)
    assert not zero_set_contains(inst12, report.failing_pair[1] - report.failing_pair[0])


def test_first_failing_pair_in_ascending_order(inst12):
    report = check_orthogonal_set(inst12, [0, 3, 4, 9])
    assert not report.orthogonal
    assert report.failing_pair == (0, 4)


def test_eleven_lambda_is_bi_zero_but_not_spectrum(inst12):
    report = check_orthogonal_set(inst12, spectrum_level(inst12, 11, 2).elements)
    assert report.orthogonal
    assert decide_scaling(inst12, 11).verdict is Verdict.NOT_SPECTRUM


def test_duplicates_rejected(inst12):
    with pytest.raises(ValueError):
        check_orthogonal_set(inst12, [0, 0, 3])


def test_q_at_zero_is_one(inst12):
    elements = spectrum_level(inst12, 1, 2).elements
    assert abs(q_function(inst12, elements, 0.0, tol=1e-12) - 1.0) <= 1e-12


def test_q_vanishes_at_missing_frequency(inst12):
    elements = spectrum_level(inst12, 11, 2).elements
    assert q_function(inst12, elements, -3.0, tol=1e-12) <= 1e-12


def test_q_level_six_matches_extended_precision_oracle(inst12):
    elements = spectrum_level(inst12, 1, 6).elements
    value = q_function(inst12, elements, 0.5, tol=1e-12)
    assert 0.0 < value <= 1.0 + 1e-9
    assert abs(value - Q6_AT_HALF_ORACLE) <= 1e-8


def test_q_exactness_of_vanishing(inst12):
    # Every xi - lambda in the zero set forces Q below #elements * tol^2.
    tol = 1e-9
    elements = spectrum_level(inst12, 11, 2).elements
    assert all(zero_set_contains(inst12, -3 - lam) for lam in elements)
    assert q_function(inst12, elements, -3.0, tol=tol) <= len(elements) * tol**2


def test_bessel_bound_on_orthogonal_family(inst12):
    elements = spectrum_level(inst12, 7, 2).elements
    for i in range(7):
        xi = i / 7
        assert q_function(inst12, elements, xi, tol=1e-12) <= 1.0 + 1e-9


def test_probe_monotone_and_bounded(inst12, monkeypatch):
    trunc = spectrum_level(inst12, 1, 4)
    grid = [i / 10 for i in range(10)]
    report = completeness_probe(inst12, trunc, grid, tol=1e-9)
    assert report.violations == ()
    by_xi = {}
    for xi, level, value in report.q_samples:
        by_xi.setdefault(xi, []).append((level, value))
    for xi, pairs in by_xi.items():
        values = [v for _, v in sorted(pairs)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= 1 + 1e-9 for v in values)
    # Only a faulty transform makes Q go down across nested levels; the probe reports it.
    monkeypatch.setattr(validate, "fourier_power", lambda inst, xs, tol: -np.ones(len(xs)))
    report = completeness_probe(inst12, spectrum_level(inst12, 1, 2), [0.0], tol=1e-9)
    assert report.violations == ("Q_2(0.0) = -16.0 decreased below Q_1(0.0) = -4.0",)


def test_probe_constant_one_at_zero(inst12):
    trunc = spectrum_level(inst12, 1, 3)
    report = completeness_probe(inst12, trunc, [0.0], tol=1e-9)
    assert all(abs(value - 1.0) <= 1e-12 for _, _, value in report.q_samples)


def test_probe_confirms_missing_frequency(inst12):
    decision = decide_scaling(inst12, 11)
    trunc = spectrum_level(inst12, 11, 3)
    report = completeness_probe(inst12, trunc, [-3.0], tol=1e-9, decision=decision)
    assert report.missing_frequency_check == (-3, True)
    assert all(value <= 1e-12 for _, _, value in report.q_samples)
    assert report.violations == ()
    # A frequency that is not orthogonal to the truncation is reported, not raised.
    forged = EigenDecision(t=11, verdict=Verdict.NOT_SPECTRUM, reason=Reason.CYCLE_FOUND, missing_frequency=1)
    report = completeness_probe(inst12, trunc, [-3.0], tol=1e-9, decision=forged)
    assert report.missing_frequency_check == (1, False)
    assert report.violations == ("missing frequency 1 fails exact orthogonality against the truncation",)


def test_probe_requires_grid(inst12):
    with pytest.raises(ValueError):
        completeness_probe(inst12, spectrum_level(inst12, 1, 2), [], tol=1e-9)


def test_default_grid(inst12):
    assert default_grid() == [i / 25 for i in range(25)]
    decision = decide_scaling(inst12, 11)
    grid = default_grid(decision)
    assert len(grid) == 26 and grid[-1] == -3.0


def test_report_json_round_trip(inst12):
    decision = decide_scaling(inst12, 11)
    trunc = spectrum_level(inst12, 11, 2)
    report = completeness_probe(inst12, trunc, [0.0, -3.0], tol=1e-9, decision=decision)
    payload = report.to_json_dict()
    assert payload["missing_frequency_check"] == {"d": "-3", "confirmed": True}
    assert isinstance(payload["q_samples"], list) and payload["q_samples"][0]["level"] == 1


# The four instances the validate-probe benchmark draws from (M = 12, 48, 54, 120).
PROBE_INSTANCES = ((2, 3, 2, (1,)), (2, 3, 4, (3,)), (3, 2, 3, (1,)), (2, 15, 3, (1, 2)))


def looped_probe(inst, trunc, grid, tol, decision=None):
    """The probe as one q_function call per grid point and level, checks and all."""
    levels = range(1, trunc.level + 1)
    per_level = {k: spectrum_level(inst, trunc.t, k, trunc.omega).elements for k in levels}
    samples, violations = [], []
    for xi in grid:
        previous = None
        for k in levels:
            value = q_function(inst, per_level[k], xi, tol=tol)
            samples.append((float(xi), k, value))
            if value > 1.0 + tol:
                violations.append(f"Q_{k}({xi}) = {value} exceeds Bessel bound 1 + {tol}")
            if previous is not None and value < previous - validate.MONOTONE_SLACK:
                violations.append(f"Q_{k}({xi}) = {value} decreased below Q_{k - 1}({xi}) = {previous}")
            previous = value
    missing = None
    if decision is not None and decision.missing_frequency is not None:
        d = decision.missing_frequency
        missing = (d, all(zero_set_contains(inst, d - lam) for lam in trunc.elements))
        if not missing[1]:
            violations.append(f"missing frequency {d} fails exact orthogonality against the truncation")
    return tuple(samples), tuple(violations), missing


def assert_probe_matches_loop(inst, trunc, grid, tol=1e-9, decision=None, ulps=0):
    report = completeness_probe(inst, trunc, grid, tol=tol, decision=decision)
    samples, violations, missing = looped_probe(inst, trunc, grid, tol, decision)
    where = (inst.describe(), trunc.t, trunc.omega, trunc.level)
    if ulps == 0:
        assert report.q_samples == samples, where
    else:
        assert [s[:2] for s in report.q_samples] == [s[:2] for s in samples], where
        gaps = [abs(a[2] - b[2]) for a, b in zip(report.q_samples, samples)]
        assert max(gaps) <= ulps * np.finfo(float).eps, where
    assert report.violations == violations, where
    assert report.missing_frequency_check == missing, where
    return report


def count_kernel_calls(monkeypatch):
    """Record the batch size of each fourier_power call; forbid q_function."""
    kernel = validate.fourier_power
    calls = []

    def counted(inst, xs, tol):
        calls.append(len(xs))
        return kernel(inst, xs, tol=tol)

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe must not call q_function")

    monkeypatch.setattr(validate, "fourier_power", counted)
    monkeypatch.setattr(validate, "q_function", forbidden)
    return calls


def test_batched_probe_equals_the_loop_on_the_benchmark_instances():
    # Even t share a factor with N = 2, so their levels are not orthogonal and
    # the Bessel violations are compared too.
    violated = 0
    for params in PROBE_INSTANCES:
        inst = build_instance(*params)
        for t in (1, 2, 11, 997):
            decision = decide_scaling(inst, t)
            report = assert_probe_matches_loop(inst, spectrum_level(inst, t, 3), default_grid(decision), decision=decision)
            violated += bool(report.violations)
    assert violated >= 3


def test_batched_probe_is_within_ulps_of_the_loop_on_the_family(family_small):
    # The kernel multiplies a one-element batch on another numpy path, so a
    # sample can differ from the loop's in its last bit (e.g. Q_1(0.56) at
    # t = 997 on N=2 R=3 q=3 p=[]).
    grid = [0.0, 0.24, 0.56, 0.88]
    for inst in family_small:
        for t in (1, 11, 997):
            decision = decide_scaling(inst, t)
            extra = [float(decision.missing_frequency)] if decision.missing_frequency is not None else []
            assert_probe_matches_loop(inst, spectrum_level(inst, t, 3), grid + extra, decision=decision, ulps=4)
            for pattern in ((1, -1), (1, 1, -1)):
                omega = SignWord(pattern)
                assert_probe_matches_loop(inst, spectrum_level(inst, t, 3, omega), grid, ulps=4)


def test_truncation_larger_than_a_batch(monkeypatch):
    inst = build_instance(3, 2, 3, [1])
    trunc = spectrum_level(inst, 1, 4)
    assert len(trunc.elements) == 6561 > validate.PROBE_BATCH
    grid = [0.0, 0.3, 0.7, -2.5]
    calls = count_kernel_calls(monkeypatch)
    report = completeness_probe(inst, trunc, grid, tol=1e-9)
    assert calls == [6561] * len(grid)
    monkeypatch.undo()
    assert_probe_matches_loop(inst, trunc, grid)
    assert len(report.q_samples) == 4 * len(grid)


def test_grid_rows_span_several_kernel_calls(inst12, monkeypatch):
    trunc = spectrum_level(inst12, 11, 3)
    grid = [i / 150 for i in range(150)] + [-3.0]
    rows = validate.PROBE_BATCH // len(trunc.elements)
    calls = count_kernel_calls(monkeypatch)
    completeness_probe(inst12, trunc, grid, tol=1e-9)
    assert len(calls) == math.ceil(len(grid) / rows) > 1
    assert all(n <= validate.PROBE_BATCH for n in calls) and sum(calls) == len(grid) * len(trunc.elements)
    monkeypatch.undo()
    assert_probe_matches_loop(inst12, trunc, grid, decision=decide_scaling(inst12, 11))


def test_probe_refuses_levels_outside_the_truncation(inst12):
    full = spectrum_level(inst12, 1, 2).elements
    trunc = SpectrumTruncation(t=1, omega=None, level=2, elements=full[1:])
    with pytest.raises(ValueError, match="the level-1 window holds 3 elements, not 4: levels not nested"):
        completeness_probe(inst12, trunc, [0.0], tol=1e-9)
