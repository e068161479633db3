import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from speigen import attractor, eigen, spectra
from speigen import (
    BudgetExceeded,
    Reason,
    SignWord,
    Verdict,
    ZeroScaling,
    build_graph,
    build_instance,
    decide_scaling,
    decide_scaling_signed,
    decide_second_type,
    find_sign_word,
    search_eigenvalues,
    shortcut_divisor,
    spectrum_level,
    word_witness_search,
    zero_set_contains,
)

from conftest import instance_family
from oracles import cycle_length_bound, first_sign_word, multiplicative_order

WORD_BUDGET = 10**8


def word_based_decision(inst, t):
    """Independent verdict from the brute-force word enumeration alone."""
    if not isinstance(t, int):
        return Verdict.NOT_SPECTRUM
    if math.gcd(abs(t), inst.N) != 1:
        return Verdict.NOT_SPECTRUM
    digits = [abs(t) * l for l in inst.L]
    bound = cycle_length_bound(inst.M, t, digits, WORD_BUDGET)
    witness = word_witness_search(inst.M, digits, bound, word_budget=WORD_BUDGET)
    return Verdict.NOT_SPECTRUM if witness else Verdict.SPECTRUM


def signed_word_based_decision(inst, t, omega):
    if math.gcd(abs(t), inst.N) != 1:
        return Verdict.NOT_SPECTRUM
    base = inst.M**omega.r
    digits = spectrum_level(inst, abs(t), omega.r, omega).elements
    bound = cycle_length_bound(base, t, digits, WORD_BUDGET)
    witness = word_witness_search(base, digits, bound, word_budget=WORD_BUDGET)
    return Verdict.NOT_SPECTRUM if witness else Verdict.SPECTRUM


# --------------------------------------------------------------------------
# decide_scaling
# --------------------------------------------------------------------------

def test_decide_eleven(inst12):
    decision = decide_scaling(inst12, 11)
    assert decision.verdict is Verdict.NOT_SPECTRUM
    assert decision.reason is Reason.CYCLE_FOUND
    assert decision.cycle.nodes == (3,) and decision.cycle.digits == (33,)
    assert decision.missing_frequency == -3
    assert decision.integer_point_count == 4


def test_decide_odd_spectra(inst12):
    for t in (1, 3, 5, 7, 9, 13, 15, 17, 19):
        decision = decide_scaling(inst12, t)
        assert decision.verdict is Verdict.SPECTRUM and decision.reason is Reason.NO_CYCLE


def test_decide_shares_factor(inst12):
    decision = decide_scaling(inst12, 4)
    assert decision.verdict is Verdict.NOT_SPECTRUM and decision.reason is Reason.SHARES_FACTOR_WITH_N
    assert decision.integer_point_count is None


def test_decide_non_integer(inst12):
    decision = decide_scaling(inst12, Fraction(3, 2))
    assert decision.verdict is Verdict.NOT_SPECTRUM and decision.reason is Reason.NON_INTEGER
    assert decide_scaling(inst12, Fraction(4, 2)).t == 2


def test_decide_rejects_zero_and_floats(inst12):
    with pytest.raises(ZeroScaling):
        decide_scaling(inst12, 0)
    with pytest.raises(TypeError):
        decide_scaling(inst12, 1.5)
    with pytest.raises(TypeError):
        decide_scaling(inst12, True)


def test_decide_sign_symmetric(inst12, inst48):
    for inst in (inst12, inst48):
        for t in (1, 3, 5, 11, 22, 33):
            pos = decide_scaling(inst, t)
            neg = decide_scaling(inst, -t)
            assert pos.verdict == neg.verdict and pos.reason == neg.reason
            assert neg.t == -t
            # Both build the graph of |t|; the missing frequency flips with t, since -t Lambda = -(t Lambda).
            assert neg.cycle == pos.cycle and neg.integer_point_count == pos.integer_point_count
            assert neg.missing_frequency == (None if pos.missing_frequency is None else -pos.missing_frequency)


def test_missing_frequencies_at_negative_t_are_orthogonal_but_absent():
    # Every t < 200 and a seeded sample above it, each coprime to N, on every instance with M <= 130.
    rng = random.Random(21)
    checked = 0
    for inst in instance_family(m_limit=130):
        coprime = [t for t in range(1, 5000) if math.gcd(t, inst.N) == 1]
        for t in [t for t in coprime if t < 200] + rng.sample([t for t in coprime if t >= 200], 30):
            decision = decide_scaling(inst, -t)
            if decision.cycle is None:
                continue
            d = decision.missing_frequency
            level3 = spectrum_level(inst, -t, 3).elements
            assert d > 0 and d not in level3, (inst.M, -t)
            assert all(zero_set_contains(inst, d - lam) for lam in level3), (inst.M, -t, d)
            checked += 1
    assert checked > 250


@pytest.mark.parametrize("m, points, length", [(8, 7765, 4), (9, 24814, 9), (10, 80666, 5)])
def test_hard_scalings_are_pinned(inst12, m, points, length):
    # t = (12**m - 1) / 11 divides 12**m - 1 with a small cofactor, so T(12, tL) keeps thousands of
    # points on cycles whose lengths divide m; the word oracle finds the same least length.
    t = (12**m - 1) // 11
    decision = decide_scaling(inst12, t)
    assert decision.verdict is Verdict.NOT_SPECTRUM and decision.integer_point_count == points
    assert decision.cycle.length == length and decision.cycle.verify(12)
    digits = [t * l for l in inst12.L]
    assert word_witness_search(12, digits, length)[0] == length
    assert word_witness_search(12, digits, length - 1) is None


@pytest.mark.parametrize("inst", instance_family(m_limit=48), ids=lambda inst: inst.describe())
def test_the_hard_class_equals_the_word_oracle(inst):
    # t = (M**m - 1) / k for m <= 6 and the three least k in [2, 64): the word oracle's length bound is
    # ord_t(M), which divides m, so it runs where a dense scan of the O(t) candidates could not.
    for m in range(1, 7):
        for k in [k for k in range(2, 64) if (inst.M**m - 1) % k == 0][:3]:
            t = (inst.M**m - 1) // k
            order = multiplicative_order(t, inst.M)
            assert m % order == 0 and cycle_length_bound(inst.M, t, [t * l for l in inst.L], WORD_BUDGET) == order
            decision = decide_scaling(inst, t)
            assert decision.verdict is word_based_decision(inst, t), (m, k)
            if decision.cycle is not None:
                assert m % decision.cycle.length == 0 and decision.cycle.verify(inst.M), (m, k)


def test_decide_equals_word_oracle_spot_checks(inst12):
    for t in (1, 5, 11, 13, 33):
        assert decide_scaling(inst12, t).verdict is word_based_decision(inst12, t)


# --------------------------------------------------------------------------
# Signed decisions
# --------------------------------------------------------------------------

def test_signed_examples(inst12):
    assert decide_scaling_signed(inst12, 13, SignWord((1,))).verdict is Verdict.SPECTRUM
    all_ones_11 = decide_scaling_signed(inst12, 11, SignWord((1,)))
    assert all_ones_11.verdict is Verdict.NOT_SPECTRUM and all_ones_11.reason is Reason.CYCLE_FOUND
    alternating = decide_scaling_signed(inst12, 1, SignWord((1, -1)))
    assert alternating.verdict is Verdict.SPECTRUM
    assert alternating.integer_point_count == 1


def test_signed_missing_frequency_never_reported(inst12):
    decision = decide_scaling_signed(inst12, 11, SignWord((1,)))
    assert decision.missing_frequency is None


def test_signed_all_ones_matches_plain(inst12, inst48):
    word = SignWord((1,))
    for inst in (inst12, inst48):
        for t in (1, 3, 7, 11, 13, 15):
            plain = decide_scaling(inst, t)
            signed = decide_scaling_signed(inst, t, word)
            assert plain.verdict == signed.verdict and plain.reason == signed.reason


def test_signed_gcd_gate(inst12):
    decision = decide_scaling_signed(inst12, 6, SignWord((1, -1)))
    assert decision.reason is Reason.SHARES_FACTOR_WITH_N
    with pytest.raises(ZeroScaling):
        decide_scaling_signed(inst12, 0, SignWord((1,)))
    with pytest.raises(TypeError):
        decide_scaling_signed(inst12, Fraction(11), SignWord((1, -1)))


@pytest.mark.parametrize(
    "params, pattern, t, expected",
    [
        ((2, 3, 2, (1,)), (1, -1), 10**9 + 1, (136, (-755244756,), (-108000000108,))),
        ((2, 3, 2, (1,)), (1, -1), 10**12 + 1, (1, None, None)),
        ((3, 2, 3, (1,)), (1, -1, 1), 10**6 + 1, (1, None, None)),
        ((3, 2, 3, (1,)), (1, -1, 1, -1), 10**9 + 1, (2, (-545454546,), (-4638030004638030,))),
        ((2, 15, 3, (1, 2)), (1, 1, -1, 1), 10**9 + 1, (1, None, None)),
        ((2, 3, 2, (1,)), (1, -1), (12**8 - 1) // 11, (8108, (-27061785,), (-3869835255,))),
        ((2, 3, 2, (1,)), (1, 1, -1), (12**8 - 1) // 11, (1, None, None)),
    ],
)
def test_signed_decisions_at_large_t_are_pinned(params, pattern, t, expected):
    # The answers of the block-digit enumeration, which took 0.3-1.5 s per call here at t = 10**9 + 1
    # and above.  t = (12**8 - 1) / 11 is of the hard class of test_hard_scalings_are_pinned.
    inst = build_instance(*params)
    decision = decide_scaling_signed(inst, t, SignWord(pattern))
    count, nodes, digits = expected
    assert decision.integer_point_count == count
    if nodes is None:
        assert decision.verdict is Verdict.SPECTRUM and decision.cycle is None
    else:
        assert decision.verdict is Verdict.NOT_SPECTRUM
        assert (decision.cycle.nodes, decision.cycle.digits) == (nodes, digits)
        assert decision.cycle.verify(inst.M ** len(pattern))


def test_signed_decisions_never_enumerate_block_digits(monkeypatch, inst12, inst120):
    def refuse(*args, **kwargs):
        raise AssertionError("a signed decision enumerated the block digits")

    for module in (spectra, eigen, attractor):
        if hasattr(module, "spectrum_level"):
            monkeypatch.setattr(module, "spectrum_level", refuse)
    assert decide_scaling_signed(inst120, 7, SignWord((1, -1, 1, -1))).verdict is Verdict.SPECTRUM
    assert decide_scaling_signed(inst12, 11, SignWord((1, 1, 1))).verdict is Verdict.NOT_SPECTRUM
    assert find_sign_word(inst12, [11, 3], 4) == SignWord((1, -1))
    assert find_sign_word(inst120, [119, 7], 4) is not None


def test_sign_word_search_counts_its_words_against_the_budget(monkeypatch, inst12):
    # With every decision refuted, the search tries all 2 + 4 + ... + 2**r_max words.
    refuted = eigen.EigenDecision(t=1, verdict=Verdict.NOT_SPECTRUM, reason=Reason.CYCLE_FOUND)
    monkeypatch.setattr(eigen, "decide_scaling_signed", lambda *args, **kwargs: refuted)
    assert find_sign_word(inst12, [1], 5, node_budget=62) is None
    with pytest.raises(BudgetExceeded, match="sign words: needs 63, budget is 62"):
        find_sign_word(inst12, [1], 6, node_budget=62)


# --------------------------------------------------------------------------
# Shortcut, search, second type
# --------------------------------------------------------------------------

def test_shortcut_examples(inst12, inst120):
    assert shortcut_divisor(inst120, 15) is Verdict.SPECTRUM
    assert shortcut_divisor(inst12, 9) is Verdict.SPECTRUM
    assert shortcut_divisor(inst12, 7) is None
    assert shortcut_divisor(inst12, 1) is Verdict.SPECTRUM
    with pytest.raises(ValueError):
        shortcut_divisor(inst12, 0)


def factorize(n):
    """Prime factorization {p: exponent} of n >= 1 by trial division."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_shortcut_fires_exactly_when_every_prime_of_t_divides_R(inst120, family):
    # 45 = 3**2 * 5 is no power of a single divisor of R = 15, yet all its primes divide R.
    assert shortcut_divisor(inst120, 45) is Verdict.SPECTRUM
    # Cofactors up to 60 add R with repeated primes (9, 25, 27, 45, ...).
    cofactors = [build_instance(N, R, 1) for N in (2, 3) for R in range(2, 61) if math.gcd(R, N) == 1]
    for inst in family + cofactors:
        for t in range(1, 400):
            expected = Verdict.SPECTRUM if all(inst.R % p == 0 for p in factorize(t)) else None
            assert shortcut_divisor(inst, t) is expected, (inst.describe(), t)
            if expected is not None:
                assert decide_scaling(inst, t).verdict is expected, (inst.describe(), t)


def test_the_R_part_of_t_scales_the_witness(family):
    # t = t_R * t' with t_R collecting the primes of R: t decides as t' does,
    # and its cycle and missing frequency are t_R times those of t'.
    for inst in family:
        for t in range(2, 400):
            if math.gcd(t, inst.N) != 1:
                continue
            t_R = math.prod(p**e for p, e in factorize(t).items() if inst.R % p == 0)
            if t_R == 1:
                continue
            whole, free = decide_scaling(inst, t), decide_scaling(inst, t // t_R)
            case = (inst.describe(), t)
            assert whole.verdict is free.verdict and whole.reason is free.reason, case
            if free.cycle is None:
                assert whole.cycle is None and whole.missing_frequency is None, case
            else:
                assert whole.cycle.nodes == tuple(t_R * x for x in free.cycle.nodes), case
                assert whole.cycle.digits == tuple(t_R * c for c in free.cycle.digits), case
                assert whole.missing_frequency == t_R * free.missing_frequency, case


def test_shortcut_on_a_large_prime_cofactor():
    R = 2**61 - 1
    inst = build_instance(2, R, 2, [1])
    assert shortcut_divisor(inst, R) is Verdict.SPECTRUM
    assert shortcut_divisor(inst, R**2) is Verdict.SPECTRUM
    assert shortcut_divisor(inst, 3 * R) is None


def test_shortcut_never_contradicts(inst12, inst48, inst120):
    for inst in (inst12, inst48, inst120):
        for t in range(1, 21):
            if shortcut_divisor(inst, t) is Verdict.SPECTRUM:
                assert decide_scaling(inst, t).verdict is Verdict.SPECTRUM


def test_search_range(inst12):
    decisions = search_eigenvalues(inst12, 1, 19)
    verdicts = {d.t: d for d in decisions}
    assert [d.t for d in decisions] == list(range(1, 20))
    for t, decision in verdicts.items():
        if t % 2 == 0:
            assert decision.reason is Reason.SHARES_FACTOR_WITH_N
        elif t == 11:
            assert decision.verdict is Verdict.NOT_SPECTRUM
        else:
            assert decision.verdict is Verdict.SPECTRUM


def test_search_negative_singleton(inst12):
    (decision,) = search_eigenvalues(inst12, -5, -5)
    assert decision.verdict is Verdict.SPECTRUM


def test_search_skips_zero(inst12):
    decisions = search_eigenvalues(inst12, -1, 1)
    assert [d.t for d in decisions] == [-1, 1]
    with pytest.raises(ValueError):
        search_eigenvalues(inst12, 3, 1)


def test_search_budget_counts_the_nonzero_scalings(inst12):
    assert len(search_eigenvalues(inst12, -5, 5, node_budget=10)) == 10
    with pytest.raises(BudgetExceeded, match="search scalings: needs 10, budget is 9"):
        search_eigenvalues(inst12, -5, 5, node_budget=9)


def test_second_type_examples(inst12):
    assert decide_second_type(inst12, 3, 5) is True
    assert decide_second_type(inst12, 1, 2) is False
    assert decide_second_type(inst12, 6, 10) is True
    with pytest.raises(ZeroScaling):
        decide_second_type(inst12, 0, 5)
    with pytest.raises(ZeroScaling):
        decide_second_type(inst12, 5, 0)


# --------------------------------------------------------------------------
# Missing frequency and orthogonality of verdicts
# --------------------------------------------------------------------------

def test_missing_frequency_orthogonal_but_absent(inst12):
    decision = decide_scaling(inst12, 11)
    d = decision.missing_frequency
    assert d == -3 and d < 0
    level3 = spectrum_level(inst12, 11, 3)
    assert all(zero_set_contains(inst12, d - lam) for lam in level3.elements)
    assert d not in level3.elements


def test_spectrum_verdicts_are_orthogonal_sets(inst12, inst48):
    for inst, t in ((inst12, 5), (inst12, 13), (inst48, 9)):
        assert decide_scaling(inst, t).verdict is Verdict.SPECTRUM
        elements = spectrum_level(inst, t, 3).elements
        diffs = {b - a for i, a in enumerate(elements) for b in elements[i + 1 :]}
        assert all(zero_set_contains(inst, diff) for diff in diffs)


# --------------------------------------------------------------------------
# Sign-word search
# --------------------------------------------------------------------------

def test_find_sign_word_trivial_cases(inst12):
    assert find_sign_word(inst12, [7], 1) == SignWord((1,))
    assert find_sign_word(inst12, [3, 5], 1) == SignWord((1,))


def test_find_sign_word_validation(inst12):
    with pytest.raises(ValueError):
        find_sign_word(inst12, [], 1)
    with pytest.raises(ValueError):
        find_sign_word(inst12, [4], 1)
    with pytest.raises(ZeroScaling):
        find_sign_word(inst12, [0], 1)
    with pytest.raises(ValueError):
        find_sign_word(inst12, [3], 0)


def test_find_sign_word_for_eleven_cross_checked(inst12):
    # No outcome is asserted in advance: whatever the search visits is
    # cross-checked against the independent word enumeration, candidate by
    # candidate, in the declared (period, binary-pattern) order.
    result = find_sign_word(inst12, [11], 8)
    visited = []
    for r in range(1, 9):
        stop = False
        for bits in range(2**r):
            omega = SignWord.from_bits(r, bits)
            visited.append(omega)
            if decide_scaling_signed(inst12, 11, omega).verdict is Verdict.SPECTRUM:
                stop = True
                break
        if stop:
            break
    for omega in visited:
        graph_verdict = decide_scaling_signed(inst12, 11, omega).verdict
        assert graph_verdict is signed_word_based_decision(inst12, 11, omega)
    if result is not None:
        assert visited[-1] == result
        assert decide_scaling_signed(inst12, 11, result).verdict is Verdict.SPECTRUM


def test_find_sign_word_reaches_every_coprime_pair_by_period_three():
    # type2 reports "not found within r_max", never nonexistence; this pins how
    # far r_max = 3 reaches on the family with M <= 130.
    found = Counter()
    for inst in instance_family(m_limit=130):
        for t1 in range(1, 40):
            for t2 in range(1, 40):
                if math.gcd(t1, t2) != 1 or math.gcd(t1 * t2, inst.N) != 1:
                    continue
                word = find_sign_word(inst, [t1, t2], 3)
                assert word is not None, (inst.describe(), t1, t2)
                found[word.pattern] += 1
    assert sum(found.values()) == 18287
    assert found == {(1,): 16723, (1, -1): 1438, (1, 1, -1): 126}


def test_find_sign_word_graph_sizes_stay_exact(inst12):
    # The alternating word flips the block digits into a window so narrow
    # that only 0 survives; the decision must reflect that exactly.
    blocks = spectrum_level(inst12, 11, 2, SignWord((1, -1))).elements
    graph = build_graph(144, blocks)
    decision = decide_scaling_signed(inst12, 11, SignWord((1, -1)))
    assert decision.integer_point_count == len(graph.nodes)


def sign_class(pattern, length=840):
    """Least shift of the infinite word or of its negation, over ``length`` terms.

    Two periodic words of period at most 8 are equal as sequences exactly
    when they agree on ``lcm(1..8) = 840`` terms, so this keys a word's class
    without its primitive root.
    """
    r = len(pattern)
    return min(tuple(sign * pattern[(i + s) % r] for i in range(length)) for s in range(r) for sign in (1, -1))


def test_sign_word_classes_are_rotations_negations_and_powers():
    words = [SignWord.from_bits(r, bits).pattern for r in range(1, 7) for bits in range(2**r)]
    keys = {w: eigen._word_class(w) for w in words}
    classes = {w: sign_class(w) for w in words}
    for a in words:
        for b in words:
            assert (keys[a] == keys[b]) == (classes[a] == classes[b]), (a, b)
    for r_max, count in ((4, 5), (10, 117)):
        patterns = (SignWord.from_bits(r, bits).pattern for r in range(1, r_max + 1) for bits in range(2**r))
        assert len({eigen._word_class(w) for w in patterns}) == count


def test_find_sign_word_matches_the_every_word_oracle():
    # Searches whose plain word fails, so that later words and skipped classes matter.
    rng = random.Random(18)
    family = instance_family(m_limit=130)
    found = Counter()
    while sum(found.values()) < 60:
        inst = rng.choice(family)
        ts = [rng.randrange(1, 400) for _ in range(rng.choice((1, 2, 3)))]
        if any(math.gcd(t, inst.N) != 1 for t in ts) or all(decide_scaling(inst, t).verdict is Verdict.SPECTRUM for t in ts):
            continue
        word = find_sign_word(inst, ts, 4)
        assert word == first_sign_word(inst, ts, 4), (inst.describe(), ts)
        found[word.pattern] += 1
    assert found == {(1, -1): 50, (1, 1, -1): 10}


def test_find_sign_word_decides_each_class_once(monkeypatch, inst12, inst120):
    seen = Counter()
    real = eigen.decide_scaling_signed

    def counted(inst, t, omega, **kwargs):
        seen[t, sign_class(omega.pattern)] += 1
        return real(inst, t, omega, **kwargs)

    monkeypatch.setattr(eigen, "decide_scaling_signed", counted)
    for inst, ts, r_max in ((inst12, [11], 8), (inst12, [11, 3], 4), (inst120, [119, 7], 4), (inst12, [11, 7], 4)):
        seen.clear()
        assert find_sign_word(inst, ts, r_max) == first_sign_word(inst, ts, r_max)
        assert seen and max(seen.values()) == 1

    # With every decision refuted, all 62 words of period at most 5 are reached and only their 8 classes decided.
    refuted = eigen.EigenDecision(t=1, verdict=Verdict.NOT_SPECTRUM, reason=Reason.CYCLE_FOUND)
    seen.clear()

    def refute(inst, t, omega, **kwargs):
        seen[sign_class(omega.pattern)] += 1
        return refuted

    monkeypatch.setattr(eigen, "decide_scaling_signed", refute)
    assert find_sign_word(inst12, [1], 5, node_budget=62) is None
    assert len(seen) == 8 and max(seen.values()) == 1


# --------------------------------------------------------------------------
# Divisor inheritance
# --------------------------------------------------------------------------

# The five least d = (12**m - 1) / gcd(W, 12**m - 1) that nonzero words W of length m <= 9 give:
# each is NotSpectrum, and none of its proper divisors is.
PRIMITIVE_DENOMINATORS_12 = (11, 1885, 2041, 4943, 22621)


def test_scaled_witnesses_of_a_divisor_are_cycles_of_the_multiple(inst12):
    # A cycle of T(12, dL) times u is a cycle of T(12, duL): checked by arithmetic alone, up to t ~ 10**18.
    rng = random.Random(6)
    for d in PRIMITIVE_DENOMINATORS_12:
        witness = decide_scaling(inst12, d).cycle
        assert witness.verify(12)
        for u in [1, 2, 10**12 + 39] + [rng.randrange(1, 10**18 // d) for _ in range(20)]:
            t = d * u
            scaled = attractor.CycleWitness(nodes=tuple(u * z for z in witness.nodes), digits=tuple(u * c for c in witness.digits))
            assert scaled.verify(12), (d, u)
            assert all(c % t == 0 and c // t in inst12.L for c in scaled.digits), (d, u)


def test_multiples_of_a_primitive_denominator_are_not_spectra(inst12):
    rng = random.Random(6)
    for d in (1885, 4943, 22621):
        u = rng.randrange(10**4, 10**10 // d) | 1  # odd, so t stays coprime to N = 2
        decision = decide_scaling(inst12, d * u)
        assert decision.verdict is Verdict.NOT_SPECTRUM and decision.reason is Reason.CYCLE_FOUND
        assert decision.cycle.verify(12)


# --------------------------------------------------------------------------
# Large-t oracles
# --------------------------------------------------------------------------

def divisors(primes):
    """Every product of a subset of the distinct primes, in ascending order."""
    out = [1]
    for p in primes:
        out += [d * p for d in out]
    return sorted(out)


# 12**12 - 1 = 5 * 7 * 11 * 13 * 19 * 29 * 157 * 20593: each of its 256 divisors t is coprime to 12,
# and every cycle length of T(12, tL) divides 12, so word_witness_search up to length 12 decides t.
PRIMES_12_12 = (5, 7, 11, 13, 19, 29, 157, 20593)
DIVISORS_12_12 = divisors(PRIMES_12_12)


def complete_word_oracle(inst, t):
    return word_witness_search(inst.M, [t * l for l in inst.L], 12, word_budget=10**8)


def test_decide_matches_the_complete_word_oracle_on_divisors_of_12_12_minus_1(inst12):
    # The 202 divisors below 10**9, 71 of them Spectrum: verdict and least cycle length agree.
    assert math.prod(PRIMES_12_12) == 12**12 - 1
    ts = [t for t in DIVISORS_12_12 if t < 10**9]
    verdicts = Counter()
    for t in ts:
        decision, witness = decide_scaling(inst12, t), complete_word_oracle(inst12, t)
        verdicts[decision.verdict] += 1
        if witness is None:
            assert decision.verdict is Verdict.SPECTRUM, t
        else:
            assert decision.verdict is Verdict.NOT_SPECTRUM and decision.cycle.length == witness[0], t
            assert decision.cycle.verify(12), t
    assert len(ts) == 202 and verdicts[Verdict.SPECTRUM] == 71


def test_the_complete_word_oracle_on_large_divisors_of_12_12_minus_1(inst12):
    # The 28 divisors of at least 10**10, beyond what decide answers quickly, are all NotSpectrum.
    lengths = {t: complete_word_oracle(inst12, t)[0] for t in DIVISORS_12_12 if t >= 10**10}
    assert Counter(lengths.values()) == {1: 20, 4: 3, 6: 3, 12: 2}
    assert [lengths[t] for t in (685853880635, 810554586205, 1273728635465, 1783220089651)] == [1, 4, 1, 1]


@pytest.mark.parametrize("n, primes, count", [
    (10**16 + 1, (353, 449, 641, 1409, 69857), 19),
    (10**14 + 1, (29, 101, 281, 121499449), 8),
])
def test_proper_divisors_of_10_to_the_e_plus_1_are_spectra(inst12, n, primes, count):
    assert math.prod(primes) == n
    ts = [t for t in divisors(primes)[1:-1] if t < 10**9]
    assert len(ts) == count
    for t in ts:
        assert decide_scaling(inst12, t).verdict is Verdict.SPECTRUM, t
