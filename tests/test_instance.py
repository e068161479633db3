import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speigen import InvalidParameters, build_instance, from_descriptor, instance, nadic_split


def test_example_m12(inst12):
    assert inst12.M == 12
    assert inst12.D == (0, 1, 2, 3)
    assert inst12.L == (0, 3, 6, 9)
    assert inst12.c == 3


def test_example_m120(inst120):
    assert inst120.M == 120
    assert inst120.D == tuple(range(8))
    assert inst120.L == tuple(range(0, 120, 15))
    assert inst120.c == 15


def test_example_m48(inst48):
    assert inst48.M == 48
    assert inst48.D == (0, 1, 8, 9)
    assert inst48.L == (0, 3, 24, 27)
    assert inst48.c == 3


def test_gcd_violation_rejected():
    with pytest.raises(InvalidParameters) as err:
        build_instance(2, 4, 2, [1])
    assert "gcd" in err.value.codes
    assert "gcd(R,N) must be 1" in str(err.value)


def test_all_violations_reported_at_once():
    with pytest.raises(InvalidParameters) as err:
        build_instance(1, 1, 0, [2, 1])
    codes = set(err.value.codes)
    assert {"N<2", "R<2", "q<1", "p_order"} <= codes
    with pytest.raises(InvalidParameters) as err:
        build_instance("2", 3, 2, [1])
    assert err.value.codes == ["N_type"]


@pytest.mark.parametrize(
    "p, code",
    [([0], "p_first"), ([-1], "p_first"), ([2], "p_last"), ([1, 1], "p_order"), ([1.5], "p_type")],
)
def test_p_constraints(p, code):
    with pytest.raises(InvalidParameters) as err:
        build_instance(2, 3, 2, p)
    assert code in err.value.codes


def test_digit_budget_guard(monkeypatch):
    def refuse(*args):
        raise AssertionError("the digit set was built past its budget")

    # 19 block exponents give 2**20 digits, one past the budget of 10**6.
    monkeypatch.setattr(instance, "direct_sum", refuse)
    with pytest.raises(InvalidParameters) as err:
        build_instance(2, 3, 25, list(range(1, 20)))
    assert err.value.codes == ["digit_budget"]
    assert "digit set size N^(s+1) = 1048576 exceeds budget 1000000" in str(err.value)


def test_single_block_extension_accepted():
    inst = build_instance(2, 3, 2, [])
    assert inst.s == 0 and inst.p_last == 0
    assert inst.D == (0, 1) and inst.B == (0, 1)
    assert inst.c == 6 and inst.L == (0, 6)


def test_direct_sum_matches_mixed_radix_enumeration(family):
    # Independent reconstruction: one digit per block, summed explicitly.
    for inst in family:
        exps = (0, *inst.p)
        rebuilt = sorted(
            sum(inst.N**e * d for e, d in zip(exps, digits))
            for digits in itertools.product(range(inst.N), repeat=len(exps))
        )
        assert list(inst.D) == rebuilt
        assert len(set(rebuilt)) == inst.N ** (inst.s + 1)


def test_direct_sum_sorts_its_sums_and_refuses_a_repeated_one():
    assert instance.direct_sum([3, -1, 2]) == (-1, 2, 3)
    assert instance.direct_sum([0, 1], [0, 4], [-8, 8]) == (-8, -7, -4, -3, 8, 9, 12, 13)
    assert instance.direct_sum() == (0,)
    for sets in (([0, 1], [0, 1]), ([0, 2, 4], [0, 2]), ([5, 5],)):
        with pytest.raises(ValueError, match="not direct"):
            instance.direct_sum(*sets)


def test_derived_relations(family):
    for inst in family:
        assert inst.L == tuple(inst.c * b for b in inst.B)
        assert inst.c * inst.N ** (inst.p_last + 1) == inst.M
        assert len(inst.D) == len(inst.B) == len(inst.L) == inst.N ** (inst.s + 1)
        assert inst.D[-1] < inst.N ** (inst.p_last + 1) <= inst.N**inst.q <= inst.M
        assert inst.L[-1] < inst.M
        assert 0 in inst.D and 1 in inst.D and 0 in inst.L


def test_digit_differences_have_unit_gcd(family):
    for inst in family:
        diffs = [b - a for a in inst.D for b in inst.D if b > a]
        assert math.gcd(*diffs) == 1


def test_companion_differences_have_admissible_valuation(family):
    # Distinct companion digits differ by N^(p_s - p_j) times a unit mod N;
    # this is the exact property the orthogonality argument consumes.
    for inst in family:
        allowed = set(inst.exponents)
        for a in inst.B:
            for b in inst.B:
                if b > a:
                    v, _ = nadic_split(b - a, inst.N)
                    assert v in allowed, (inst.describe(), a, b)


def test_descriptor_round_trip(inst120):
    desc = inst120.to_descriptor()
    assert desc == {"N": "2", "R": "15", "q": 3, "p": [1, 2]}
    again = from_descriptor(json.loads(json.dumps(desc)))
    assert again == inst120


def test_descriptor_accepts_native_and_string_integers():
    a = from_descriptor({"N": 2, "R": 3, "q": 2, "p": [1]})
    b = from_descriptor({"N": "2", "R": "3", "q": "2", "p": ["1"]})
    assert a == b


def test_descriptor_errors():
    with pytest.raises(InvalidParameters):
        from_descriptor({"N": 2, "R": 3})
    with pytest.raises(InvalidParameters):
        from_descriptor({"N": 2, "R": 3, "q": 2, "p": "nope"})
    with pytest.raises(InvalidParameters):
        from_descriptor({"N": "2x", "R": 3, "q": 2})
    with pytest.raises(InvalidParameters) as err:
        from_descriptor("[2, 3, 2]")
    assert err.value.codes == ["descriptor"] and "must be a JSON object" in str(err.value)
    for bad in (True, 2.0):
        with pytest.raises(InvalidParameters) as err:
            from_descriptor({"N": bad, "R": 3, "q": 2, "p": [1]})
        assert err.value.codes == ["N_type"]


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=6),
    R=st.integers(min_value=2, max_value=40),
    q=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_build_instance_never_lies(N, R, q, data):
    p = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=q - 1), max_size=2))) if q > 1 else []
    try:
        inst = build_instance(N, R, q, p)
    except InvalidParameters as err:
        # The strategy only produces structurally valid p, so the sole
        # rejection cause is the coprimality constraint.
        assert err.codes == ["gcd"]
        assert math.gcd(R, N) != 1
        return
    assert math.gcd(R, N) == 1
    assert len(set(inst.D)) == N ** (len(p) + 1)
    assert inst.M == R * N**q
