import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speigen import (
    AttractorSystem,
    BudgetExceeded,
    CycleWitness,
    SignWord,
    build_graph,
    build_instance,
    find_nonzero_cycle,
    integer_points,
    spectrum_level,
    word_witness_search,
)
from speigen.attractor import _phase_intervals, _split
from speigen.eigen import Verdict, decide_scaling, scaled_system

from conftest import instance_family
from oracles import bfs_least_cycle, dense_integer_points, split_reference


def thin(points, gap):
    """The sorted points, each kept when it lies at least ``gap`` above the last one kept."""
    kept = []
    for x in sorted(points):
        if not kept or x - kept[-1] >= gap:
            kept.append(x)
    return kept


def spaced_digits(rng, b, gap, size):
    """At most ``size`` digits drawn from ``[0, (b - 1) * gap)``, thinned to gaps of at least ``gap``, then shifted.

    Their span is below ``(b - 1) * gap``, so every set drawn with one gap is spaced.
    """
    shift = rng.randint(-(b - 1) * gap, (b - 1) * gap)
    return [shift + x for x in thin(rng.sample(range((b - 1) * gap), size), gap)]


def is_spaced(b, phases):
    """Whether the largest span of the phases is below ``b - 1`` times their least gap."""
    phases = [sorted(set(C)) for C in phases]
    span = max(C[-1] - C[0] for C in phases)
    gaps = [y - x for C in phases for x, y in zip(C, C[1:])]
    return not gaps or span < (b - 1) * min(gaps)


def brute_force_members(b, digits, lo, hi):
    """Independent oracle: Kleene iteration from the full candidate interval.

    z is an integer point iff a digit path of length #candidates + 1 starting
    at z stays inside the interval; alive_k is exactly the set admitting a
    path of length k.
    """
    alive = set(range(lo, hi + 1))
    for _ in range(hi - lo + 2):
        alive = {z for z in alive if any(b * z - c in alive for c in digits)}
    return alive


def single_sided_integer_points(b, C):
    """Reference enumeration: word sums refined top-down only, then the worklist fixpoint.

    A word sum w of level k covers the integers z with ``b**k * z - w`` in
    the candidate interval [lo, hi]; level k+1 extends each w by the digits
    that keep such z inside [lo, hi] and keeps a sum iff it still covers an
    integer.  The refinement stops once the covered integers number no more
    than word sums times digits, and the fixpoint then prunes every covered
    integer.  About ``width ** (log #C / log b)`` work, with no backward
    closure: the covered integers already hold every point.
    """
    digits = sorted(set(C))
    lo = -((-digits[0]) // (b - 1))
    hi = digits[-1] // (b - 1)
    if hi < lo:
        return ()
    words, scale = {0}, 1
    while True:
        ranges = []
        for w in sorted(words):
            first, last = max(lo, -((-(lo + w)) // scale)), min(hi, (hi + w) // scale)
            if ranges and first <= ranges[-1][1] + 1:
                ranges[-1] = (ranges[-1][0], max(last, ranges[-1][1]))
            else:
                ranges.append((first, last))
        if sum(last - first + 1 for first, last in ranges) <= len(words) * len(digits):
            break
        scale *= b
        refined = set()
        for w in words:
            bw = b * w
            for c in digits[bisect_left(digits, scale * lo - hi - bw) : bisect_right(digits, scale * hi - lo - bw)]:
                if (hi + bw + c) % scale <= hi - lo:
                    refined.add(bw + c)
        words = refined

    degree = {z: 0 for first, last in ranges for z in range(first, last + 1)}
    for z in degree:
        degree[z] = sum(1 for c in digits if b * z - c in degree)
    dead = [z for z, out in degree.items() if out == 0]
    for z in dead:
        del degree[z]
    while dead:
        y = dead.pop()
        for c in digits:
            x, r = divmod(y + c, b)
            if r == 0 and x in degree:
                degree[x] -= 1
                if degree[x] == 0:
                    del degree[x]
                    dead.append(x)
    return tuple(sorted(degree))


def dfs_word_witness_search(
    b: int,
    C,
    max_len: int,
    word_budget: int,
):
    """Reference enumeration: depth-first over every word, in (length, lexicographic) order.

    The first word (c_1..c_m), not all zero, with (b**m - 1) | sum b**(j-1) c_j;
    the budget counts examined words and is enforced lazily.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    digits = sorted(set(C))
    nd = len(digits)
    examined = 0

    for m in range(1, max_len + 1):
        modulus = b**m - 1
        powers = [pow(b, j, modulus) for j in range(m)]
        idx = [-1] * m
        prefix = [0] * (m + 1)  # running sum of powers[i] * c_i mod (b**m - 1)
        nonzero = [False] * (m + 1)
        j = 0
        while j >= 0:
            idx[j] += 1
            if idx[j] == nd:
                idx[j] = -1
                j -= 1
                continue
            c = digits[idx[j]]
            prefix[j + 1] = (prefix[j] + powers[j] * c) % modulus
            nonzero[j + 1] = nonzero[j] or c != 0
            if j + 1 == m:
                examined += 1
                if examined > word_budget:
                    raise BudgetExceeded("word enumeration", examined, word_budget)
                if nonzero[m] and prefix[m] == 0:
                    return m, tuple(digits[idx[i]] for i in range(m))
            else:
                j += 1
    return None


def least_cycle_oracle(system):
    """Independent oracle: every closed walk in (length, start, digit sequence) order.

    No distance pruning; the first closed walk of the least length is the
    least cycle, since a shorter cycle would have been found first.
    """
    succ = {}
    for v, c, u in system.edges:  # stored edge v -(c)-> u is the witness step u -(c)-> v
        if u != 0 and v != 0:
            succ.setdefault(u, []).append((c, v))
    starts = sorted(z for z in system.nodes if z != 0)

    def closing(path, digits, length):
        if len(digits) == length:
            return CycleWitness(tuple(path[:-1]), tuple(digits)) if path[-1] == path[0] else None
        for c, v in sorted(succ.get(path[-1], ())):
            found = closing(path + [v], digits + [c], length)
            if found:
                return found
        return None

    for length in range(1, len(starts) + 1):
        for start in starts:
            found = closing([start], [], length)
            if found:
                return found
    return None


# --------------------------------------------------------------------------
# integer_points
# --------------------------------------------------------------------------

def test_integer_points_examples():
    assert integer_points(12, [0, 3, 6, 9]) == (0,)
    assert integer_points(12, [0, 33, 66, 99]) == (0, 3, 6, 9)
    assert integer_points(12, [0, 15, 30, 45]) == (0,)


def test_integer_points_against_brute_force(inst12, inst48):
    cases = [(12, [0, 33, 66, 99]), (12, [0, 15, 30, 45]), (6, [0, 75]), (24, [0, 69, 138, 207])]
    cases += [(inst.M, [t * l for l in inst.L]) for inst in (inst12, inst48) for t in (1, 5, 11, 23)]
    for b, digits in cases:
        lo = -((-min(digits)) // (b - 1))
        hi = max(digits) // (b - 1)
        assert set(integer_points(b, digits)) == brute_force_members(b, digits, lo, hi)


@st.composite
def digit_systems(draw):
    # Spaced digit sets: points of [0, (b - 1) * gap) thinned to gaps of at least `gap`, then shifted.
    b = draw(st.integers(2, 60))
    gap = draw(st.sampled_from([1, 2, 10, 100, 1000]))
    points = draw(st.sets(st.integers(0, (b - 1) * gap - 1), min_size=1, max_size=12))
    shift = draw(st.integers(-(b - 1) * gap, (b - 1) * gap))
    return b, [shift + x for x in thin(points, gap)]


@settings(max_examples=400, deadline=None)
@given(digit_systems())
def test_integer_points_match_the_dense_scan(system):
    b, digits = system
    assert integer_points(b, digits) == dense_integer_points(b, digits)


@pytest.mark.parametrize("inst", instance_family(m_limit=400), ids=lambda inst: inst.describe())
def test_integer_points_match_the_dense_scan_on_the_family(inst):
    for t in range(1, 200, 2):
        digits = [t * l for l in inst.L]
        assert integer_points(inst.M, digits) == dense_integer_points(inst.M, digits), t


def test_integer_points_beyond_the_dense_scan(inst12):
    # Candidate intervals of about 8e8 to 8e12 integers; at most 189,168 candidates reach the fixpoint.
    assert len(integer_points(12, [(10**9 + 1) * l for l in inst12.L])) == 136
    assert integer_points(12, [(10**10 + 1) * l for l in inst12.L]) == (0,)
    decision = decide_scaling(inst12, 10**11 + 1)
    assert decision.verdict is Verdict.NOT_SPECTRUM and decision.integer_point_count == 4
    assert decision.cycle.nodes == (27272727273,) and decision.cycle.verify(12)
    decision = decide_scaling(inst12, 10**12 + 1)
    assert decision.verdict is Verdict.SPECTRUM and scaled_system(inst12, 10**12 + 1).nodes == (0,)
    decision = decide_scaling(inst12, 10**13 + 1)
    assert decision.verdict is Verdict.NOT_SPECTRUM and decision.integer_point_count == 4
    assert decision.cycle.nodes == (2727272727273,) and decision.cycle.verify(12)


def _levels(b, digits):
    """The (h, k) split that integer_points takes for this digit set."""
    ((lo, hi),) = _phase_intervals(b, [sorted(set(digits))])
    return _split(b, len(set(digits)), hi - lo + 1)


def test_split_equals_the_power_loop():
    # Running products against both sides raised as powers at every level: seeded (b, #C, width)
    # triples with #C < b, then widths up to 10**3000, where a budget refusal at huge t spends its time.
    rng = random.Random(27)
    for _ in range(5000):
        b = rng.randrange(2, 400)
        count = rng.randrange(1, b)
        width = rng.randrange(1, 10 ** rng.randrange(1, 60))
        assert _split(b, count, width) == split_reference(b, count, width), (b, count, width)
    for b, count in ((3, 2), (12, 4), (54, 9), (162, 81)):
        for width in (10**300 + 1, 10**1000 - 1, 10**3000):
            assert _split(b, count, width) == split_reference(b, count, width), (b, count, len(str(width)))


@pytest.mark.parametrize("params", [(2, 3, 2, (1,)), (2, 3, 4, (3,)), (3, 2, 3, (1,)), (2, 15, 3, (1, 2))])
def test_integer_points_match_the_single_sided_oracle_on_the_benchmark_instances(params):
    # The oracle costs about t ** dim: up to 10**10 it takes 3.4 s on M = 12 and 2.6 s on M = 54.
    inst = build_instance(*params)
    split = []
    for e in range(2, 10 if inst.M in (12, 54) else 11):
        digits = [(10**e + 1) * l for l in inst.L]
        split.append(min(_levels(inst.M, digits)))
        assert integer_points(inst.M, digits) == single_sided_integer_points(inst.M, digits), e
    assert max(split) >= 2


@pytest.mark.parametrize(
    "params, pattern, t, levels",
    [
        ((2, 3, 2, (1,)), (1, -1), 143000429, (2, 3)),
        ((2, 3, 4, (3,)), (1, -1), 470000000047, (2, 2)),
        ((2, 3, 2, (1,)), (1, 1, -1), 10**7 + 1, (1, 2)),
        ((2, 15, 3, (1, 2)), (1, -1, -1), 10**10 + 1, (1, 1)),
    ],
)
def test_integer_points_match_the_single_sided_oracle_on_signed_blocks(params, pattern, t, levels):
    inst = build_instance(*params)
    omega = SignWord(pattern)
    blocks = spectrum_level(inst, t, omega.r, omega).elements
    assert _levels(inst.M**omega.r, blocks) == levels
    assert integer_points(inst.M**omega.r, blocks) == single_sided_integer_points(inst.M**omega.r, blocks)


def block_graph(inst, t, omega):
    """Reference graph: the block digits enumerated in full, decided over the base M**r."""
    return build_graph(inst.M**omega.r, spectrum_level(inst, abs(t), omega.r, omega).elements)


def test_phases_give_the_block_graph_on_the_family():
    # 700 seeded (instance, word of period r <= 4, odd t < 200) triples over the instances with
    # M <= 130: the same graph, the same exported block digits and the same least cycle.
    rng = random.Random(34)
    family = instance_family(m_limit=130)
    words = [SignWord.from_bits(r, bits) for r in (1, 2, 3, 4) for bits in range(2**r)]
    cycles = 0
    for _ in range(700):
        inst, omega, t = rng.choice(family), rng.choice(words), rng.randrange(1, 200, 2)
        system, expected = scaled_system(inst, t, omega), block_graph(inst, t, omega)
        case = (inst.describe(), t, omega)
        assert (system.base, system.lo, system.hi) == (expected.base, expected.lo, expected.hi), case
        assert (system.nodes, system.edges) == (expected.nodes, expected.edges), case
        assert system.to_json_dict() == expected.to_json_dict(), case
        witness = find_nonzero_cycle(system)
        assert witness == find_nonzero_cycle(expected), case
        cycles += witness is not None
    assert cycles >= 10


def test_random_phases_give_the_block_graph():
    # Spaced phases of unequal sizes drawn with one gap, each with its own shift.  Their block
    # digits are spaced over b**r too, and every graph is a map, one edge from each point.
    rng = random.Random(55)
    cycles = 0
    for _ in range(400):
        b, r, gap = rng.randint(2, 12), rng.randint(1, 3), rng.choice([1, 3, 10, 100])
        phases = [spaced_digits(rng, b, gap, rng.randint(1, min(5, (b - 1) * gap))) for _ in range(r)]
        blocks = [0]
        for phase in phases:
            blocks = [b * s + c for s in blocks for c in phase]
        system, expected = build_graph(b, *phases), build_graph(b**r, blocks)
        case = (b, phases)
        assert (system.base, system.digits, system.lo, system.hi) == (expected.base, expected.digits, expected.lo, expected.hi), case
        assert (system.nodes, system.edges) == (expected.nodes, expected.edges), case
        assert [z for z, _, _ in system.edges] == list(system.nodes), case
        witness = bfs_least_cycle(system)
        assert witness == bfs_least_cycle(expected) == find_nonzero_cycle(system), case
        cycles += witness is not None
    assert cycles >= 60


def test_phases_give_the_block_integer_points_at_large_t():
    # Wide intervals, where both paths meet in the middle over their own bases and digit sets.
    for params, pattern, t in [
        ((2, 3, 2, (1,)), (1, -1), 143000429),
        ((2, 3, 4, (3,)), (1, -1), 470000000047),
        ((2, 3, 2, (1,)), (1, 1, -1), 10**7 + 1),
        ((2, 15, 3, (1, 2)), (1, -1, -1), 10**10 + 1),
    ]:
        inst, omega = build_instance(*params), SignWord(pattern)
        phases = [[sign * t * l for l in inst.L] for sign in reversed(pattern)]
        blocks = spectrum_level(inst, t, omega.r, omega).elements
        assert integer_points(inst.M, *phases) == integer_points(inst.M**omega.r, blocks)


def test_phase_budget_counts(inst12):
    # Two phases of 4 digits over base 12 at t = 10**9 + 1: phase 0 meets in the middle with
    # 4**5 word sums and 4**6 residues, and the candidates of phase 1 follow those of phase 0.
    phases = [[s * (10**9 + 1) * l for l in inst12.L] for s in (-1, 1)]
    with pytest.raises(BudgetExceeded, match="attractor word sums: needs 1024, budget is 1023"):
        integer_points(12, *phases, node_budget=1023)
    with pytest.raises(BudgetExceeded, match="attractor residues: needs 4096, budget is 4095"):
        integer_points(12, *phases, node_budget=4095)
    with pytest.raises(BudgetExceeded, match="attractor candidates: needs 4616, budget is 4096"):
        integer_points(12, *phases, node_budget=4096)
    with pytest.raises(BudgetExceeded, match="attractor candidates: needs 9232, budget is 9231"):
        integer_points(12, *phases, node_budget=9231)
    assert len(integer_points(12, *phases, node_budget=9232)) == 136
    # Three phases at t = 101: 10 candidates of phase 0 and 10 of phase 1, of which only 4 have a
    # successor inside the interval of phase 2, so phase 2 adds 4 candidates.
    phases = [[s * 101 * l for l in inst12.L] for s in (-1, 1, 1)]
    with pytest.raises(BudgetExceeded, match="attractor candidates: needs 20, budget is 19"):
        integer_points(12, *phases, node_budget=19)
    with pytest.raises(BudgetExceeded, match="attractor candidates: needs 24, budget is 23"):
        integer_points(12, *phases, node_budget=23)
    assert integer_points(12, *phases, node_budget=24) == (0,)


def test_block_digits_are_derived_from_the_phases(inst12):
    system = scaled_system(inst12, 11, SignWord((1, -1)))
    assert system.phases == ((-99, -66, -33, 0), (0, 33, 66, 99))
    assert system.base == 144 and system.digits == spectrum_level(inst12, 11, 2, SignWord((1, -1))).elements
    assert build_graph(12, [0, 33, 66, 99]).digits == (0, 33, 66, 99)
    # Every word of period at most 3 at both signs of t, on M = 12 and M = 54.  The graph of t is
    # that of |t|, so its block digits are the elements of |t| Lambda_omega, those of t negated.
    for inst in (inst12, build_instance(3, 2, 3, [1])):
        for r in (1, 2, 3):
            for omega in (SignWord.from_bits(r, bits) for bits in range(2**r)):
                for t in (7, -7, 25, -25):
                    elements = spectrum_level(inst, t, r, omega).elements
                    digits = elements if t > 0 else tuple(-x for x in reversed(elements))
                    assert scaled_system(inst, t, omega).digits == digits, (inst.M, omega, t)


def test_integer_points_match_the_single_sided_oracle_on_random_digits():
    # Spaced digit sets with negative digits and candidate intervals up to 1e8 wide, half of
    # them scaled small digit sets t * D (the shape of every decision), whose points include
    # cycles.  An interval is narrower than the gap, which is capped so that the oracle's
    # width ** dim stays small.
    rng = random.Random(8)
    split = 0
    for _ in range(300):
        b = rng.randint(3, 40)
        size = rng.randint(2, min(b - 1, 6))
        width = int(10 ** rng.uniform(1, min(8, 4.5 * math.log(b) / math.log(size))))
        if rng.random() < 0.5:
            base = spaced_digits(rng, b, 1, size)
            t = max(1, width * (b - 1) // (max(base) - min(base) + 1))
            digits = [t * d for d in base]
        else:
            digits = spaced_digits(rng, b, width, size)
        split += min(_levels(b, digits)) >= 2
        assert integer_points(b, digits) == single_sided_integer_points(b, digits), (b, digits)
    assert split >= 100


def assert_refused(b, phases):
    assert not is_spaced(b, phases), (b, phases)
    with pytest.raises(ValueError, match=r"digit sets must be spaced, span < \(b - 1\) \* least gap"):
        integer_points(b, *phases)
    with pytest.raises(ValueError, match="digit sets must be spaced"):
        build_graph(b, *phases)


def test_integer_points_with_at_least_b_digits():
    # b digits or more span at least (b - 1) times their least gap, so they are refused.
    for b, digits in [(3, [-50, 0, 1, 2, 7]), (2, [0, 1, 2, 100]), (2, [0, 1]), (4, list(range(-9, 30, 3)))]:
        assert len(digits) >= b
        assert_refused(b, [digits])


def test_integer_points_narrow_clustered_digit_sets():
    # Clustered digits beside far ones: the span dwarfs the least gap.
    assert_refused(3, [[0, 1, 2, 10**7]])
    rng = random.Random(13)
    for _ in range(100):
        b = rng.randint(2, 6)
        cluster = rng.sample(range(-3 * b, 3 * b), rng.randint(b, 2 * b))
        far = [rng.choice((-1, 1)) * rng.randint(10, 10**3) for _ in range(rng.randint(0, 2))]
        assert_refused(b, [cluster + far])


def test_unspaced_digit_sets_are_refused():
    # Fewer than b digits but too wide a span, phases of unequal gaps, or phases whose block
    # digits two digit words reach.
    cases = [(12, [[0, 10, 121]]), (12, [[0, 33, 66, 99], [0, 1, 2]])]
    rng = random.Random(13)
    collisions = 0
    while collisions < 20:
        b, r = rng.randint(2, 12), rng.randint(2, 3)
        phases = [rng.sample(range(-b, b + 1), rng.randint(1, 5)) for _ in range(r)]
        blocks = [0]
        for phase in phases:
            blocks = [b * s + c for s in blocks for c in phase]
        if len(set(blocks)) < len(blocks):
            collisions += 1
            cases.append((b, phases))
    for b, phases in cases:
        assert_refused(b, phases)
    with pytest.raises(ValueError, match=r"span 121, least gap 10, b = 12$"):
        integer_points(12, [0, 10, 121])


def test_integer_points_budget(inst12):
    # The budget counts the residues mod 12 and the candidates of an interval of 10: 4 each.
    with pytest.raises(BudgetExceeded):
        integer_points(12, [0, 33, 66, 99], node_budget=3)
    assert integer_points(12, [0, 33, 66, 99], node_budget=4) == (0, 3, 6, 9)
    # An interval of 818,182 integers whose candidates fit a budget of 10**4.
    assert len(integer_points(12, [10**6 * l for l in inst12.L], node_budget=10**4)) == 12
    # 64 word sums and 256 residues fit a budget of 373, but 374 candidates do not.
    digits = [(10**6 + 1) * l for l in inst12.L]
    with pytest.raises(BudgetExceeded, match="attractor candidates: needs 374, budget is 373"):
        integer_points(12, digits, node_budget=373)
    assert integer_points(12, digits, node_budget=374) == integer_points(12, digits)
    # An interval of about 8e15: 4**10 word sums are refused before any is built.
    with pytest.raises(BudgetExceeded, match="attractor word sums: needs 1048576, budget is 10000"):
        integer_points(12, [(10**16 + 1) * l for l in inst12.L], node_budget=10**4)


def test_integer_points_validation():
    with pytest.raises(ValueError):
        integer_points(1, [0, 1])
    with pytest.raises(ValueError):
        integer_points(12, [])


def test_zero_belongs_iff_zero_digit_for_nonnegative_digits():
    assert 0 in integer_points(12, [0, 33, 66, 99])
    assert 0 not in integer_points(12, [33, 66, 99])


# --------------------------------------------------------------------------
# build_graph
# --------------------------------------------------------------------------

def test_graph_with_self_loops():
    system = build_graph(12, [0, 33, 66, 99])
    assert system.nodes == (0, 3, 6, 9)
    assert system.edges == ((0, 0, 0), (3, 33, 3), (6, 66, 6), (9, 99, 9))


def test_graph_single_node():
    system = build_graph(12, [0, 3, 6, 9])
    assert system.nodes == (0,)
    assert system.edges == ((0, 0, 0),)


def test_graph_on_signed_blocks(inst12):
    blocks = spectrum_level(inst12, 1, 2, SignWord((1, -1))).elements
    system = build_graph(144, blocks)
    assert system.nodes == (0,)
    assert (system.lo, system.hi) == (0, 0)


def test_graph_closure_and_outgoing(family_small):
    for inst in family_small[:10]:
        for t in (1, 7, 11):
            system = build_graph(inst.M, [t * l for l in inst.L])
            node_set = set(system.nodes)
            assert all(z in node_set and z2 in node_set for z, _, z2 in system.edges)
            assert {z for z, _, _ in system.edges} == node_set
            assert all(z2 == system.base * z - c for z, c, z2 in system.edges)


def test_graph_json_export():
    payload = build_graph(12, [0, 33, 66, 99]).to_json_dict()
    assert payload["nodes"] == ["0", "3", "6", "9"]
    assert payload["edges"][1] == {"from": "3", "digit": "33", "to": "3"}
    assert payload["candidates"] == {"lo": "0", "hi": "9"}


# --------------------------------------------------------------------------
# Cycle and word witnesses
# --------------------------------------------------------------------------

def test_cycle_examples():
    witness = find_nonzero_cycle(build_graph(12, [0, 33, 66, 99]))
    assert witness == CycleWitness(nodes=(3,), digits=(33,))
    assert witness.verify(12)
    assert find_nonzero_cycle(build_graph(12, [0, 15, 30, 45])) is None
    assert find_nonzero_cycle(build_graph(12, [0, 3, 6, 9])) is None


def test_cycle_witness_verify_rejects_broken_witnesses():
    assert CycleWitness(nodes=(13, 17), digits=(157, 113)).verify(10)
    assert not CycleWitness(nodes=(13, 17), digits=(113, 157)).verify(10)  # steps do not close
    assert not CycleWitness(nodes=(3,), digits=(34,)).verify(12)
    assert not CycleWitness(nodes=(0,), digits=(0,)).verify(12)  # a zero node
    assert not CycleWitness(nodes=(3,), digits=(33,)).verify(10)  # the wrong base
    for nodes, digits in (((3,), (33, 0)), ((), ())):
        with pytest.raises(ValueError, match="equally many nodes and digits"):
            CycleWitness(nodes=nodes, digits=digits)


def test_cycle_witness_is_minimal():
    # All of 3, 6, 9 carry self-loops; the least start node must be chosen.
    witness = find_nonzero_cycle(build_graph(12, [0, 33, 66, 99]))
    assert witness.nodes == (3,)
    # 13 returns through 17 (digits 157, 113) or through 18 (167, 112): the least digits win.
    # 13 has two edges there, so the graph is no map and only the general searches take it.
    # The digits 0, 112, 113, 157, 167 over base 10 are not spaced, so the graph is built by hand.
    system = AttractorSystem(
        radix=10,
        phases=((0, 112, 113, 157, 167),),
        lo=0,
        hi=18,
        nodes=(0, 13, 17, 18),
        edges=((0, 0, 0), (13, 112, 18), (13, 113, 17), (17, 157, 13), (18, 167, 13)),
    )
    witness = bfs_least_cycle(system)
    assert witness == CycleWitness(nodes=(13, 17), digits=(157, 113))
    assert least_cycle_oracle(system) == witness
    with pytest.raises(ValueError, match="one edge from every integer point"):
        find_nonzero_cycle(system)


def test_cycle_recurrence_orientation():
    # A genuine length-2 cycle: base 10, digits shifting 13 -> 17 -> 13.
    # 13 = (17 + 113) / 10 and 17 = (13 + 157) / 10.
    system = build_graph(10, [0, 113, 157])
    witness = find_nonzero_cycle(system)
    assert witness is not None
    assert witness.verify(10)
    # Both rotations close; determinism demands the least start node.
    assert witness.nodes == (13, 17) and witness.digits == (157, 113)
    m = witness.length
    for j in range(m):
        assert witness.nodes[j] + witness.digits[j] == 10 * witness.nodes[(j + 1) % m]


@pytest.mark.parametrize(
    "params, t, nodes, digits",
    [
        ((2, 7, 3, [1, 2]), 515, (7, 322, 392), (18025, 21630, 0)),
        ((2, 3, 2, [1]), 1885, (1071, 1503, 1539, 1542), (16965, 16965, 16965, 11310)),
    ],
)
def test_long_cycle_witnesses_are_pinned(params, t, nodes, digits):
    inst = build_instance(*params)
    system = scaled_system(inst, t)
    witness = find_nonzero_cycle(system)
    assert witness == CycleWitness(nodes=nodes, digits=digits)
    assert least_cycle_oracle(system) == witness
    assert witness.verify(inst.M)


@pytest.mark.parametrize(
    "t, points, sources",
    [(4 * (12**5 - 1) // 11, 264, 198), (4 * (12**7 - 1) // 11, 8516, 6387), (2 * (12**8 - 1) // 11, 15530, 7765)],
)
def test_the_backward_closure_finds_the_points_off_the_cycles(inst12, t, points, sources):
    # t shares a factor with N = 2, so the graph is no permutation: the sources have no in-edge and
    # lie on no cycle, and only the closure backward from the cycles reaches them.
    system = scaled_system(inst12, t)
    targets = {y for _, _, y in system.edges}
    assert len(system.nodes) == points and sum(z not in targets for z in system.nodes) == sources
    assert system.nodes == single_sided_integer_points(12, [t * l for l in inst12.L])


def test_cycle_search_matches_exhaustive_oracle(family_small):
    lengths = set()
    for inst in family_small:
        for t in range(1, 200, 2):
            if math.gcd(t, inst.N) != 1:
                continue
            system = scaled_system(inst, t)
            witness = find_nonzero_cycle(system)
            assert witness == least_cycle_oracle(system), (inst.describe(), t)
            lengths.add(witness.length if witness else 0)
        for r in (1, 2, 3, 4):
            for bits in range(2**r):
                omega = SignWord.from_bits(r, bits)
                for t in (1, 3, 5, 7, 11, 13):
                    if math.gcd(t, inst.N) != 1:
                        continue
                    system = scaled_system(inst, t, omega)
                    assert find_nonzero_cycle(system) == least_cycle_oracle(system), (inst.describe(), omega, t)
    assert {0, 1, 2} <= lengths


def test_scaled_graphs_are_maps_and_coprime_scalings_permute():
    # 10,000 seeded triples of instance_family(m_limit=130) x 1 <= |t| < 40 x sign words of period
    # r <= 4: the phases are spaced, every point has one out-edge, and one in-edge when
    # gcd(t, N) = 1.  A t sharing a factor with N can give a point two in-edges, and the orbit
    # walk still equals the BFS there.
    rng = random.Random(16)
    family = instance_family(m_limit=130)
    words = [SignWord.from_bits(r, bits) for r in (1, 2, 3, 4) for bits in range(2**r)]
    merged = cycles = 0
    for _ in range(10_000):
        inst, t, omega = rng.choice(family), rng.choice((-1, 1)) * rng.randrange(1, 40), rng.choice(words)
        system = scaled_system(inst, t, omega)
        case = (inst.describe(), t, omega)
        assert is_spaced(inst.M, system.phases), case
        assert sorted(z for z, _, _ in system.edges) == list(system.nodes), case
        in_degrees = Counter(y for _, _, y in system.edges)
        if math.gcd(abs(t), inst.N) == 1:
            assert all(in_degrees[z] == 1 for z in system.nodes), case
        else:
            merged += max(in_degrees.values()) > 1
        witness = find_nonzero_cycle(system)
        assert witness == bfs_least_cycle(system), case
        cycles += witness is not None
    assert merged >= 1000 and cycles >= 100


def test_word_examples():
    assert word_witness_search(12, [0, 33, 66, 99], 1) == (1, (33,))
    assert word_witness_search(12, [0, 15, 30, 45], 1) is None
    assert word_witness_search(12, [0, 3, 6, 9], 3) is None
    assert word_witness_search(12, [], 3) is None


def test_word_budget():
    with pytest.raises(BudgetExceeded):
        word_witness_search(12, [0, 3, 6, 9], 3, word_budget=10)
    # (3, 7) is word 6 of length 2, in the second and last head that a budget of 10 builds,
    # so the head scan stops at it; one more word of budget finds it.
    outcomes = [_word_outcome(dfs_word_witness_search, 3, [0, 3, 7, 9], 2, budget) for budget in (10, 11)]
    assert outcomes == [_word_outcome(word_witness_search, 3, [0, 3, 7, 9], 2, budget) for budget in (10, 11)]
    assert outcomes == ["word enumeration: needs 11, budget is 10", (2, (3, 7))]


def test_word_validation():
    with pytest.raises(ValueError):
        word_witness_search(12, [0, 3], 0)


def _word_outcome(search, b, digits, max_len, budget):
    try:
        return search(b, digits, max_len, word_budget=budget)
    except BudgetExceeded as exc:
        return str(exc)


def test_word_search_matches_the_depth_first_enumeration(family_small):
    # Seeded digit sets, half of them scaled instance digits t*L, at the checker's budget of 2,000
    # and at smaller budgets: the same first word, or the same refusal.
    rng = random.Random(21)
    raised = found = 0
    for _ in range(1500):
        if rng.random() < 0.5:
            inst = rng.choice(family_small)
            b, digits = inst.M, [rng.randrange(1, 60) * l for l in inst.L]
        else:
            b = rng.randint(2, 40)
            digits = rng.sample(range(-3 * b, 3 * b), rng.randint(1, 6))
        max_len, budget = rng.randint(1, 9), rng.choice((2000, 2000, 300, 17))
        expected = _word_outcome(dfs_word_witness_search, b, digits, max_len, budget)
        assert _word_outcome(word_witness_search, b, digits, max_len, budget) == expected, (b, digits, max_len, budget)
        raised += isinstance(expected, str)
        found += isinstance(expected, tuple)
    assert raised >= 100 and found >= 100


def test_cycle_word_equivalence(family_small):
    for inst in family_small:
        for t in (1, 3, 5, 7, 11, 13, 23):
            digits = [t * l for l in inst.L]
            system = build_graph(inst.M, digits)
            cycle = find_nonzero_cycle(system)
            word = word_witness_search(inst.M, digits, max(1, len(system.nodes)))
            assert (cycle is None) == (word is None), (inst.describe(), t)
            if cycle is not None:
                assert cycle.verify(inst.M)
                m, letters = word
                total = sum(letters[j] * inst.M**j for j in range(m))
                assert total % (inst.M**m - 1) == 0


def test_cycle_closing_identity_matches_word_form():
    witness = find_nonzero_cycle(build_graph(10, [0, 113, 157]))
    m = witness.length
    lhs = (10**m - 1) * witness.nodes[0]
    rhs = sum(witness.digits[j] * 10**j for j in range(m))
    assert lhs == rhs
