import math

import pytest

from speigen import (
    BudgetExceeded,
    CycleWitness,
    SignWord,
    block_digit_set,
    build_graph,
    build_instance,
    find_nonzero_cycle,
    integer_points,
    word_witness_search,
)
from speigen.eigen import scaled_system


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


def test_integer_points_budget():
    with pytest.raises(BudgetExceeded):
        integer_points(12, [0, 33, 66, 99], node_budget=5)


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
    blocks = block_digit_set(inst12, SignWord((1, -1)), 1)
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


def test_cycle_witness_is_minimal():
    # All of 3, 6, 9 carry self-loops; the least start node must be chosen.
    witness = find_nonzero_cycle(build_graph(12, [0, 33, 66, 99]))
    assert witness.nodes == (3,)
    # 13 returns through 17 (digits 157, 113) or through 18 (167, 112): the least digits win.
    system = build_graph(10, [0, 112, 113, 157, 167])
    witness = find_nonzero_cycle(system)
    assert witness == CycleWitness(nodes=(13, 17), digits=(157, 113))
    assert least_cycle_oracle(system) == witness


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
        for r in (1, 2, 3):
            for bits in range(2**r):
                omega = SignWord.from_bits(r, bits)
                for t in (1, 3, 5, 7, 11, 13):
                    if math.gcd(t, inst.N) != 1:
                        continue
                    system = scaled_system(inst, t, omega)
                    assert find_nonzero_cycle(system) == least_cycle_oracle(system), (inst.describe(), omega, t)
    assert {0, 1, 2} <= lengths


def test_word_examples():
    assert word_witness_search(12, [0, 33, 66, 99], 1) == (1, (33,))
    assert word_witness_search(12, [0, 15, 30, 45], 1) is None
    assert word_witness_search(12, [0, 3, 6, 9], 3) is None


def test_word_budget():
    with pytest.raises(BudgetExceeded):
        word_witness_search(12, [0, 3, 6, 9], 3, word_budget=10)


def test_word_validation():
    with pytest.raises(ValueError):
        word_witness_search(12, [0, 3], 0)


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
