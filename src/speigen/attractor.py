"""Integer points of radix attractors, their transition graph and witnesses.

``T(b, C)`` is the compact set of base-b expansions ``sum_j b**-j c_j`` with
digits from C.  Its integer points all lie in the interval
``[ceil(min C / (b-1)), floor(max C / (b-1))]`` and form the greatest fixed
point of ``S -> {z : exists c in C with b*z - c in S}``, computed here by
worklist removal.  A cycle through nonzero integer points (equivalently a
word witness for the divisibility criterion) certifies that the scaled set
fails to be a spectrum.  ``find_nonzero_cycle`` returns the least such cycle
in (length, start node, digit sequence) order: one reverse BFS per start
finds the least length and start, and a greedy least-digit walk along the
BFS distances reads off the digits without backtracking.
``word_witness_search`` is the brute-force oracle for the same criterion,
least in (length, lexicographic) order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 10**7
DEFAULT_WORD_BUDGET = 10**7


@dataclass(frozen=True)
class AttractorSystem:
    """Integer points of T(b, C) with their digit-labeled transitions."""

    base: int
    digits: tuple[int, ...]
    lo: int
    hi: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (z, digit c, b*z - c), sorted by (z, c)

    def to_json_dict(self) -> dict:
        return {
            "base": str(self.base),
            "digits": [str(c) for c in self.digits],
            "candidates": {"lo": str(self.lo), "hi": str(self.hi)},
            "nodes": [str(z) for z in self.nodes],
            "edges": [{"from": str(z), "digit": str(c), "to": str(z2)} for z, c, z2 in self.edges],
        }


@dataclass(frozen=True)
class CycleWitness:
    """Nonzero nodes eta_j and digits s_j with eta_{j+1} = (eta_j + s_j) / b.

    Closing the loop forces ``(b**m - 1) * eta_1 = sum_j b**(j-1) * s_j``,
    which is exactly the word-divisibility witness; ``verify`` checks both
    identities with exact integers.
    """

    nodes: tuple[int, ...]
    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.digits) or not self.nodes:
            raise ValueError("cycle needs equally many nodes and digits, at least one each")

    @property
    def length(self) -> int:
        return len(self.nodes)

    def verify(self, base: int) -> bool:
        m = len(self.nodes)
        if any(eta == 0 for eta in self.nodes):
            return False
        for j in range(m):
            if self.nodes[j] + self.digits[j] != base * self.nodes[(j + 1) % m]:
                return False
        total = sum(self.digits[j] * base**j for j in range(m))
        return (base**m - 1) * self.nodes[0] == total

    def to_json_dict(self) -> dict:
        return {
            "nodes": [str(x) for x in self.nodes],
            "digits": [str(x) for x in self.digits],
        }


def _candidate_interval(b: int, digits: Sequence[int]) -> tuple[int, int]:
    lo = -((-digits[0]) // (b - 1))
    hi = digits[-1] // (b - 1)
    return lo, hi


def integer_points(b: int, C, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...]:
    """All integers in T(b, C), by pruning the candidate interval to stability.

    A candidate z survives iff some digit c keeps ``b*z - c`` among the
    survivors; the worklist removes zero-out-degree nodes and decrements
    their predecessors, which converges to the greatest fixed point.
    """
    if b < 2:
        raise ValueError("base b must be at least 2")
    digits = sorted(set(C))
    if not digits:
        raise ValueError("digit set must be nonempty")
    lo, hi = _candidate_interval(b, digits)
    if hi < lo:
        return ()
    count = hi - lo + 1
    if count > node_budget:
        raise BudgetExceeded("attractor candidate interval", count, node_budget)

    # Out-degree of z = number of digits in the window [b*z - hi, b*z - lo].
    alive = bytearray([1]) * count
    degree = [0] * count
    dead: deque[int] = deque()
    for i in range(count):
        z = lo + i
        degree[i] = bisect_right(digits, b * z - lo) - bisect_left(digits, b * z - hi)
        if degree[i] == 0:
            alive[i] = 0
            dead.append(i)

    by_residue: dict[int, list[int]] = {}
    for c in digits:
        by_residue.setdefault(c % b, []).append(c)

    while dead:
        y = lo + dead.popleft()
        for c in by_residue.get((-y) % b, ()):
            x = (y + c) // b
            if lo <= x <= hi:
                xi = x - lo
                if alive[xi]:
                    degree[xi] -= 1
                    if degree[xi] == 0:
                        alive[xi] = 0
                        dead.append(xi)

    return tuple(lo + i for i in range(count) if alive[i])


def build_graph(b: int, C, node_budget: int = DEFAULT_NODE_BUDGET) -> AttractorSystem:
    """Integer points plus every transition z -(c)-> b*z - c staying inside them."""
    digits = tuple(sorted(set(C)))
    nodes = integer_points(b, digits, node_budget=node_budget)
    lo, hi = _candidate_interval(b, digits)
    node_set = set(nodes)
    edges: list[tuple[int, int, int]] = []
    if len(digits) <= max(len(nodes), 1):
        for z in nodes:
            bz = b * z
            for c in digits:
                if bz - c in node_set:
                    edges.append((z, c, bz - c))
    else:
        digit_set = set(digits)
        for z in nodes:
            bz = b * z
            row = [(bz - z2, z2) for z2 in nodes if bz - z2 in digit_set]
            row.sort()
            edges.extend((z, c, z2) for c, z2 in row)
    system = AttractorSystem(base=b, digits=digits, lo=lo, hi=hi, nodes=nodes, edges=tuple(edges))
    sources = {edge[0] for edge in system.edges}
    assert all(z in sources for z in nodes)
    return system


def _witness_successors(system: AttractorSystem) -> dict[int, list[tuple[int, int]]]:
    # Witness step u -(c)-> v means v = (u + c) / base, i.e. the reverse of
    # the stored edge v -(c)-> u; digit lists come out sorted ascending.
    succ: dict[int, list[tuple[int, int]]] = {z: [] for z in system.nodes if z != 0}
    for v, c, u in system.edges:
        if u != 0 and v != 0:
            succ[u].append((c, v))
    for lst in succ.values():
        lst.sort()
    return succ


def find_nonzero_cycle(system: AttractorSystem) -> Optional[CycleWitness]:
    """Least cycle through nonzero integer points, or None.

    Minimality is by (length, start node, digit sequence).  Each start, in
    ascending order, gets one reverse BFS of distances to it, level by level
    until a level holds one of its successors: that depth plus one is its
    shortest return.  Only a strictly shorter return displaces the best
    start so far, so later searches stop at depth ``best - 2`` and the scan
    ends as soon as a length-1 cycle turns up.

    The digits are then read off greedily: from each node, the least digit
    whose successor lies exactly ``remaining`` steps from the start.  A
    successor nearer than that would close a walk shorter than the least
    cycle, so no successor is nearer; one at exactly that distance always
    exists, so the walk never dead-ends and never backtracks.
    """
    succ = _witness_successors(system)
    pred: dict[int, list[int]] = {u: [] for u in succ}
    for u, lst in succ.items():
        for _, v in lst:
            pred[v].append(u)

    best: Optional[tuple[int, int, dict[int, int]]] = None  # (length, start, distances to start)
    for start in sorted(succ):
        exits = {v for _, v in succ[start]}
        limit = len(succ) if best is None else best[0] - 2
        dist = {start: 0}
        frontier = [start]
        depth = 0
        while frontier and exits.isdisjoint(frontier) and depth < limit:
            depth += 1
            level = []
            for v in frontier:
                for u in pred[v]:
                    if u not in dist:
                        dist[u] = depth
                        level.append(u)
            frontier = level
        if not exits.isdisjoint(frontier):
            best = (depth + 1, start, dist)
            if depth == 0:
                break
    if best is None:
        return None

    length, start, dist = best
    nodes, digits = [start], []
    for remaining in range(length - 1, -1, -1):
        c, v = next((c, v) for c, v in succ[nodes[-1]] if dist.get(v) == remaining)
        digits.append(c)
        nodes.append(v)
    witness = CycleWitness(nodes=tuple(nodes[:-1]), digits=tuple(digits))
    assert witness.verify(system.base)
    return witness


def word_witness_search(
    b: int,
    C,
    max_len: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """First word (c_1..c_m), not all zero, with (b**m - 1) | sum b**(j-1) c_j.

    Exhausts lengths 1..max_len in (length, lexicographic) order over the
    sorted digit set; serves as the independent brute-force oracle for the
    cycle criterion.  The budget counts examined words and is enforced
    lazily, so early hits stay cheap.
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
