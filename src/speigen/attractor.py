"""Integer points of radix attractors, their transition graph and witnesses.

``T(b, C)`` is the compact set of base-b expansions ``sum_j b**-j c_j`` with
digits from C.  Its integer points all lie in the interval
``[ceil(min C / (b-1)), floor(max C / (b-1))]`` and form the greatest fixed
point of ``S -> {z : exists c in C with b*z - c in S}``.  ``integer_points``
meets in the middle: word sums of the first h digits narrow the interval to
ranges top-down, the residues modulo ``b**k`` that walks of k steps
``x -> b*x - c`` end in filter those ranges bottom-up, and worklist removal
on the few candidates left keeps every cycle.  Closing that fixed set
backward inside the interval then gives exactly the integer points, since
every point reaches a cycle.  The work is about ``#C**h + #C**k`` plus the
candidates, where a one-sided refinement costs ``width ** (log #C / log b)``.
A cycle through nonzero integer points (equivalently a word witness for the
divisibility criterion) certifies that the scaled set fails to be a spectrum.
``find_nonzero_cycle`` returns the least such cycle in (length, start node,
digit sequence) order: one reverse BFS per start finds the least length and
start, and a greedy least-digit walk along the BFS distances reads off the
digits without backtracking.
``word_witness_search`` is the brute-force oracle for the same criterion,
least in (length, lexicographic) order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _split(b: int, count: int, width: int) -> tuple[int, int]:
    """Levels (h, k) of the top-down word sums and the bottom-up residues.

    While ``#C < b`` each level keeps about ``#C / b`` of the candidates, so
    ``L = h + k`` levels leave about ``width * (#C/b)**L`` of them, against
    ``#C**h`` word sums and ``#C**k`` residues.  L is the least with the
    candidates no more than ``#C**(k+1)``, split as ``h = L // 2`` and
    ``k = L - h``.  ``L = 0`` is the plain scan of the interval, where a
    short interval with many digits stops; with ``#C >= b`` no level
    shrinks the candidates, so L stays 0.
    """
    levels = 0
    while count < b and width * count**levels > count ** ((levels + 1) // 2 + 1) * b**levels:
        levels += 1
    return levels // 2, levels - levels // 2


def _covered_ranges(b: int, digits: list[int], lo: int, hi: int, levels: int) -> list[tuple[int, int]]:
    """Disjoint sorted ranges of the integers that word sums of ``levels`` digits cover.

    A word sum w of level j covers the integers z with ``b**j * z - w`` in
    [lo, hi].  Level j+1 extends each w by the digits in the window that
    keeps such z inside [lo, hi], and keeps a sum iff it still covers an
    integer: inside that window, iff [lo + w, hi + w] holds a multiple of
    ``b**(j+1)``.
    """
    words, scale = {0}, 1
    for _ in range(levels):
        scale *= b
        refined = set()
        for w in words:
            bw = b * w
            for c in digits[bisect_left(digits, scale * lo - hi - bw) : bisect_right(digits, scale * hi - lo - bw)]:
                if (hi + bw + c) % scale <= hi - lo:
                    refined.add(bw + c)
        words = refined
    ranges: list[tuple[int, int]] = []
    for w in sorted(words):  # ranges start in the order of their word sums
        first, last = max(lo, -((-(lo + w)) // scale)), min(hi, (hi + w) // scale)
        if ranges and first <= ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], max(last, ranges[-1][1]))
        else:
            ranges.append((first, last))
    return ranges


def _end_residues(b: int, digits: list[int], levels: int) -> list[int]:
    """Sorted residues modulo ``b**levels`` of the ends of ``levels`` steps ``x -> b*x - c``.

    Such a walk from x ends at ``b**k * x - V`` with
    ``V = c_(k-1) + b c_(k-2) + ... + b**(k-1) c_0``, so its end is
    ``-V mod b**k`` whatever x is, and the residues of level j+1 are
    ``b*v - c`` for the residues v of level j.
    """
    ends, modulus = {0}, 1
    for _ in range(levels):
        modulus *= b
        ends = {(b * v - c) % modulus for v in ends for c in digits}
    return sorted(ends)


def integer_points(b: int, C, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...]:
    """All integers in T(b, C): meet word sums and residues in the middle, prune, close backward.

    Every integer point z lies in the candidate interval ``[lo, hi]`` and
    has a successor ``b*z - c`` there; the points form the greatest such set.

    * Top-down, z lies in a range that word sums of h digits cover: some
      ``w = sum_j b**(h-j) c_j`` has ``b**h * z - w`` in [lo, hi].
    * Bottom-up, a point z on a cycle is the end of a walk of k steps
      ``x -> b*x - c`` from a point x, so ``z mod b**k`` is one of the
      residues those walks end in.
    * The candidates are the integers of the ranges in those residue classes,
      found by bisecting the sorted residues at both ends of each range.

    The worklist then removes zero-out-degree candidates and decrements
    their predecessors.  What stays is the greatest fixed set inside the
    candidates: it holds every cycle, since the candidates do, and lies
    inside the integer points.  Every integer point reaches a cycle, and an
    integer predecessor ``(y + c) / b`` of a point y is a point: it lies in
    [lo, hi] whenever y does.  So closing the fixed set backward gives
    exactly the integer points.  ``_split`` chooses h and k from b, #C and the
    width; a short interval with many digits gets h = k = 0, the plain scan.

    ``node_budget`` bounds the word sums (at most ``#C**h``), the residues
    (at most ``#C**k``, and k > 0 only when ``#C < b``) and the candidates,
    each counted before it is built, not the width of the interval.
    """
    if b < 2:
        raise ValueError("base b must be at least 2")
    digits = sorted(set(C))
    if not digits:
        raise ValueError("digit set must be nonempty")
    lo, hi = _candidate_interval(b, digits)
    if hi < lo:
        return ()
    h, k = _split(b, len(digits), hi - lo + 1)
    if len(digits) ** h > node_budget:
        raise BudgetExceeded("attractor word sums", len(digits) ** h, node_budget)
    if len(digits) ** k > node_budget:
        raise BudgetExceeded("attractor residues", len(digits) ** k, node_budget)
    modulus, residues = b**k, _end_residues(b, digits, k)
    # A range [first, last] spans the blocks of `modulus` from `start` to `end`: its candidates
    # are residues[i:] in the first block, every residue in each block between, residues[:j] in the last.
    spans = []
    count = 0
    for first, last in _covered_ranges(b, digits, lo, hi, h):
        start, end = first - first % modulus, last - last % modulus
        i, j = bisect_left(residues, first - start), bisect_right(residues, last - end)
        spans.append((start, i, end, j))
        count += (end - start) // modulus * len(residues) + j - i
    if count > node_budget:
        raise BudgetExceeded("attractor candidates", count, node_budget)
    candidates: list[int] = []
    for start, i, end, j in spans:
        if start == end:
            candidates += [start + r for r in residues[i:j]]
        else:
            candidates += [start + r for r in residues[i:]]
            candidates += [block + r for block in range(start + modulus, end, modulus) for r in residues]
            candidates += [end + r for r in residues[:j]]

    # Out-degree of z: digits in the window [b*z - hi, b*z - lo] landing on a candidate.
    degree = dict.fromkeys(candidates, 0)
    dead: list[int] = []
    for z in degree:
        bz = b * z
        out = 0
        for c in digits[bisect_left(digits, bz - hi) : bisect_right(digits, bz - lo)]:
            if bz - c in degree:
                out += 1
        degree[z] = out
        if out == 0:
            dead.append(z)
    for z in dead:
        del degree[z]

    by_residue: dict[int, list[int]] = {}
    for c in digits:
        by_residue.setdefault(c % b, []).append(c)

    while dead:
        y = dead.pop()
        for c in by_residue.get((-y) % b, ()):
            x = (y + c) // b
            if x in degree:
                degree[x] -= 1
                if degree[x] == 0:
                    del degree[x]
                    dead.append(x)

    points = set(degree)
    stack = list(points)
    while stack:
        y = stack.pop()
        for c in by_residue.get((-y) % b, ()):
            x = (y + c) // b
            if x not in points:
                points.add(x)
                stack.append(x)
    return tuple(sorted(points))


def build_graph(b: int, C, node_budget: int = DEFAULT_NODE_BUDGET) -> AttractorSystem:
    """Integer points plus every transition z -(c)-> b*z - c staying inside them."""
    digits = tuple(sorted(set(C)))
    nodes = integer_points(b, digits, node_budget=node_budget)
    lo, hi = _candidate_interval(b, digits)
    node_set = set(nodes)
    edges: list[tuple[int, int, int]] = []
    for z in nodes:
        bz = b * z
        # Only digits in the window [b*z - hi, b*z - lo] can land on a node.
        for c in digits[bisect_left(digits, bz - hi) : bisect_right(digits, bz - lo)]:
            if bz - c in node_set:
                edges.append((z, c, bz - c))
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
