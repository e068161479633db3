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

The same algorithm runs on a periodic sequence of digit sets, the phases
``C_0, ..., C_(r-1)``: step p of a walk takes its digit from phase p mod r.
Its phase-0 points are the integer points of ``T(b**r, B)`` with the block
digits ``B = {sum_p b**(r-1-p) c_p}``, and r steps from phase 0 back to it
are one block step, so a block system of ``prod_p #C_p`` digits is handled
through r sets of ``#C_p`` digits each, and one phase is ``T(b, C)``.
``build_graph`` reads the block edges off walks of r steps, one loop over
the phases, that end on a point.

A cycle through nonzero integer points (equivalently a word witness for the
divisibility criterion) certifies that the scaled set fails to be a spectrum.
Every scaled graph is a map, one block edge from each point, because block
expansions are unique; ``find_nonzero_cycle`` walks its orbits.
``word_witness_search`` is the brute-force oracle for the same criterion,
least in (length, lexicographic) order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import BudgetExceeded

DEFAULT_NODE_BUDGET = 10**7
DEFAULT_WORD_BUDGET = 10**7


@dataclass(frozen=True)
class AttractorSystem:
    """Integer points of T(b**r, B) with their block-digit transitions.

    The block digits B are the sums ``sum_p b**(r-1-p) c_p`` with ``c_p``
    from phase p.  The system keeps the r phases and derives B only when
    ``digits`` is read, so building it never enumerates the
    ``prod_p #C_p`` block digits.  One phase C is the plain system T(b, C).
    """

    radix: int  # b
    phases: tuple[tuple[int, ...], ...]  # the sorted digits of each phase
    lo: int
    hi: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (z, block digit d, base*z - d), sorted by (z, d)

    @property
    def base(self) -> int:
        """The block base ``b**r``."""
        return self.radix ** len(self.phases)

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """The sorted block digits, one per word of one digit from each phase."""
        sums = [0]
        for phase in self.phases:
            sums = [self.radix * s + c for s in sums for c in phase]
        return tuple(sorted(set(sums)))

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
        steps = all(self.nodes[j] + self.digits[j] == base * self.nodes[(j + 1) % m] for j in range(m))
        total = sum(self.digits[j] * base**j for j in range(m))
        return 0 not in self.nodes and steps and (base**m - 1) * self.nodes[0] == total

    def to_json_dict(self) -> dict:
        return {
            "nodes": [str(x) for x in self.nodes],
            "digits": [str(x) for x in self.digits],
        }


def _phase_intervals(b: int, phases: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The candidate interval ``[lo_p, hi_p]`` of every phase p.

    A point of phase p is a sum ``sum_(j>=1) b**-j c_j`` with ``c_j`` from
    phase ``p + j - 1`` (mod r), so it lies between
    ``sum_(i<=r) b**(r-i) min C_(p+i-1) / (b**r - 1)`` and the same sum over
    the maxima; each phase's numerators follow from the last one's as
    ``b * low - (b**r - 1) * min C_p``.  One phase gives
    ``[ceil(min C / (b-1)), floor(max C / (b-1))]``.
    """
    period = b ** len(phases) - 1
    low = high = 0
    for digits in phases:
        low, high = b * low + digits[0], b * high + digits[-1]
    intervals = []
    for digits in phases:
        intervals.append((-((-low) // period), high // period))
        low, high = b * low - period * digits[0], b * high - period * digits[-1]
    return intervals


def _split(b: int, count: int, width: int) -> tuple[Optional[int], int]:
    """Levels (h, k) of the top-down word sums and the bottom-up residues.

    While ``#C < b`` each level keeps about ``#C / b`` of the candidates, so
    ``L = h + k`` levels leave about ``width * (#C/b)**L`` of them, against
    ``#C**h`` word sums and ``#C**k`` residues.  L is the least with the
    candidates no more than ``#C**(k+1)``, split as ``h = L // 2`` and
    ``k = L - h``.  ``L = 0`` is the plain scan of the interval, where a
    short interval with many digits stops.  With ``#C >= b`` this estimate
    sees no level shrink the candidates, yet clustered digits still do; h is
    then None, for the top-down refinement to stop by what it covers, and
    k = 0.
    """
    if count >= b:
        return None, 0
    levels = 0
    while width * count**levels > count ** ((levels + 1) // 2 + 1) * b**levels:
        levels += 1
    return levels // 2, levels - levels // 2


def _word_count(sizes: Sequence[int], start: int, levels: int) -> int:
    """Words of ``levels`` digits from the phases ``start, start + 1, ...`` (mod r) of these sizes."""
    count = 1
    for j in range(start, start + levels):
        count *= sizes[j % len(sizes)]
    return count


def _covered_ranges(
    b: int,
    phases: Sequence[Sequence[int]],
    intervals: Sequence[tuple[int, int]],
    levels: Optional[int],
    budget: int,
) -> list[tuple[int, int]]:
    """Disjoint sorted ranges of the phase-0 integers that word sums of ``levels`` digits cover.

    A word sum w of j digits, one from each of the phases 0, 1, ...,
    covers the integers z of phase 0's interval with ``b**j * z - w`` in the
    interval of phase j.  Level j+1 extends each w by the digits in the
    window that keeps such z inside phase 0's interval, and keeps a sum iff
    it still covers an integer: inside that window, iff the next interval
    shifted by ``b*w + c`` holds a multiple of ``b**(j+1)``.

    ``levels=None`` refines until the covered integers number no more than
    the next level's bound on word sums (``#words * #C``), or that bound
    exceeds ``budget``.
    """
    r = len(phases)
    lo, hi = intervals[0]
    words, scale, j = {0}, 1, 0
    while True:
        if levels is None or j == levels:
            lo_q, hi_q = intervals[j % r]
            ranges: list[tuple[int, int]] = []
            for w in sorted(words):  # ranges start in the order of their word sums
                first, last = max(lo, -((-(lo_q + w)) // scale)), min(hi, (hi_q + w) // scale)
                if ranges and first <= ranges[-1][1] + 1:
                    ranges[-1] = (ranges[-1][0], max(last, ranges[-1][1]))
                else:
                    ranges.append((first, last))
            if levels is not None:
                return ranges
            bound = len(words) * len(phases[j % r])
            if bound > budget or sum(last - first + 1 for first, last in ranges) <= bound:
                return ranges
        digits = phases[j % r]
        lo_q, hi_q = intervals[(j + 1) % r]
        scale *= b
        refined = set()
        for w in words:
            bw = b * w
            for c in digits[bisect_left(digits, scale * lo - hi_q - bw) : bisect_right(digits, scale * hi - lo_q - bw)]:
                if (hi_q + bw + c) % scale <= hi_q - lo_q:
                    refined.add(bw + c)
        words = refined
        j += 1


def _end_residues(b: int, phases: Sequence[Sequence[int]], levels: int) -> list[int]:
    """Sorted residues modulo ``b**levels`` of the ends at phase 0 of ``levels`` steps ``x -> b*x - c``.

    Such a walk from x at phase ``-k`` (mod r) ends at ``b**k * x - V`` with
    ``V = c_(k-1) + b c_(k-2) + ... + b**(k-1) c_0`` and ``c_j`` from phase
    ``j - k``, so its end is ``-V mod b**k`` whatever x is, and the
    residues of level j+1 are ``b*v - c`` for the residues v of level j.
    """
    ends, modulus = {0}, 1
    for j in range(levels):
        modulus *= b
        digits = phases[(j - levels) % len(phases)]
        ends = {(b * v - c) % modulus for v in ends for c in digits}
    return sorted(ends)


def integer_points(b: int, *phases, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...]:
    """All integers in T(b**r, B), the block digits B given by r phases over base b.

    One phase C is T(b, C) itself.  With r phases, a block step
    ``z -> b**r z - d`` is r steps ``z -> b*z - c``, step p taking its digit
    from phase p, and ``d = sum_p b**(r-1-p) c_p``; so the integer points are
    the phase-0 points of the periodic system, and no block digit is built.
    Every point of phase p lies in its candidate interval and has a
    successor of phase p + 1 there; the points form the greatest such family.

    * Top-down, a point z of phase 0 lies in a range that word sums of h
      digits cover: some ``w = sum_j b**(h-j) c_j``, with ``c_j`` from phase
      j - 1, has ``b**h * z - w`` in the interval of phase h.
    * Bottom-up, a point z on a cycle is the end of a walk of k steps
      ``x -> b*x - c`` from a point x, so ``z mod b**k`` is one of the
      residues those walks end in.
    * The candidates of phase 0 are the integers of the ranges in those
      residue classes, found by bisecting the sorted residues at both ends
      of each range.  Those of phase p + 1 are the successors of phase p's
      inside its interval, which holds every cycle point of phase p + 1.

    The worklist then removes zero-out-degree candidates and decrements
    their predecessors.  What stays is the greatest fixed family inside the
    candidates: it holds every cycle, since the candidates do, and lies
    inside the integer points.  Every integer point reaches a cycle, and an
    integer predecessor ``(y + c) / b`` of a point y is a point: it lies in
    its interval whenever y does.  So closing the fixed family backward
    gives exactly the integer points.  ``_split`` chooses h and k from b, #C
    and the width; a short interval with many digits gets h = k = 0, the
    plain scan, and ``#C >= b`` refines top-down by what the ranges cover.

    ``node_budget`` bounds the word sums (at most ``#C**h``), the residues
    (at most ``#C**k``, and k > 0 only when ``#C < b``) and the candidates
    of all phases, not the width of the intervals.  Each is counted before
    it is built, except the candidates of the phases after phase 0, counted
    as each phase is derived.
    """
    if b < 2:
        raise ValueError("base b must be at least 2")
    phases = [sorted(set(C)) for C in phases]
    if not phases or not all(phases):
        raise ValueError("digit set must be nonempty")
    intervals = _phase_intervals(b, phases)
    if any(hi < lo for lo, hi in intervals):
        return ()
    r, sizes = len(phases), [len(digits) for digits in phases]
    lo, hi = intervals[0]
    h, k = _split(b, max(sizes), hi - lo + 1)
    sums = 0 if h is None else _word_count(sizes, 0, h)  # None: the refinement keeps within the budget
    if sums > node_budget:
        raise BudgetExceeded("attractor word sums", sums, node_budget)
    ends = _word_count(sizes, -k, k)
    if ends > node_budget:
        raise BudgetExceeded("attractor residues", ends, node_budget)
    modulus, residues = b**k, _end_residues(b, phases, k)
    # A range [first, last] spans the blocks of `modulus` from `start` to `end`: its candidates
    # are residues[i:] in the first block, every residue in each block between, residues[:j] in the last.
    spans = []
    count = 0
    for first, last in _covered_ranges(b, phases, intervals, h, node_budget):
        start, end = first - first % modulus, last - last % modulus
        i, j = bisect_left(residues, first - start), bisect_right(residues, last - end)
        spans.append((start, i, end, j))
        count += (end - start) // modulus * len(residues) + j - i
    if count > node_budget:
        raise BudgetExceeded("attractor candidates", count, node_budget)
    candidates: list[int] = []
    for start, i, end, j in spans:
        if start == end:
            candidates += [start + v for v in residues[i:j]]
        else:
            candidates += [start + v for v in residues[i:]]
            candidates += [block + v for block in range(start + modulus, end, modulus) for v in residues]
            candidates += [end + v for v in residues[:j]]
    degree = [dict.fromkeys(candidates, 0)]
    for digits, (lo, hi) in zip(phases, intervals[1:]):
        # Successors b*z - c inside the next interval: digits in the window [b*z - hi, b*z - lo].
        successors = {
            bz - c
            for z in degree[-1]
            for bz in (b * z,)
            for c in digits[bisect_left(digits, bz - hi) : bisect_right(digits, bz - lo)]
        }
        count += len(successors)
        if count > node_budget:
            raise BudgetExceeded("attractor candidates", count, node_budget)
        degree.append(dict.fromkeys(successors, 0))

    # Out-degree of z at phase p: digits in the window [b*z - hi, b*z - lo] of phase p + 1
    # landing on a candidate there.
    dead: list[list[int]] = []
    for p, digits in enumerate(phases):
        here, there = degree[p], degree[(p + 1) % r]
        lo, hi = intervals[(p + 1) % r]
        stack = []
        for z in here:
            bz = b * z
            out = 0
            for c in digits[bisect_left(digits, bz - hi) : bisect_right(digits, bz - lo)]:
                if bz - c in there:
                    out += 1
            here[z] = out
            if out == 0:
                stack.append(z)
        dead.append(stack)
    for here, stack in zip(degree, dead):
        for z in stack:
            del here[z]

    # A point y of phase q has its predecessors (y + c) / b at phase q - 1, c from phase q - 1.
    by_residue: list[dict[int, list[int]]] = []
    for digits in phases:
        classes: dict[int, list[int]] = {}
        for c in digits:
            classes.setdefault(c % b, []).append(c)
        by_residue.append(classes)

    while any(dead):
        for q, stack in enumerate(dead):
            here, classes, removed = degree[q - 1], by_residue[q - 1], dead[q - 1]
            while stack:
                y = stack.pop()
                for c in classes.get((-y) % b, ()):
                    x = (y + c) // b
                    if x in here:
                        here[x] -= 1
                        if here[x] == 0:
                            del here[x]
                            removed.append(x)

    points = [set(d) for d in degree]
    stacks = [list(s) for s in points]
    while any(stacks):
        for q, stack in enumerate(stacks):
            found, classes, grown = points[q - 1], by_residue[q - 1], stacks[q - 1]
            while stack:
                y = stack.pop()
                for c in classes.get((-y) % b, ()):
                    x = (y + c) // b
                    if x not in found:
                        found.add(x)
                        grown.append(x)
    return tuple(sorted(points[0]))


def build_graph(b: int, *phases, node_budget: int = DEFAULT_NODE_BUDGET) -> AttractorSystem:
    """Integer points of T(b**r, B) plus every block transition z -(d)-> b**r z - d inside them.

    B is given by r phases over base b as in :func:`integer_points`; one
    phase C is T(b, C).  The block edges from a point z are its walks of r
    steps ``y -> b*y - c``, step p taking its digit from phase p inside the
    window of the interval of phase p + 1 (mod r), that end on a point; the
    walk's digits sum to its block digit ``d = sum_p b**(r-1-p) c_p``.
    """
    phases = tuple(tuple(sorted(set(C))) for C in phases)
    nodes = integer_points(b, *phases, node_budget=node_budget)
    intervals = _phase_intervals(b, phases)
    # Step p of a walk takes its digit from phase p, inside the window [b*y - hi, b*y - lo]
    # that keeps it in the interval of phase p + 1 (mod r): the last step returns to phase 0.
    walks = [(z, z, 0) for z in nodes]  # (start, position, the digits so far as one block digit)
    for p, digits in enumerate(phases):
        lo_q, hi_q = intervals[(p + 1) % len(phases)]
        walks = [
            (z, by - c, b * d + c)
            for z, y, d in walks
            for by in (b * y,)
            for c in digits[bisect_left(digits, by - hi_q) : bisect_right(digits, by - lo_q)]
        ]
    node_set = set(nodes)
    # Two walks with equal digit sums are one block digit, so one edge.
    edges = sorted({(z, d, y) for z, y, d in walks if y in node_set})
    lo, hi = intervals[0]
    return AttractorSystem(radix=b, phases=phases, lo=lo, hi=hi, nodes=nodes, edges=tuple(edges))


def find_nonzero_cycle(system: AttractorSystem) -> Optional[CycleWitness]:
    """Least cycle through nonzero integer points, or None.

    Minimality is by (length, start node, digit sequence).  The graph must be
    a map, one edge from every point, or this raises ``ValueError``.  A walk
    from each point in ascending order marks the points it reaches, 0
    counting as seen, and closes a new cycle when it meets its own mark.
    The least cycle by (length, least node) is read backward from that node.
    """
    step = {z: (d, y) for z, d, y in system.edges}
    if len(step) != len(system.edges) or len(step) != len(system.nodes):
        raise ValueError("cycle search needs exactly one edge from every integer point")
    reached_by, cycles = {0: None}, []
    for start in system.nodes:
        path, z = [], start
        while z not in reached_by:
            reached_by[z] = start
            path.append(z)
            z = step[z][1]
        if reached_by[z] == start:
            cycle = path[path.index(z) :]
            cycles.append((len(cycle), min(cycle), cycle))
    if not cycles:
        return None
    _, least, cycle = min(cycles)
    # Witness step u -(c)-> v means v = (u + c) / base, the reverse of the edge v -(c)-> u.
    i = cycle.index(least)
    nodes = tuple(reversed(cycle[i + 1 :] + cycle[: i + 1]))
    witness = CycleWitness(nodes=nodes, digits=tuple(step[v][0] for v in nodes[1:] + nodes[:1]))
    assert witness.verify(system.base)
    return witness


def _word_residues(digits: Sequence[int], weights: Sequence[int], modulus: int, count: int) -> list[int]:
    """``sum_j weights[j] * c_j mod modulus`` of the first ``count`` words in lexicographic order.

    Built level by level, each level keeping only the prefixes those words need.
    """
    sums, size = [0], len(digits)
    for j, weight in enumerate(weights):
        needed = -(-count // size ** (len(weights) - j - 1))
        sums = [(s + weight * c) % modulus for s in sums[: -(-needed // size)] for c in digits][:needed]
    return sums


def word_witness_search(
    b: int,
    C,
    max_len: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """First word (c_1..c_m), not all zero, with (b**m - 1) | sum b**(j-1) c_j.

    Exhausts lengths 1..max_len in (length, lexicographic) order over the
    sorted digit set; serves as the independent brute-force oracle for the
    cycle criterion.  The budget counts the words a plain enumeration would
    examine up to and including the first hit, and is exceeded exactly when
    that enumeration would reach word ``budget + 1``.

    Each length meets in the middle: a word is a head of ``m - d`` digits and
    a tail of d, every tail's residue is tabled with its least index, and the
    heads, in order, look up the tail residue that completes them to 0.  No
    more heads are built than the remaining budget covers.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    digits = sorted(set(C))
    size = len(digits)
    if size == 0:
        return None
    zero = digits.index(0) if 0 in digits else None
    examined = 0  # words of the lengths already exhausted
    for m in range(1, max_len + 1):
        modulus = b**m - 1
        words = size**m
        allowed = min(words, word_budget - examined)  # words of this length within the budget
        d = 0
        while d < m and size ** (2 * d) < allowed:
            d += 1
        tails_count = size**d
        weights = [pow(b, j, modulus) for j in range(m)]
        tails = _word_residues(digits, weights[m - d :], modulus, tails_count)
        least = {v: j for j, v in zip(range(tails_count - 1, -1, -1), reversed(tails))}
        heads = _word_residues(digits, weights[: m - d], modulus, -(-allowed // tails_count))
        # The all-zero word is no witness: its head and tail are all-zero words.
        zero_head = zero_tail = None
        if zero is not None:
            zero_head = sum(zero * size**i for i in range(m - d))
            zero_tail = sum(zero * size**i for i in range(d))
        for i, v in enumerate(heads):
            j = least.get(-v % modulus)
            if j is not None and i == zero_head and j == zero_tail:
                j = next((j for j in range(zero_tail + 1, tails_count) if tails[j] == 0), None)
            if j is None:
                continue
            index = i * tails_count + j
            if index >= allowed:
                break
            word = []
            for _ in range(m):
                index, position = divmod(index, size)
                word.append(digits[position])
            return m, tuple(reversed(word))
        if allowed < words:
            raise BudgetExceeded("word enumeration", word_budget + 1, word_budget)
        examined += words
    return None
