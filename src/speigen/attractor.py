"""Integer points of radix attractors, their transition graph and witnesses.

``T(b, C)`` is the compact set of base-b expansions ``sum_j b**-j c_j`` with
digits from C.  Its integer points all lie in the interval
``[ceil(min C / (b-1)), floor(max C / (b-1))]`` and form the greatest fixed
point of ``S -> {z : exists c in C with b*z - c in S}``.

Every digit set here is spaced: its span ``max C - min C`` is less than
``b - 1`` times its least gap.  The interval is then narrower than that gap,
so each integer z has at most one successor ``b*z - c`` in it, and
``#C < b``.  Every scaled set ``|t| * L`` of an instance is spaced: its span
is at most ``|t| * (M - c)``, with the instance's scale ``c >= 2``, less than
``M - 1`` times its least gap, which is at least ``|t|``.

``integer_points`` meets in the middle: word sums of the first h digits
narrow the interval to ranges top-down, the residues modulo ``b**k`` that
walks of k steps ``x -> b*x - c`` end in filter those ranges bottom-up, and
a walk along the successor map of the few candidates left finds every
cycle.  A frontier of predecessors grown backward from the cycles inside
the interval then gives exactly the integer points, since every point
reaches a cycle.  The work is about ``#C**h + #C**k`` plus the
candidates, where a one-sided refinement costs ``width ** (log #C / log b)``.

The same algorithm runs on a periodic sequence of digit sets, the phases
``C_0, ..., C_(r-1)``: step p of a walk takes its digit from phase p mod r.
Its phase-0 points are the integer points of ``T(b**r, B)`` with the block
digits ``B = {sum_p b**(r-1-p) c_p}``, and r steps from phase 0 back to it
are one block step, so a block system of ``prod_p #C_p`` digits is handled
through r sets of ``#C_p`` digits each, and one phase is ``T(b, C)``.
``build_graph`` walks each point r steps by the same successor rule and
reads its block digit ``b**r * z - y`` off the end y of the walk.

A cycle through nonzero integer points (equivalently a word witness for the
divisibility criterion) certifies that the scaled set fails to be a spectrum.
Every graph of spaced phases is a map, one block edge from each point;
``find_nonzero_cycle`` walks its orbits.
``word_witness_search`` is the brute-force oracle for the same criterion,
least in (length, lexicographic) order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded
from .instance import direct_sum

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
        """The sorted block digits: the direct sum of the sets ``b**(r-1-p) * C_p``.

        Spaced phases give distinct words distinct sums, so the sum is direct.
        """
        r = len(self.phases)
        return direct_sum(*([self.radix ** (r - 1 - p) * c for c in phase] for p, phase in enumerate(self.phases)))

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


def _split(b: int, count: int, width: int) -> tuple[int, int]:
    """Levels (h, k) of the top-down word sums and the bottom-up residues.

    Spaced digits have ``#C < b``, and each level keeps about ``#C / b`` of
    the candidates, so ``L = h + k`` levels leave about
    ``width * (#C/b)**L`` of them, against ``#C**h`` word sums and
    ``#C**k`` residues.  L is the least with the candidates no more than
    ``#C**(k+1)``, split as ``h = L // 2`` and ``k = L - h``.  ``L = 0`` is
    the plain scan of the interval, where a short interval with many digits
    stops.  Both sides are running products: a level multiplies each by a
    small integer instead of raising powers of the width's size afresh.
    """
    levels, left, right = 0, width, count  # width * #C**L and #C**((L+1)//2 + 1) * b**L
    while left > right:
        levels += 1
        left *= count
        right *= b * count if levels % 2 else b
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
    levels: int,
) -> list[tuple[int, int]]:
    """Disjoint nonempty ranges of the phase-0 integers that word sums of ``levels`` digits cover.

    A word sum w of j digits, one from each of the phases 0, 1, ...,
    covers the integers z of phase 0's interval with ``b**j * z - w`` in the
    interval of phase j.  Level j+1 extends each w by the digits in the
    window that keeps such z inside phase 0's interval, and keeps a sum iff
    it still covers an integer: inside that window, iff the next interval
    shifted by ``b*w + c`` holds a multiple of ``b**(j+1)``.

    Spacing makes the ranges disjoint.  Two sums of j digits that first
    differ at digit i differ by at least ``g * b**i``, g the least gap, and
    their lower digits by at most ``span * (b**i - 1) / (b - 1)``, less than
    ``g * (b**i - 1)``; so the sums are more than g apart, while each covers
    a real interval narrower than ``g / b**j``.  A kept sum's interval holds
    an integer and meets phase 0's interval, so its range is never empty.
    """
    r = len(phases)
    lo, hi = intervals[0]
    words, scale = {0}, 1
    for j in range(levels):
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
    lo_q, hi_q = intervals[levels % r]
    return [(max(lo, -((-(lo_q + w)) // scale)), min(hi, (hi_q + w) // scale)) for w in words]


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


def _advance(b: int, digits: Sequence[int], lo: int, hi: int, positions: Iterable[tuple[int, int]]) -> dict[int, int]:
    """One phase of the walks: each ``(start, y)`` moves to its successor in ``[lo, hi]``, or is dropped.

    The successor is ``b*y - c`` for the one digit c in the window
    ``[b*y - hi, b*y - lo]``, found by one bisection of the sorted digits.
    """
    advanced, size = {}, len(digits)
    for z, y in positions:
        by = b * y
        i = bisect_left(digits, by - hi)
        if i < size and digits[i] <= by - lo:
            advanced[z] = by - digits[i]
    return advanced


def integer_points(b: int, *phases, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...]:
    """All integers in T(b**r, B), the block digits B given by r spaced phases over base b.

    One phase C is T(b, C) itself.  With r phases, a block step
    ``z -> b**r z - d`` is r steps ``z -> b*z - c``, step p taking its digit
    from phase p, and ``d = sum_p b**(r-1-p) c_p``; so the integer points are
    the phase-0 points of the periodic system, and no block digit is built.
    Every point of phase p lies in its candidate interval and has a
    successor of phase p + 1 there; the points form the greatest such family.

    The phases must be spaced: the largest span ``max C_p - min C_p`` is
    less than ``b - 1`` times the least gap between two digits of a phase,
    or this raises ``ValueError``.  Every interval is then narrower than
    that gap, so the window ``[b*z - hi, b*z - lo]`` that keeps a step
    inside the next interval holds at most one digit, and ``#C_p < b``.

    * Top-down, a point z of phase 0 lies in a range that word sums of h
      digits cover: some ``w = sum_j b**(h-j) c_j``, with ``c_j`` from phase
      j - 1, has ``b**h * z - w`` in the interval of phase h.
    * Bottom-up, a point z on a cycle is the end of a walk of k steps
      ``x -> b*x - c`` from a point x, so ``z mod b**k`` is one of the
      residues those walks end in.
    * The candidates of phase 0 are the integers of the ranges in those
      residue classes, found by bisecting the sorted residues at both ends
      of each range.
    * Forward, one map takes each phase-0 candidate to its position after
      each phase.  Phase p moves every position to its one successor inside
      the interval of phase p + 1, found by one bisection, and drops the
      candidates that have none.  That interval holds every cycle point of
      phase p + 1, so the positions left are its candidates.  After r
      phases the map is one block step, and a walk along it finds every
      cycle among the candidates, and so every cycle of integer points.
    * Backward, a frontier starts at the cycle points of phase 0.  Each
      round moves it from phase q to phase q - 1 (mod r): it takes the
      integer predecessors ``(y + c) / b`` of the frontier, c from phase
      q - 1, that are not yet points of phase q - 1.  An integer
      predecessor of a point is a point, since it lies in its interval
      whenever y does, and every point reaches a cycle; so when a round
      adds nothing, the points are exactly the integer points.

    ``_split`` chooses h and k from b, #C and the width; a short interval
    with many digits gets h = k = 0, the plain scan.

    ``node_budget`` bounds the word sums (at most ``#C**h``), the residues
    (at most ``#C**k``) and the candidates of all phases, not the width of
    the intervals.  Each is counted before it is built, except the
    candidates of the phases after phase 0, counted as each phase is
    derived.
    """
    if b < 2:
        raise ValueError("base b must be at least 2")
    phases = [sorted(set(C)) for C in phases]
    if not phases or not all(phases):
        raise ValueError("digit set must be nonempty")
    span = max(digits[-1] - digits[0] for digits in phases)
    gap = min((y - x for digits in phases for x, y in zip(digits, digits[1:])), default=span + 1)
    if span >= (b - 1) * gap:
        raise ValueError(f"digit sets must be spaced, span < (b - 1) * least gap: span {span}, least gap {gap}, b = {b}")
    intervals = _phase_intervals(b, phases)
    if any(hi < lo for lo, hi in intervals):
        return ()
    r, sizes = len(phases), [len(digits) for digits in phases]
    lo, hi = intervals[0]
    h, k = _split(b, max(sizes), hi - lo + 1)
    sums = _word_count(sizes, 0, h)
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
    for first, last in _covered_ranges(b, phases, intervals, h):
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

    # Each phase-0 candidate walks forward to its position after each phase, starting at itself;
    # after r phases the walk is one block step.  Phase 0 reads the candidates as they are: a map
    # built for them costs about 7% of this function at small t.
    positions: dict[int, int] = {}
    for p, (digits, (lo, hi)) in enumerate(zip(phases, intervals[1:] + intervals[:1])):
        if p:
            count += len(set(positions.values()))
            if count > node_budget:
                raise BudgetExceeded("attractor candidates", count, node_budget)
        positions = _advance(b, digits, lo, hi, positions.items() if p else zip(candidates, candidates))

    # A point y of phase q has its predecessors (y + c) / b at phase q - 1, c from phase q - 1.
    # No predecessor comes from two frontier points, since that would put two digits of phase
    # q - 1 in its window, which spacing forbids; so a round's frontier is a list without repeats.
    by_residue: list[dict[int, list[int]]] = []
    for digits in phases:
        classes: dict[int, list[int]] = {}
        for c in digits:
            classes.setdefault(c % b, []).append(c)
        by_residue.append(classes)

    frontier = {z for cycle in _orbit_cycles(positions, positions) for z in cycle}
    points, q = [frontier] + [set() for _ in phases[1:]], 0
    while frontier:
        q = (q - 1) % r
        found, classes = points[q], by_residue[q]
        frontier = [x for y in frontier for c in classes.get((-y) % b, ()) if (x := (y + c) // b) not in found]
        found.update(frontier)
    return tuple(sorted(points[0]))


def build_graph(b: int, *phases, node_budget: int = DEFAULT_NODE_BUDGET) -> AttractorSystem:
    """Integer points of T(b**r, B) plus the block transition z -(d)-> b**r z - d from each.

    B is given by r spaced phases over base b as in :func:`integer_points`;
    one phase C is T(b, C).  The block edge from a point z is its walk of r
    steps ``y -> b*y - c``, taken by the successor rule of
    :func:`integer_points`: step p takes the one digit of phase p in the
    window of the interval of phase p + 1 (mod r).  A point's successor is a
    point, so every walk ends on a point y, and the block digit is
    ``d = b**r * z - y``.
    """
    phases = tuple(tuple(sorted(set(C))) for C in phases)
    nodes = integer_points(b, *phases, node_budget=node_budget)
    intervals = _phase_intervals(b, phases)
    positions = zip(nodes, nodes)
    for digits, (lo, hi) in zip(phases, intervals[1:] + intervals[:1]):
        positions = _advance(b, digits, lo, hi, positions).items()
    base = b ** len(phases)
    edges = tuple((z, base * z - y, y) for z, y in positions)
    lo, hi = intervals[0]
    return AttractorSystem(radix=b, phases=phases, lo=lo, hi=hi, nodes=nodes, edges=edges)


def _orbit_cycles(successor: dict[int, int], starts: Iterable[int]) -> list[list[int]]:
    """The cycles of a partial map, each a list of nodes in walk order.

    A walk from each start, in order, marks the nodes it reaches; it ends at
    a node the map leaves out or at a mark, and closes a new cycle when that
    mark is its own.  Each node is walked once.
    """
    reached_by: dict[int, int] = {}
    cycles = []
    for start in starts:
        path, z = [], start
        while z in successor and z not in reached_by:
            reached_by[z] = start
            path.append(z)
            z = successor[z]
        if reached_by.get(z) == start:
            cycles.append(path[path.index(z) :])
    return cycles


def find_nonzero_cycle(system: AttractorSystem) -> Optional[CycleWitness]:
    """Least cycle through nonzero integer points, or None.

    Minimality is by (length, start node, digit sequence).  The graph must be
    a map, one edge from every point, or this raises ``ValueError``.  A walk
    from each point in ascending order marks the points it reaches and
    closes a new cycle when it meets its own mark; the cycle through 0, if
    any, is dropped.  The least cycle by (length, least node) is read
    backward from that node.
    """
    successor = {z: y for z, _, y in system.edges}
    if len(successor) != len(system.edges) or len(successor) != len(system.nodes):
        raise ValueError("cycle search needs exactly one edge from every integer point")
    cycles = [cycle for cycle in _orbit_cycles(successor, system.nodes) if 0 not in cycle]
    if not cycles:
        return None
    _, least, cycle = min((len(cycle), min(cycle), cycle) for cycle in cycles)
    # Witness step u -(c)-> v means v = (u + c) / base, the reverse of the edge v -(c)-> u.
    i = cycle.index(least)
    nodes = tuple(reversed(cycle[i + 1 :] + cycle[: i + 1]))
    digit = {z: d for z, d, _ in system.edges}
    witness = CycleWitness(nodes=nodes, digits=tuple(digit[v] for v in nodes[1:] + nodes[:1]))
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
