"""Reference checks that no command of the package calls.

The tests import these as oracles for the exact routines in ``speigen``.
"""

import argparse
import cmath
import functools
import math
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np

from speigen import CycleWitness, SignWord, SpeigenError, Verdict, decide_scaling_signed, nadic_split
from speigen.cli import COMMANDS, FIELDS, FLAG_ONLY, SWITCH


class SizeMismatch(SpeigenError):
    """Digit sets of a candidate Hadamard pair differ in cardinality."""


def mask_direct_sum(inst, x) -> complex:
    """The mask m_D at x as the literal normalized sum over all digits of D, with no blocks."""
    return sum(cmath.exp(2j * math.pi * d * x) for d in inst.D) / len(inst.D)


def fourier_products_reference(xs, scales, counts, m_scale, max_digit, tol):
    """The transform kernel as one fresh array per step, the bit-for-bit reference of ``_kernels.fourier_products``.

    Each level accumulates its blocks into ``ones`` and ``zeros`` (so a
    level reads ``(1 * f_1) * f_2`` and ``(0 + p_1) + p_2``), and each block
    divides with ``where=r != 0`` into ``ones``, which leaves exactly 1 at
    ``r == 0``.  The frequencies are sorted by tail bound, largest first,
    and the ones still at or above ``tol`` at each level are a prefix.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m_scale, max_digit, tol = float(m_scale), float(max_digit), float(tol)
    tails = 2.0 * math.pi * max_digit * np.abs(xs.ravel()) / (m_scale - 1.0)
    order = np.argsort(-tails, kind="stable")
    ys = xs.ravel()[order]
    tails = tails[order]
    amp = np.ones(ys.shape, dtype=np.float64)
    phase = np.zeros(ys.shape, dtype=np.float64)
    n = int(np.count_nonzero(tails >= tol))
    while n:
        ys[:n] /= m_scale
        level_amp = np.ones(n, dtype=np.float64)
        level_phase = np.zeros(n, dtype=np.float64)
        for scale, count in np.broadcast(scales, counts):
            scale, count = float(scale), float(count)
            r = ys[:n] * scale
            r -= np.rint(r)
            num = np.sin(math.pi * count * r)
            den = np.sin(math.pi * r)
            den *= count
            level_amp *= np.divide(num, den, out=np.ones_like(r), where=r != 0.0)
            r *= count - 1.0
            level_phase += r
        amp[:n] *= level_amp
        phase[:n] += level_phase
        tails[:n] /= m_scale
        n = int(np.count_nonzero(tails[:n] >= tol))
    out_amp, out_phase = np.empty_like(amp), np.empty_like(phase)
    out_amp[order] = amp
    out_phase[order] = phase
    return out_amp.reshape(xs.shape), out_phase.reshape(xs.shape)


def hadamard_check_numeric(b: int, Dset, Cset, tol: float = 1e-9) -> bool:
    """Unitarity of H = (1/sqrt(n)) [e^(2 pi i d c / b)] up to tol in max norm.

    The numeric twin of the exact checks: at ``(M, D, t*L)`` it agrees with
    :func:`speigen.hadamard_check_exact` and :func:`companion_valuation_check`.
    Phases are reduced exactly (``d*c mod b``) before float conversion, so
    huge digit products lose no precision.
    """
    Dset = list(Dset)
    Cset = list(Cset)
    if len(Dset) != len(Cset):
        raise SizeMismatch(f"digit sets differ in size: {len(Dset)} vs {len(Cset)}")
    n = len(Dset)
    if n < 2:
        raise ValueError("Hadamard pair needs at least 2 digits")
    if b < 2:
        raise ValueError("modulus b must be at least 2")
    if b > 2**53:
        raise ValueError(f"modulus b = {b} exceeds exact float64 range (2**53)")
    phases = np.array([[(d * c) % b for c in Cset] for d in Dset], dtype=np.float64) / float(b)
    H = np.exp(2j * math.pi * phases) / math.sqrt(n)
    gram = H.conj().T @ H
    return bool(np.max(np.abs(gram - np.eye(n))) <= tol)


def companion_valuation_check(inst, t: int) -> bool:
    """The Hadamard condition on t*L by its definition, pair by pair.

    Every difference of distinct elements of ``t*L`` is ``c * t * (b - b')``
    for distinct companion digits; it lies in the level-0 slice of the zero
    set exactly when the N-adic valuation of ``t * (b - b')`` is a block
    exponent.  Walks all ``#B**2`` pairs, the reference for the closed form
    ``gcd(|t|, N) == 1`` of :func:`speigen.hadamard_check_exact`.
    """
    allowed = set(inst.exponents)
    diffs = {b1 - b2 for b1 in inst.B for b2 in inst.B if b1 > b2}
    return all(nadic_split(abs(t) * diff, inst.N)[0] in allowed for diff in diffs)


def split_reference(b, count, width):
    """The (h, k) split of ``attractor._split`` with both sides recomputed as powers at every level."""
    levels = 0
    while width * count**levels > count ** ((levels + 1) // 2 + 1) * b**levels:
        levels += 1
    return levels // 2, levels - levels // 2


def dense_integer_points(b, C):
    """Reference enumeration: the worklist fixpoint over the whole candidate interval.

    Every integer of ``[ceil(min C / (b-1)), floor(max C / (b-1))]`` starts
    alive with its out-degree; zero-degree nodes are removed and their
    predecessors decremented until nothing changes.  O(width) work.
    """
    digits = sorted(set(C))
    lo = -((-digits[0]) // (b - 1))
    hi = digits[-1] // (b - 1)
    if hi < lo:
        return ()
    count = hi - lo + 1
    alive = bytearray([1]) * count
    degree = [0] * count
    dead = deque()
    for i in range(count):
        z = lo + i
        degree[i] = bisect_right(digits, b * z - lo) - bisect_left(digits, b * z - hi)
        if degree[i] == 0:
            alive[i] = 0
            dead.append(i)
    by_residue = {}
    for c in digits:
        by_residue.setdefault(c % b, []).append(c)
    while dead:
        y = lo + dead.popleft()
        for c in by_residue.get((-y) % b, ()):
            x = (y + c) // b
            if lo <= x <= hi and alive[x - lo]:
                degree[x - lo] -= 1
                if degree[x - lo] == 0:
                    alive[x - lo] = 0
                    dead.append(x - lo)
    return tuple(lo + i for i in range(count) if alive[i])


def multiplicative_order(t, b):
    """The least m >= 1 with b**m = 1 (mod |t|), for t coprime to b."""
    modulus, m, power = abs(t), 1, b % abs(t)
    while power != 1 % modulus:
        m, power = m + 1, power * b % modulus
    return m


def cycle_length_bound(b, t, digits, word_budget):
    """A word length that the least cycle of the graph of ``digits = |t| * C`` over the base b cannot exceed.

    When ``gcd(t, b) = 1``, every cycle length divides ``m = ord_|t|(b)``:
    an integer point is ``|t| x`` for an x of ``T(b, C)`` whose reduced
    denominator divides t, and such an x has a purely periodic base-b
    expansion whose period divides m.  That bound needs no scan, and it is
    taken when every word of length at most m fits ``word_budget``.
    Otherwise the bound is the number of integer points, from the O(t)
    dense scan.
    """
    if math.gcd(t, b) == 1:
        m = multiplicative_order(t, b)
        if sum(len(set(digits)) ** j for j in range(1, m + 1)) <= word_budget:
            return m
    return max(1, len(dense_integer_points(b, digits)))


def bfs_least_cycle(system):
    """Least cycle through nonzero points of any transition graph, or None.

    Minimality is by (length, start node, digit sequence), as in
    :func:`speigen.find_nonzero_cycle`, which needs one edge from every
    point; this search takes any number.  Each start, in ascending order,
    gets one reverse BFS of distances to it, level by level until a level
    holds one of its successors: that depth plus one is its shortest
    return.  Only a strictly shorter return displaces the best start so
    far, so later searches stop at depth ``best - 2``.  The digits are then
    read off greedily: from each node, the least digit whose successor lies
    exactly ``remaining`` steps from the start.
    """
    # Witness step u -(c)-> v means v = (u + c) / base, the reverse of the stored edge v -(c)-> u.
    succ = {z: [] for z in system.nodes if z != 0}
    pred = {z: [] for z in succ}
    for v, c, u in system.edges:
        if u != 0 and v != 0:
            succ[u].append((c, v))
            pred[v].append(u)

    best = None  # (length, start, distances to start)
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
        c, v = min((c, v) for c, v in succ[nodes[-1]] if dist.get(v) == remaining)
        digits.append(c)
        nodes.append(v)
    return CycleWitness(nodes=tuple(nodes[:-1]), digits=tuple(digits))


def first_sign_word(inst, ts, r_max):
    """First sign word of period at most r_max making every t a spectrum, or None.

    The brute twin of :func:`speigen.find_sign_word`: the same order of
    periods and binary patterns, but every word is decided, none is skipped
    for its class, and no budget applies.
    """
    for r in range(1, r_max + 1):
        for bits in range(2**r):
            omega = SignWord.from_bits(r, bits)
            if all(decide_scaling_signed(inst, t, omega).verdict is Verdict.SPECTRUM for t in ts):
                return omega
    return None


@functools.cache
def argparse_reference_parser() -> argparse.ArgumentParser:
    """The standard library parser over the same command table, the reference of ``cli.build_parser``."""
    parser = argparse.ArgumentParser(
        prog="speigen",
        description="Exact scaling-eigenvalue decisions for product-form self-similar spectral measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for key, spec in FIELDS.items():
            if key in command.flags or key in FLAG_ONLY:
                cmd.add_argument(spec.flag, help=spec.help, **({"action": "store_true"} if key == SWITCH else {}))
    return parser
