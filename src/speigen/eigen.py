"""Decisions for the two scaling-eigenvalue problems.

Problem one asks whether ``t * Lambda`` is again a spectrum for the fixed
model spectrum ``Lambda`` of an instance: the answer is yes iff t is an
integer coprime to N and the transition graph on the integer points of
``T(M, t*L)`` carries no cycle through nonzero nodes.  Problem two asks for
which t some set and its t-scaling are simultaneously spectra: exactly the
rationals whose reduced numerator and denominator are both coprime to N,
with periodic sign words supplying witnesses.

A sign word of period r twists the spectrum, and its decision runs on
``T(M**r, |t|*B)`` with one period folded into the block digits B.  That
set has ``#L**r`` elements, so the graph is built from the r phases of the
base-M system instead (:func:`~speigen.attractor.build_graph`): the cost of
a signed decision grows with r, not with ``#L**r``, and the block digits
are never enumerated.  Both problems take one path: the unsigned case is
the one-phase word ``(1,)``, and one screen of t precedes every graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .attractor import (
    DEFAULT_NODE_BUDGET,
    AttractorSystem,
    CycleWitness,
    build_graph,
)
from .attractor import find_nonzero_cycle as _find_nonzero_cycle
from .errors import BudgetExceeded, ZeroScaling
from .instance import ProblemInstance
from .measure import hadamard_check_exact
from .spectra import SignWord


class Verdict(str, Enum):
    SPECTRUM = "Spectrum"
    NOT_SPECTRUM = "NotSpectrum"


class Reason(str, Enum):
    NON_INTEGER = "NonInteger"
    SHARES_FACTOR_WITH_N = "SharesFactorWithN"
    CYCLE_FOUND = "CycleFound"
    NO_CYCLE = "NoCycle"


@dataclass(frozen=True)
class EigenDecision:
    """Machine-checkable verdict for one scaling.

    ``integer_point_count`` is the size of the pruned integer-point set when
    a graph was built (the word-length bound of the decision criterion);
    ``missing_frequency`` is ``-sign(t) * eta_1`` for the returned cycle of
    an unsigned decision: a frequency orthogonal to the whole scaled set yet
    outside it, certifying non-maximality.  The graph is that of ``|t|``,
    and ``t * Lambda = sign(t) * |t| * Lambda``, so the frequency flips with
    the sign of t.  Signed verdicts do not report a missing frequency yet.
    """

    t: int | Fraction
    verdict: Verdict
    reason: Reason
    omega: Optional[SignWord] = None
    integer_point_count: Optional[int] = None
    cycle: Optional[CycleWitness] = None
    missing_frequency: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "t": str(self.t),
            "verdict": self.verdict.value,
            "reason": self.reason.value,
        }
        if self.omega is not None:
            out["omega"] = list(self.omega.pattern)
        if self.integer_point_count is not None:
            out["integer_points"] = self.integer_point_count
        if self.cycle is not None:
            out["cycle"] = self.cycle.to_json_dict()
        if self.missing_frequency is not None:
            out["missing_frequency"] = str(self.missing_frequency)
        return out


def scaled_system(
    inst: ProblemInstance,
    t: int,
    omega: Optional[SignWord] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> AttractorSystem:
    """Integer-point transition graph whose cycles decide the scaling t.

    A word of period r gives ``T(M**r, |t|*B)``, where B folds one period
    into block digits ``sum_k w_k l_k M**(k-1)``; the graph is built from its
    r phases, step p of a block taking its digit from ``w_(r-p) * |t| * L``,
    and B itself is never enumerated.  No sign word is the word ``(1,)``:
    one phase, ``T(M, |t|*L)``.
    """
    if t == 0:
        raise ZeroScaling("scaling t must be nonzero")
    signs = (1,) if omega is None else omega.pattern
    phases = [[sign * abs(t) * l for l in inst.L] for sign in reversed(signs)]
    return build_graph(inst.M, *phases, node_budget=node_budget)


def _decide(inst: ProblemInstance, t, omega: Optional[SignWord], node_budget: int) -> EigenDecision:
    """Screen t, then read the verdict off the graph of :func:`scaled_system`.

    Zero is refused; a non-integer, or a t sharing a factor with N, is no
    spectrum outright.  Otherwise a cycle through nonzero nodes refutes the
    spectrum, and only the unsigned case (``omega is None``) reports its
    missing frequency ``-sign(t) * eta_1``.
    """
    if isinstance(t, Fraction):
        return EigenDecision(t=t, verdict=Verdict.NOT_SPECTRUM, reason=Reason.NON_INTEGER, omega=omega)
    if not hadamard_check_exact(inst, t):
        return EigenDecision(t=t, verdict=Verdict.NOT_SPECTRUM, reason=Reason.SHARES_FACTOR_WITH_N, omega=omega)
    system = scaled_system(inst, t, omega, node_budget=node_budget)
    cycle = _find_nonzero_cycle(system)
    # t is coprime to N, so the graph is a permutation: every point lies on a cycle, and 0's is {0}.
    assert (cycle is None) == (len(system.nodes) == 1)
    return EigenDecision(
        t=t,
        verdict=Verdict.SPECTRUM if cycle is None else Verdict.NOT_SPECTRUM,
        reason=Reason.NO_CYCLE if cycle is None else Reason.CYCLE_FOUND,
        omega=omega,
        integer_point_count=len(system.nodes),
        cycle=cycle,
        missing_frequency=(-1 if t > 0 else 1) * cycle.nodes[0] if cycle is not None and omega is None else None,
    )


def decide_scaling(
    inst: ProblemInstance,
    t,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EigenDecision:
    """Decide whether t times the model spectrum is itself a spectrum.

    Non-integers and scalings sharing a factor with N are rejected outright;
    otherwise the verdict is read off the integer-point transition graph of
    ``T(M, |t|*L)``.  The sign of t is irrelevant to the verdict (the zero
    set is symmetric) and the original t is recorded unchanged, an integral
    Fraction as its integer.
    """
    if isinstance(t, bool) or not isinstance(t, (int, Fraction)):
        raise TypeError("scaling t must be an exact integer or Fraction")
    return _decide(inst, int(t) if t.denominator == 1 else t, None, node_budget)


def decide_scaling_signed(
    inst: ProblemInstance,
    t: int,
    omega: SignWord,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> EigenDecision:
    """Same cycle criterion for the sign-twisted spectrum of a periodic word.

    One period of length r acts as block digits over the base M**r, and the
    graph is built from its r phases (:func:`scaled_system`).  Signed
    verdicts do not report a missing frequency yet.
    """
    if not isinstance(t, int) or isinstance(t, bool):
        raise TypeError("scaling t must be an integer for signed decisions")
    return _decide(inst, t, omega, node_budget)


def shortcut_divisor(inst: ProblemInstance, t: int) -> Optional[Verdict]:
    """Spectrum verdict when every prime of t divides R, no information otherwise.

    Every prime of R divides M, so such t satisfy gcd(t, M**n - 1) = 1 for
    all n and no witness word exists; stripping gcd(t, R) until it is 1
    decides this without factoring R or t.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise ValueError("shortcut requires an integer t >= 1")
    while (g := math.gcd(t, inst.R)) > 1:
        t //= g
    return Verdict.SPECTRUM if t == 1 else None


def search_eigenvalues(
    inst: ProblemInstance,
    t_from: int,
    t_to: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[EigenDecision]:
    """Decisions for every nonzero integer scaling in the range, ascending.

    The search holds one decision per scaling, so ``node_budget`` also
    bounds how many scalings the range may hold; it is checked before
    anything is decided.
    """
    if t_from > t_to:
        raise ValueError("t_from must not exceed t_to")
    scalings = t_to - t_from + 1 - (t_from <= 0 <= t_to)
    if scalings > node_budget:
        raise BudgetExceeded("search scalings", scalings, node_budget)
    return [decide_scaling(inst, t, node_budget=node_budget) for t in range(t_from, t_to + 1) if t != 0]


def decide_second_type(inst: ProblemInstance, t1: int, t2: int) -> bool:
    """Whether some countable set and its (t1/t2)-scaling are both spectra.

    After reduction to lowest terms both the numerator and the denominator
    must be coprime to N; this characterization is complete.
    """
    if t1 == 0 or t2 == 0:
        raise ZeroScaling("t1 and t2 must be nonzero")
    ratio = Fraction(t1, t2)
    return hadamard_check_exact(inst, ratio.numerator) and hadamard_check_exact(inst, ratio.denominator)


def _word_class(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Key of the class of words that get ``pattern``'s verdict at every t.

    Negating a word maps its graph by ``z -> -z``.  Rotating it starts the
    same phase walk one phase later, and a nonzero cycle never passes
    through 0, whose one edge is ``0 -> 0``.  A power twists the spectrum as
    its root does.  The key is the least rotation of the primitive root or
    of its negation.
    """
    r = len(pattern)
    root = next(pattern[:d] for d in range(1, r + 1) if r % d == 0 and pattern[:d] * (r // d) == pattern)
    return min(w[i:] + w[:i] for w in (root, tuple(-s for s in root)) for i in range(len(root)))


def find_sign_word(
    inst: ProblemInstance,
    ts: Sequence[int],
    r_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[SignWord]:
    """First periodic sign word making every listed scaling a spectrum.

    Candidates run over periods r = 1..r_max and, within each period, over
    the 2**r patterns in binary order with -1 encoded as bit 1 (so the
    all-ones word comes first and trailing -1 patterns follow early, which
    is where witnesses tend to live).  ``None`` means not found up to
    period r_max, never nonexistence.  ``node_budget`` bounds each decision
    and also the words tried, counted as each is reached.

    A word's rotations, its negation and its powers share its verdict
    (:func:`_word_class`), so each class is decided once, at its first
    word; a later word of a decided class is counted but not decided.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one scaling")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    for t in ts:
        if t == 0:
            raise ZeroScaling("scalings must be nonzero")
        if not hadamard_check_exact(inst, t):
            raise ValueError(f"scaling {t} shares a factor with N={inst.N}")
    tried = 0
    decided: set[tuple[int, ...]] = set()
    for r in range(1, r_max + 1):
        for bits in range(2**r):
            tried += 1
            if tried > node_budget:
                raise BudgetExceeded("sign words", tried, node_budget)
            omega = SignWord.from_bits(r, bits)
            key = _word_class(omega.pattern)
            if key in decided:
                continue
            decided.add(key)
            decisions = (decide_scaling_signed(inst, t, omega, node_budget=node_budget) for t in ts)
            if all(d.verdict is Verdict.SPECTRUM for d in decisions):
                return omega
    return None
