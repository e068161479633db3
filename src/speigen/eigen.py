"""Decisions for the two scaling-eigenvalue problems.

Problem one asks whether ``t * Lambda`` is again a spectrum for the fixed
model spectrum ``Lambda`` of an instance: the answer is yes iff t is an
integer coprime to N and the transition graph on the integer points of
``T(M, t*L)`` carries no cycle through nonzero nodes.  Problem two asks for
which t some set and its t-scaling are simultaneously spectra: exactly the
rationals whose reduced numerator and denominator are both coprime to N,
with periodic sign words supplying witnesses.
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
from .errors import ZeroScaling
from .instance import ProblemInstance
from .spectra import DEFAULT_ELEMENT_BUDGET, SignWord, block_digit_set


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
    ``missing_frequency`` is ``-eta_1`` for the returned cycle in the plain
    unsigned case: a frequency orthogonal to the whole scaled set yet outside
    it, certifying non-maximality.
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


def _as_exact_scaling(t) -> int | Fraction | None:
    """Normalize to int when integral, Fraction otherwise; None for bad types."""
    if isinstance(t, bool):
        return None
    if isinstance(t, int):
        return t
    if isinstance(t, Fraction):
        return int(t) if t.denominator == 1 else t
    return None


def scaled_system(
    inst: ProblemInstance,
    t: int,
    omega: Optional[SignWord] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> AttractorSystem:
    """Integer-point transition graph whose cycles decide the scaling t.

    That is ``T(M, |t|*L)`` without a sign word, and ``T(M**r, |t|*B)`` for a
    word of period r, where B folds one period into block digits.
    """
    if omega is None:
        return build_graph(inst.M, [abs(t) * l for l in inst.L], node_budget=node_budget)
    blocks = block_digit_set(inst, omega, abs(t), element_budget=element_budget)
    return build_graph(inst.M**omega.r, blocks, node_budget=node_budget)


def _graph_decision(t, omega: Optional[SignWord], system: AttractorSystem) -> EigenDecision:
    """Verdict read off the transition graph built by :func:`scaled_system`.

    A cycle through nonzero nodes refutes the spectrum; only the unsigned
    case (``omega is None``) reports its missing frequency ``-eta_1``.
    """
    cycle = _find_nonzero_cycle(system)
    if cycle is None:
        return EigenDecision(
            t=t, verdict=Verdict.SPECTRUM, reason=Reason.NO_CYCLE, omega=omega, integer_point_count=len(system.nodes)
        )
    return EigenDecision(
        t=t,
        verdict=Verdict.NOT_SPECTRUM,
        reason=Reason.CYCLE_FOUND,
        omega=omega,
        integer_point_count=len(system.nodes),
        cycle=cycle,
        missing_frequency=-cycle.nodes[0] if omega is None else None,
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
    set is symmetric) and the original t is recorded unchanged.
    """
    value = _as_exact_scaling(t)
    if value is None:
        raise TypeError("scaling t must be an exact integer or Fraction")
    if value == 0:
        raise ZeroScaling("scaling t must be nonzero")
    if isinstance(value, Fraction):
        return EigenDecision(t=value, verdict=Verdict.NOT_SPECTRUM, reason=Reason.NON_INTEGER)
    if math.gcd(abs(value), inst.N) != 1:
        return EigenDecision(t=value, verdict=Verdict.NOT_SPECTRUM, reason=Reason.SHARES_FACTOR_WITH_N)
    return _graph_decision(value, None, scaled_system(inst, value, node_budget=node_budget))


def decide_scaling_signed(
    inst: ProblemInstance,
    t: int,
    omega: SignWord,
    node_budget: int = DEFAULT_NODE_BUDGET,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> EigenDecision:
    """Same cycle criterion for the sign-twisted spectrum of a periodic word.

    One period of length r is folded into block digits over the base M**r;
    no missing frequency is reported for signed verdicts (the unsigned
    construction does not carry over).
    """
    if not isinstance(t, int) or isinstance(t, bool):
        raise TypeError("scaling t must be an integer for signed decisions")
    if t == 0:
        raise ZeroScaling("scaling t must be nonzero")
    if math.gcd(abs(t), inst.N) != 1:
        return EigenDecision(t=t, verdict=Verdict.NOT_SPECTRUM, reason=Reason.SHARES_FACTOR_WITH_N, omega=omega)
    system = scaled_system(inst, t, omega, node_budget=node_budget, element_budget=element_budget)
    return _graph_decision(t, omega, system)


def _divisors(n: int) -> list[int]:
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def shortcut_divisor(inst: ProblemInstance, t: int) -> Optional[Verdict]:
    """Spectrum verdict for powers of divisors of R, no information otherwise.

    Such t are coprime to every M**n - 1, which caps the digit sums strictly
    below the modulus and rules out any witness word; the full decision
    procedure can never disagree.  Divisor candidates are drawn from
    gcd(R, t) so R itself is never factored.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise ValueError("shortcut requires an integer t >= 1")
    if t == 1:
        return Verdict.SPECTRUM
    for u in _divisors(math.gcd(inst.R, t)):
        if u < 2:
            continue
        x = t
        while x % u == 0:
            x //= u
        if x == 1:
            return Verdict.SPECTRUM
    return None


def search_eigenvalues(
    inst: ProblemInstance,
    t_from: int,
    t_to: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[EigenDecision]:
    """Decisions for every nonzero integer scaling in the range, ascending."""
    if t_from > t_to:
        raise ValueError("t_from must not exceed t_to")
    return [decide_scaling(inst, t, node_budget=node_budget) for t in range(t_from, t_to + 1) if t != 0]


def decide_second_type(inst: ProblemInstance, t1: int, t2: int) -> bool:
    """Whether some countable set and its (t1/t2)-scaling are both spectra.

    After reduction to lowest terms both the numerator and the denominator
    must be coprime to N; this characterization is complete.
    """
    if t1 == 0 or t2 == 0:
        raise ZeroScaling("t1 and t2 must be nonzero")
    ratio = Fraction(t1, t2)
    return math.gcd(abs(ratio.numerator), inst.N) == 1 and math.gcd(ratio.denominator, inst.N) == 1


def find_sign_word(
    inst: ProblemInstance,
    ts: Sequence[int],
    r_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> Optional[SignWord]:
    """First periodic sign word making every listed scaling a spectrum.

    Candidates run over periods r = 1..r_max and, within each period, over
    the 2**r patterns in binary order with -1 encoded as bit 1 (so the
    all-ones word comes first and trailing -1 patterns follow early, which
    is where witnesses tend to live).  ``None`` means not found within the
    budget, never nonexistence.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one scaling")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    for t in ts:
        if t == 0:
            raise ZeroScaling("scalings must be nonzero")
        if math.gcd(abs(t), inst.N) != 1:
            raise ValueError(f"scaling {t} shares a factor with N={inst.N}")
    for r in range(1, r_max + 1):
        for bits in range(2**r):
            omega = SignWord.from_bits(r, bits)
            if all(
                decide_scaling_signed(
                    inst, t, omega, node_budget=node_budget, element_budget=element_budget
                ).verdict
                is Verdict.SPECTRUM
                for t in ts
            ):
                return omega
    return None
