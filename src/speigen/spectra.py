"""Finite truncations of the model spectrum, its scalings and sign twists.

Level-k truncations enumerate ``t * sum_{j<=k} l_j w_j M**(j-1)`` over all
digit choices ``l_j in L``, where ``w`` is an optional periodic sign word
(all ones when absent).  Digit expansions in base M are unique, so every
truncation is the direct sum of the k scaled digit sets
``t * w_j * M**(j-1) * L`` and has exactly ``(#L)**k`` elements.

The levels nest by magnitude.  Every level-k element has
``|lambda| <= |t| (M - c)(M**k - 1)/(M - 1) < |t| M**k``, since
``max L <= M - c``.  An element whose highest nonzero digit sits at position
``J > k`` has ``|lambda| >= |t| ((c - 1) M**(J-1) + 1) > |t| M**k``, since
every nonzero digit is at least ``c >= 2``.  So level k is the open
magnitude window ``|lambda| < |t| M**k`` of any deeper truncation, for every
sign word and either sign of t (:func:`level_window`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, ZeroScaling
from .instance import DEFAULT_ELEMENT_BUDGET, ProblemInstance, direct_sum


@dataclass(frozen=True)
class SignWord:
    """Periodic word of signs; ``pattern`` repeats forever."""

    pattern: tuple[int, ...]

    def __post_init__(self):
        if len(self.pattern) < 1:
            raise ValueError("sign word needs period at least 1")
        if any(entry not in (-1, 1) for entry in self.pattern):
            raise ValueError("sign word entries must be -1 or +1")
        object.__setattr__(self, "pattern", tuple(self.pattern))

    @property
    def r(self) -> int:
        return len(self.pattern)

    def sign_at(self, j: int) -> int:
        """Sign at 1-based position j of the infinite word."""
        return self.pattern[(j - 1) % len(self.pattern)]

    @classmethod
    def from_bits(cls, r: int, bits: int) -> "SignWord":
        """Pattern number ``bits`` of period r: binary MSB-first, bit 1 -> -1."""
        if not 0 <= bits < 2**r:
            raise ValueError("bits out of range for period r")
        return cls(tuple(-1 if (bits >> (r - 1 - i)) & 1 else 1 for i in range(r)))

    @classmethod
    def parse(cls, text: str) -> "SignWord":
        return cls(tuple(int(tok) for tok in text.split(",") if tok.strip()))


@dataclass(frozen=True)
class SpectrumTruncation:
    t: int
    omega: Optional[SignWord]
    level: int
    elements: tuple[int, ...]


def spectrum_level(
    inst: ProblemInstance,
    t: int,
    k: int,
    omega: Optional[SignWord] = None,
) -> SpectrumTruncation:
    """Exact level-k slice of the (optionally sign-twisted) scaled spectrum."""
    if t == 0:
        raise ZeroScaling("scaling t must be nonzero")
    if k < 1:
        raise ValueError("level k must be at least 1")
    # Counted before the k scaled digit lists are built, which a large k would make huge.
    expected = len(inst.L) ** k
    if expected > DEFAULT_ELEMENT_BUDGET:
        raise BudgetExceeded("spectrum truncation elements", expected, DEFAULT_ELEMENT_BUDGET)
    scaled = ([(omega.sign_at(j) if omega else 1) * t * inst.M ** (j - 1) * l for l in inst.L] for j in range(1, k + 1))
    elements = direct_sum(*scaled)
    return SpectrumTruncation(t=t, omega=omega, level=k, elements=elements)


def level_window(inst: ProblemInstance, trunc: SpectrumTruncation, k: int) -> slice:
    """Positions of the level-k elements in a truncation of level at least k.

    They are the sorted elements strictly between ``-|t| M**k`` and
    ``|t| M**k``; a window that does not hold ``(#L)**k`` of them is refused.
    """
    bound = abs(trunc.t) * inst.M**k
    start, stop = bisect_right(trunc.elements, -bound), bisect_left(trunc.elements, bound)
    if stop - start != len(inst.L) ** k:
        raise ValueError(f"the level-{k} window holds {stop - start} elements, not {len(inst.L) ** k}: levels not nested")
    return slice(start, stop)
