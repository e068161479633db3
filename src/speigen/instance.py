"""Validated problem instances and their derived digit sets.

An instance is determined by four parameters: a base digit count ``N >= 2``,
a cofactor ``R >= 2`` coprime to ``N``, an exponent ``q >= 1`` and a strictly
increasing list ``p = (p_1, ..., p_s)`` with ``0 < p_1`` and ``p_s < q``.
From these the constructor derives

* the contraction base ``M = R * N**q``,
* the product-form digit set ``D = sum_j N**p_j * {0..N-1}`` (with ``p_0 = 0``),
* the companion digit set ``B = sum_j N**(p_s - p_j) * {0..N-1}``,
* the scale ``c = R * N**(q - p_s - 1)`` and the frequency digits ``L = c * B``.

The empty list ``p = ()`` is accepted as the single-block extension
(``s = 0``, ``p_s`` read as 0); every derived formula degenerates
consistently.  All digit lists are stored sorted ascending so every
downstream search is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidParameters

DEFAULT_ELEMENT_BUDGET = 10**6  # the most sums one direct_sum may list: a digit set or a spectrum truncation


@dataclass(frozen=True)
class ProblemInstance:
    N: int
    R: int
    q: int
    p: tuple[int, ...]
    M: int
    D: tuple[int, ...]
    B: tuple[int, ...]
    L: tuple[int, ...]
    c: int
    exponents: tuple[int, ...]  # p_s - p_j for j = 0..s, strictly decreasing to 0

    @property
    def s(self) -> int:
        return len(self.p)

    @property
    def p_last(self) -> int:
        return self.p[-1] if self.p else 0

    def to_descriptor(self) -> dict:
        """JSON-safe descriptor; unbounded integers go out as decimal strings."""
        return {
            "N": str(self.N),
            "R": str(self.R),
            "q": self.q,
            "p": list(self.p),
        }

    def describe(self) -> str:
        return f"N={self.N} R={self.R} q={self.q} p={list(self.p)}"


def _check_int(value, name: str, reasons: list) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        reasons.append((f"{name}_type", f"{name} must be an integer"))
        return None
    return value


def build_instance(
    N: int,
    R: int,
    q: int,
    p: Sequence[int] | Iterable[int] = (),
) -> ProblemInstance:
    """Validate parameters, derive every digit set and return the instance.

    Raises :class:`InvalidParameters` carrying one reason code per violated
    constraint; the derivation itself is deterministic.
    """
    reasons: list[tuple[str, str]] = []
    N = _check_int(N, "N", reasons)
    R = _check_int(R, "R", reasons)
    q = _check_int(q, "q", reasons)
    p_list = list(p)
    for entry in p_list:
        if isinstance(entry, bool) or not isinstance(entry, int):
            reasons.append(("p_type", "p entries must be integers"))
            break
    if reasons:
        raise InvalidParameters(reasons)

    if N < 2:
        reasons.append(("N<2", "N must be at least 2"))
    if R < 2:
        reasons.append(("R<2", "R must be at least 2"))
    if q < 1:
        reasons.append(("q<1", "q must be at least 1"))
    if N >= 2 and R >= 2 and math.gcd(R, N) != 1:
        reasons.append(("gcd", "gcd(R,N) must be 1"))
    if any(a >= b for a, b in zip(p_list, p_list[1:])):
        reasons.append(("p_order", "p must be strictly increasing"))
    if p_list and p_list[0] <= 0:
        reasons.append(("p_first", "p entries must be positive (p_1 > 0)"))
    if p_list and q >= 1 and p_list[-1] >= q:
        reasons.append(("p_last", "largest p must be smaller than q"))
    if reasons:
        raise InvalidParameters(reasons)

    s = len(p_list)
    if N >= 2 and N ** (s + 1) > DEFAULT_ELEMENT_BUDGET:
        raise InvalidParameters(
            [("digit_budget", f"digit set size N^(s+1) = {N ** (s + 1)} exceeds budget {DEFAULT_ELEMENT_BUDGET}")]
        )

    p_all = (0, *p_list)
    p_last = p_all[-1]
    exponents = tuple(p_last - pj for pj in p_all)

    D = direct_sum(*[range(0, N ** (e + 1), N**e) for e in p_all])  # the blocks N**e * {0..N-1}
    B = direct_sum(*[range(0, N ** (e + 1), N**e) for e in exponents])
    c = R * N ** (q - p_last - 1)
    L = tuple(c * b for b in B)
    M = R * N**q

    inst = ProblemInstance(N=N, R=R, q=q, p=tuple(p_list), M=M, D=D, B=B, L=L, c=c, exponents=exponents)
    _check_derived(inst)
    return inst


def direct_sum(*sets: Iterable[int]) -> tuple[int, ...]:
    """The sorted sums of one element from each set, which must all differ.

    Raises ``ValueError`` when two choices give the same sum, that is when
    the sum is not direct.
    """
    sums = [0]
    for elements in sets:
        sums = [x + y for x in sums for y in elements]
    if len(set(sums)) != len(sums):
        raise ValueError("the sum is not direct: two choices give the same sum")
    return tuple(sorted(sums))


def _check_derived(inst: ProblemInstance) -> None:
    # Cheap structural invariants; anything failing here is an internal bug.
    size = inst.N ** (inst.s + 1)
    assert len(inst.D) == len(inst.B) == len(inst.L) == size
    assert inst.D[0] == 0 and inst.L[0] == 0 and 1 in inst.D
    assert inst.D[-1] < inst.N ** (inst.p_last + 1) <= inst.N**inst.q <= inst.M
    assert inst.L[-1] < inst.M
    assert inst.c * inst.N ** (inst.p_last + 1) == inst.M
    assert all(l == inst.c * b for l, b in zip(inst.L, inst.B))


def _coerce_integer(value, name: str) -> int:
    if isinstance(value, bool):
        raise InvalidParameters([(f"{name}_type", f"{name} must be an integer")])
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InvalidParameters([(f"{name}_parse", f"{name} is not a decimal integer: {value!r}")]) from None
    raise InvalidParameters([(f"{name}_type", f"{name} must be an integer or decimal string")])


def from_descriptor(descriptor: dict) -> ProblemInstance:
    """Build an instance from a parsed descriptor ``{"N":..,"R":..,"q":..,"p":[..]}``.

    The descriptor is a dict, as ``json.loads`` or a config file gives it;
    anything else is refused with reason ``descriptor``.  Integers may be
    given natively or as decimal strings (the wire form used for anything
    that may exceed 64 bits).
    """
    if not isinstance(descriptor, dict):
        raise InvalidParameters([("descriptor", "instance descriptor must be a JSON object")])
    missing = [key for key in ("N", "R", "q") if key not in descriptor]
    if missing:
        raise InvalidParameters([("descriptor", f"instance descriptor missing keys: {', '.join(missing)}")])
    N = _coerce_integer(descriptor["N"], "N")
    R = _coerce_integer(descriptor["R"], "R")
    q = _coerce_integer(descriptor["q"], "q")
    raw_p = descriptor.get("p", [])
    if not isinstance(raw_p, (list, tuple)):
        raise InvalidParameters([("p_type", "p must be a list of integers")])
    p = [_coerce_integer(entry, "p") for entry in raw_p]
    return build_instance(N, R, q, p)
