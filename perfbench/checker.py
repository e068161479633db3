"""Per-response correctness checks, run between requests with the clock stopped.

The checker derives each instance's base ``M``, frequency digits ``L`` and
mask blocks itself, and decides zero-set membership from the mask's
factors (``mu_hat(xi) = prod_k m_D(xi / M**k)`` vanishes exactly when some
block factor does), not through ``speigen.measure``.  From the package it
uses only ``CycleWitness.verify``, ``shortcut_divisor``, the brute-force
``word_witness_search`` and the scalar ``fourier_value``, so each check
crosses a different code path from the one that produced the response.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import speigen

from perfbench.workloads import Instance, Request

# Largest number of words the brute-force oracle may enumerate per response.
WORD_BUDGET = 2000
# Q samples recomputed through the scalar transform: two below the top
# level on every validate response, and one at the top level on every
# eighth (a top-level truncation of M=54 has 729 terms, ~15 ms of scalar
# evaluation).
Q_TOP_RECHECK_EVERY = 8
Q_RECHECK_TOL = 1e-9
PROBE_TOL = 1e-9  # the CLI's default --tol


@dataclass(frozen=True)
class Model:
    """Independently derived digit sets of an instance."""

    N: int
    M: int
    block_exponents: tuple[int, ...]  # 0, p_1, ..., p_s: the mask's blocks
    L: tuple[int, ...]


@lru_cache(maxsize=None)
def model(inst: Instance) -> Model:
    p_all = (0, *inst.p)
    p_last = p_all[-1]
    B = [0]
    for e in (p_last - pj for pj in p_all):
        B = [x + d * inst.N**e for x in B for d in range(inst.N)]
    c = inst.R * inst.N ** (inst.q - p_last - 1)
    return Model(N=inst.N, M=inst.M, block_exponents=p_all, L=tuple(sorted(c * b for b in B)))


def in_zero_set(m: Model, xi: int) -> bool:
    """Whether the transform vanishes at the integer xi.

    The block factor ``(1/N) sum_{d<N} e(d N**e y)`` vanishes iff ``N**(e+1) y``
    is an integer and ``N**e y`` is not; with ``y = xi / M**k`` that needs
    ``M**k <= N**(e+1) |xi|``, which bounds k.
    """
    if xi == 0:
        return False
    top = m.N ** (m.block_exponents[-1] + 1) * abs(xi)
    power = m.M
    while power <= top:
        for e in m.block_exponents:
            if (m.N ** (e + 1) * xi) % power == 0 and (m.N**e * xi) % power != 0:
                return True
        power *= m.M
    return False


def truncation(m: Model, t: int, k: int, omega: Optional[tuple[int, ...]] = None) -> list[int]:
    """Level-k slice ``t * sum_{j<=k} w_j l_j M**(j-1)`` of the (signed) spectrum."""
    sums = [0]
    for j in range(k):
        sign = omega[j % len(omega)] if omega else 1
        step = sign * m.M**j
        sums = [x + step * l for x in sums for l in m.L]
    return sorted(t * x for x in sums)


def _oracle_length(digit_count: int) -> int:
    """Longest word length whose words, over all shorter lengths too, fit the budget."""
    length, total = 0, 0
    while total + digit_count ** (length + 1) <= WORD_BUDGET:
        length += 1
        total += digit_count**length
    return length


@lru_cache(maxsize=None)
def _package_instance(inst: Instance) -> speigen.ProblemInstance:
    return speigen.build_instance(inst.N, inst.R, inst.q, list(inst.p))


class Checker:
    """Checks responses and counts what the brute-force oracle covered."""

    def __init__(self):
        self.oracle_checked = 0
        self.validated = 0

    def check(self, req: Request, rc, stdout: str) -> list[str]:
        """Problems found in one response; empty when it is correct."""
        if rc != 0:
            return [f"exit code {rc!r}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        problems: list[str] = []
        try:
            self._check_report(req, report, problems)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems

    def _check_report(self, req: Request, report: dict, problems: list[str]) -> None:
        m = model(req.instance)
        if report["command"] != req.kind:
            problems.append(f"command {report['command']!r} != {req.kind!r}")
        inst = report["instance"]
        if inst["M"] != str(m.M) or inst["L"] != [str(l) for l in m.L]:
            problems.append("instance report disagrees with the derived M and L")
        if req.kind == "decide":
            self._check_decision(req, m, report["decision"], None, problems)
        elif req.kind == "signed":
            self._check_decision(req, m, report["decision"], req.omega, problems)
        elif req.kind == "type2":
            self._check_type2(req, report, problems)
        elif req.kind == "validate":
            self._check_validate(req, m, report, problems)
        else:
            problems.append(f"unknown request kind {req.kind!r}")

    def _check_decision(self, req, m: Model, d: dict, omega, problems: list[str]) -> None:
        t = int(req.t)
        if d["t"] != req.t:
            problems.append(f"decision t {d['t']!r} != requested {req.t!r}")
        if omega is not None and tuple(d.get("omega", ())) != omega:
            problems.append("decision omega differs from the request")
        verdict, reason = d["verdict"], d["reason"]
        shares = math.gcd(abs(t), m.N) != 1
        if (reason == "SharesFactorWithN") != shares:
            problems.append(f"reason {reason} but gcd(t, N) = {math.gcd(abs(t), m.N)}")
        if reason == "NoCycle":
            if verdict != "Spectrum" or "cycle" in d or "missing_frequency" in d:
                problems.append("NoCycle decision must be a Spectrum without cycle or missing frequency")
        elif reason == "CycleFound":
            if verdict != "NotSpectrum" or "cycle" not in d:
                problems.append("CycleFound decision must be NotSpectrum with a cycle")
            else:
                self._check_cycle(req, m, d, omega, problems)
        elif reason != "SharesFactorWithN":
            problems.append(f"unexpected reason {reason}")
        if omega is None and t >= 1:
            shortcut = speigen.shortcut_divisor(_package_instance(req.instance), t)
            if shortcut is not None and shortcut.value != verdict:
                problems.append(f"shortcut_divisor says {shortcut.value}, verdict is {verdict}")
        if verdict == "Spectrum" and reason == "NoCycle":
            self._oracle(m, t, omega, problems)

    def _check_cycle(self, req, m: Model, d: dict, omega, problems: list[str]) -> None:
        nodes = tuple(int(x) for x in d["cycle"]["nodes"])
        digits = tuple(int(x) for x in d["cycle"]["digits"])
        r = len(omega) if omega else 1
        try:
            witness = speigen.CycleWitness(nodes=nodes, digits=digits)
            verified = witness.verify(m.M**r)
        except ValueError as exc:
            problems.append(f"malformed cycle: {exc}")
            return
        if not verified:
            problems.append(f"cycle witness fails verify(M**{r})")
        if not set(digits) <= set(truncation(m, abs(int(req.t)), r, omega)):
            problems.append("cycle digit outside the digit set")
        if omega is None:
            if "missing_frequency" not in d:
                problems.append("unsigned CycleFound decision lacks its missing frequency")
                return
            freq = int(d["missing_frequency"])
            if freq != -nodes[0]:
                problems.append(f"missing frequency {freq} != -nodes[0] = {-nodes[0]}")
            level2 = truncation(m, int(req.t), 2)
            if not all(in_zero_set(m, freq - lam) for lam in level2):
                problems.append(f"missing frequency {freq} not orthogonal to the level-2 truncation")

    def _oracle(self, m: Model, t: int, omega, problems: list[str]) -> None:
        """A Spectrum verdict admits no witness word of any length."""
        r = len(omega) if omega else 1
        digits = truncation(m, abs(t), r, omega)
        length = _oracle_length(len(digits))
        if length == 0:
            return
        self.oracle_checked += 1
        found = speigen.word_witness_search(m.M**r, digits, length, word_budget=WORD_BUDGET)
        if found is not None:
            problems.append(f"Spectrum verdict but word witness {found} exists")

    def _check_type2(self, req, report: dict, problems: list[str]) -> None:
        t = Fraction(req.t)
        n = req.instance.N
        expected = math.gcd(abs(t.numerator), n) == 1 and math.gcd(t.denominator, n) == 1
        if report["t"] != str(t) or report["t1"] != str(t.numerator) or report["t2"] != str(t.denominator):
            problems.append("type2 t, t1 or t2 differ from the request")
        if report["is_second_type_eigenvalue"] is not expected:
            problems.append(f"type2 verdict {report['is_second_type_eigenvalue']} != gcd criterion {expected}")
        if expected and req.r_max is not None:
            word = report["sign_word"]
            if word is not None and (not 1 <= len(word) <= req.r_max or any(s not in (-1, 1) for s in word)):
                problems.append(f"sign word {word} is not a +-1 word of period <= {req.r_max}")

    def _check_validate(self, req, m: Model, report: dict, problems: list[str]) -> None:
        t = int(req.t)
        if report["t"] != req.t:
            problems.append("validate t differs from the request")
        decision = report["decision"]
        self._check_decision(req, m, decision, None, problems)
        if report["orthogonality"]["orthogonal"] is not True:
            problems.append("level-2 truncation reported not orthogonal")
        probe = report["probe"]
        if probe["violations"]:
            problems.append(f"probe violations: {probe['violations'][:2]}")
        samples = probe["q_samples"]
        if not samples:
            problems.append("no Q samples")
            return
        for s in samples:
            if not 0.0 <= s["q"] <= 1.0 + PROBE_TOL:
                problems.append(f"Q = {s['q']} outside [0, 1 + tol] at xi = {s['xi']}")
        top = max(s["level"] for s in samples)
        lower = [s for s in samples if s["level"] < top]
        picks = [lower[0], lower[-1]] if lower else []
        if self.validated % Q_TOP_RECHECK_EVERY == 0:
            picks.append(samples[-1])
        self.validated += 1
        for s in picks:
            q = self._scalar_q(req.instance, truncation(m, t, s["level"]), s["xi"])
            if abs(q - s["q"]) > Q_RECHECK_TOL:
                problems.append(f"Q_{s['level']}({s['xi']}) = {s['q']}, scalar path gives {q}")
        missing = decision.get("missing_frequency")
        check = probe.get("missing_frequency_check")
        if missing is not None and (check is None or check["d"] != missing or check["confirmed"] is not True):
            problems.append("probe did not confirm the missing frequency")

    def _scalar_q(self, instance: Instance, elements: list[int], xi: float) -> float:
        inst = _package_instance(instance)
        return sum(abs(speigen.fourier_value(inst, float(xi) - float(lam), tol=PROBE_TOL)) ** 2 for lam in elements)
