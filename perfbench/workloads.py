"""Seeded request generators for the three benchmark workloads.

Every request is one ``speigen`` CLI invocation with ``--json``.  The
generators are pure: they import nothing from the package under test, and
the same ``(workload, seed)`` pair always yields the same request stream.

Continuous draws (the scaling ``t``) come from a randomly shifted golden
ratio sequence per instance rather than from independent samples.  Each
draw is still log-uniform over its range, but every prefix of the stream
covers the range evenly, so two runs with different seeds do nearly the
same amount of work in the same time.  With independent draws the work in
a run of ``decide-large-t`` would depend on how many draws land near
``t = 10**6``, where one request costs as much as a hundred near ``10**3``.
Discrete choices (instance, request kind) are dealt in fixed rounds for the
same reason.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Instance:
    """Parameters of one problem instance, with its base ``M = R * N**q``."""

    N: int
    R: int
    q: int
    p: tuple[int, ...]

    @property
    def M(self) -> int:
        return self.R * self.N**self.q

    def flags(self) -> list[str]:
        return ["--N", str(self.N), "--R", str(self.R), "--q", str(self.q), "--p", ",".join(map(str, self.p))]


M12 = Instance(2, 3, 2, (1,))
M48 = Instance(2, 3, 4, (3,))
M54 = Instance(3, 2, 3, (1,))
M120 = Instance(2, 15, 3, (1, 2))
INSTANCES = (M12, M48, M54, M120)


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv plus the inputs the checker needs."""

    kind: str  # decide | validate | type2 | signed
    instance: Instance
    t: str
    omega: Optional[tuple[int, ...]] = None
    r_max: Optional[int] = None

    @property
    def argv(self) -> list[str]:
        argv = [self.kind, *self.instance.flags(), "--t", self.t]
        if self.omega is not None:
            # The "=" form is required: "--omega -1,1" makes argparse read
            # "-1,1" as an option and exit 2.
            argv.append("--omega=" + ",".join(map(str, self.omega)))
        if self.r_max is not None:
            argv += ["--r-max", str(self.r_max)]
        argv.append("--json")
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decide-large-t",
            "decide at t log-uniform in [1e2, 1e6]: integer_points scans O(t) candidates and takes ~96% of the time",
            ("decide",),
        ),
        Workload(
            "validate-probe",
            "validate at t < 1e3: ~75 small Fourier kernel calls per request take ~77%, integer_points ~1%",
            ("validate",),
        ),
        Workload(
            "sign-words",
            "type2 sign-word searches and signed decisions: 64-6561 block digits over short candidate intervals",
            ("type2", "signed"),
        ),
    )
}


def _coprime_up(t: int, n: int) -> int:
    while math.gcd(t, n) != 1:
        t += 1
    return t


def _coprime_down(t: int, n: int) -> int:
    while math.gcd(t, n) != 1:
        t -= 1
    return t


def _small_coprime(n: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, 8) if math.gcd(a, n) == 1)


def _weyl(rng: random.Random) -> Iterator[float]:
    u = rng.random()
    while True:
        yield u
        u = (u + GOLDEN) % 1.0


def _rounds(rng: random.Random, round_: tuple[Instance, ...], make) -> Iterator[Request]:
    """Rounds of the given instances in a seeded order, ``t`` from each instance's sequence."""
    order = list(round_)
    rng.shuffle(order)
    draws = {inst: _weyl(rng) for inst in INSTANCES}
    while True:
        for inst in order:
            yield make(inst, next(draws[inst]))


def _decide_large_t(rng: random.Random) -> Iterator[Request]:
    def make(inst: Instance, u: float) -> Request:
        t = _coprime_up(int(10 ** (2.0 + 4.0 * u)), inst.N)
        return Request("decide", inst, str(t))

    # The first round sits at the top of the range.  The largest request of
    # a run sets peak_rss_mb, so every seed then reaches the same peak.
    for inst in INSTANCES:
        yield Request("decide", inst, str(_coprime_down(10**6, inst.N)))
    yield from _rounds(rng, INSTANCES, make)


def _validate_probe(rng: random.Random) -> Iterator[Request]:
    def make(inst: Instance, u: float) -> Request:
        t = _coprime_down(max(1, int(10 ** (3.0 * u))), inst.N)
        return Request("validate", inst, str(t))

    # validate latency clusters by instance (M=48 fastest, M=54 and M=120
    # slowest).  With four equal shares the median would sit in the gap
    # between two clusters and jump between them from run to run; a double
    # share of M=54 puts it inside one cluster.
    return _rounds(rng, (M12, M48, M54, M54, M120), make)


# One round of sign-words: two type2 searches per instance, and signed
# decisions weighted 3:3:1:1 toward the instances with the most block digits.
_SIGN_ROUND = tuple(("type2", inst) for inst in INSTANCES for _ in range(2)) + tuple(
    ("signed", inst) for inst in (M12, M48, M54, M54, M54, M120, M120, M120)
)


def _sign_words(rng: random.Random) -> Iterator[Request]:
    while True:
        templates = list(_SIGN_ROUND)
        rng.shuffle(templates)
        for kind, inst in templates:
            small = _small_coprime(inst.N)
            if kind == "type2":
                # (M-1) * a/b in lowest terms: the unsigned scaling by M-1 is
                # never a spectrum, so a real sign-word search runs.
                while True:
                    a, b = rng.choice(small), rng.choice(small)
                    if math.gcd(a, b) == 1:
                        break
                yield Request("type2", inst, str(Fraction((inst.M - 1) * a, b)), r_max=4)
            else:
                r = rng.choice((3, 4))
                bits = rng.randrange(2**r)
                omega = tuple(-1 if (bits >> (r - 1 - i)) & 1 else 1 for i in range(r))
                if rng.random() < 0.5:
                    t = (inst.M - 1) * rng.choice(small)
                else:
                    t = _coprime_down(max(1, int(10 ** (3.0 * rng.random()))), inst.N)
                yield Request("signed", inst, str(t), omega=omega)


_GENERATORS = {
    "decide-large-t": _decide_large_t,
    "validate-probe": _validate_probe,
    "sign-words": _sign_words,
}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The infinite, deterministic request stream of a workload for a seed."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def warm_up_requests(workload: str) -> list[Request]:
    """Small requests of each kind the workload sends, one per instance.

    They fill the package's caches and lazy imports before timing starts and
    are part of the measured set-up.
    """
    out = []
    for inst in INSTANCES:
        for kind in WORKLOADS[workload].kinds:
            if kind == "type2":
                out.append(Request(kind, inst, str(inst.M - 1), r_max=2))
            elif kind == "signed":
                out.append(Request(kind, inst, str(inst.M - 1), omega=(1, -1, 1)))
            else:
                out.append(Request(kind, inst, str(inst.M - 1)))
    return out
