"""Independent validation of decisions: exact orthogonality and Q probes.

The exact side checks that all pairwise differences of a candidate
orthogonal set lie in the zero set of the transform.  The numeric side
evaluates the completeness functional ``Q(xi) = sum_l |mu_hat(xi - l)|**2``
over nested truncations: for an orthonormal family it is nondecreasing in
the truncation level and bounded by 1 (Bessel), and it tends to 1 exactly
when the family is complete.  The probe is handed one truncation and reads
every lower level as a magnitude window of it
(:func:`~speigen.spectra.level_window`), so no level is enumerated again.
Q needs only the modulus of the transform, so both the probe and
:func:`q_function` read :func:`~speigen.measure.fourier_power`, the squared
real amplitude of the kernel, and never build its phase.  Q is
corroboration only; certification always comes from the exact criteria, and
numpy is imported by the Q functions when they run, not when this module
loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .eigen import EigenDecision
from .instance import ProblemInstance
from .measure import fourier_power, zero_set_contains
from .measure import fourier_values  # noqa: F401  (bound here for perfbench/tracing.py's patch table)
from .spectra import SpectrumTruncation, level_window
from .spectra import spectrum_level  # noqa: F401  (bound here for perfbench/tracing.py's patch table)

DEFAULT_GRID_SIZE = 25
PROBE_BATCH = 4096  # frequencies per fourier_power call in completeness_probe
MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    orthogonal: bool
    failing_pair: Optional[tuple[int, int]] = None
    q_samples: tuple[tuple[float, int, float], ...] = ()  # (xi, level, Q_level(xi))
    missing_frequency_check: Optional[tuple[int, bool]] = None
    violations: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out: dict = {"orthogonal": self.orthogonal}
        if self.failing_pair is not None:
            out["failing_pair"] = [str(x) for x in self.failing_pair]
        out["q_samples"] = [
            {"xi": xi, "level": level, "q": value} for xi, level, value in self.q_samples
        ]
        if self.missing_frequency_check is not None:
            d, confirmed = self.missing_frequency_check
            out["missing_frequency_check"] = {"d": str(d), "confirmed": confirmed}
        out["violations"] = list(self.violations)
        return out


def check_orthogonal_set(inst: ProblemInstance, elements: Sequence[int]) -> ValidationReport:
    """Exact pairwise orthogonality of the exponentials at the given frequencies.

    Distinct difference values are tested once; on failure the first failing
    pair in ascending (smaller, larger) order is reported.
    """
    ordered = sorted(elements)
    if len(set(ordered)) != len(ordered):
        raise ValueError("elements must be duplicate-free")
    diffs = {b - a for i, a in enumerate(ordered) for b in ordered[i + 1 :]}
    bad = {d for d in diffs if not zero_set_contains(inst, d)}
    if not bad:
        return ValidationReport(orthogonal=True)
    pair = next((a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :] if b - a in bad)
    return ValidationReport(orthogonal=False, failing_pair=pair)


def q_function(inst: ProblemInstance, elements: Sequence[int], xi: float, tol: float = 1e-9) -> float:
    """Completeness functional over a finite frequency list at the point xi."""
    import numpy as np

    xs = np.array([float(xi) - float(lam) for lam in elements], dtype=np.float64)
    return float(np.sum(fourier_power(inst, xs, tol=tol)))


def completeness_probe(
    inst: ProblemInstance,
    trunc: SpectrumTruncation,
    grid: Sequence[float],
    tol: float = 1e-9,
    decision: Optional[EigenDecision] = None,
) -> ValidationReport:
    """Q over all levels up to the truncation's, at every grid point.

    Records monotonicity or Bessel violations instead of raising.  When the
    associated decision carries a missing frequency, its Q is additionally
    confirmed to vanish exactly, term by term, through zero-set membership.

    Level k is the window :func:`~speigen.spectra.level_window` of the
    sorted ``trunc.elements``, as it is for every :func:`spectrum_level`
    truncation; a window that does not hold ``(#L)**k`` elements raises
    ``ValueError``.  The transform is evaluated once, at ``xi - lambda``
    for every grid point and element of the truncation, in calls of at most
    :data:`PROBE_BATCH` frequencies (one grid row at least), and each
    ``Q_k(xi)`` sums the level-k window of that row, the elements in the
    order :func:`q_function` sums them.  One ``sum(axis=1)`` per level and
    call sums every row's window; a row is contiguous, so numpy sums it
    pairwise exactly as it sums the one array of :func:`q_function`.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    import numpy as np

    windows = {k: level_window(inst, trunc, k) for k in range(1, trunc.level + 1)}
    lams = np.array([float(lam) for lam in trunc.elements], dtype=np.float64)
    rows = max(1, PROBE_BATCH // len(lams))
    samples: list[tuple[float, int, float]] = []
    violations: list[str] = []
    for start in range(0, len(grid), rows):
        chunk = grid[start : start + rows]
        xs = np.array([float(xi) for xi in chunk], dtype=np.float64)[:, None] - lams
        power = fourier_power(inst, xs.ravel(), tol=tol).reshape(xs.shape)
        sums = [(k, power[:, window].sum(axis=1).tolist()) for k, window in windows.items()]
        for i, xi in enumerate(chunk):
            previous = None
            for k, column in sums:
                value = column[i]
                samples.append((float(xi), k, value))
                if value > 1.0 + tol:
                    violations.append(f"Q_{k}({xi}) = {value} exceeds Bessel bound 1 + {tol}")
                if previous is not None and value < previous - MONOTONE_SLACK:
                    violations.append(f"Q_{k}({xi}) = {value} decreased below Q_{k - 1}({xi}) = {previous}")
                previous = value

    missing_check = None
    if decision is not None and decision.missing_frequency is not None:
        d = decision.missing_frequency
        confirmed = all(zero_set_contains(inst, d - lam) for lam in trunc.elements)
        missing_check = (d, confirmed)
        if not confirmed:
            violations.append(f"missing frequency {d} fails exact orthogonality against the truncation")

    return ValidationReport(
        orthogonal=True,
        q_samples=tuple(samples),
        missing_frequency_check=missing_check,
        violations=tuple(violations),
    )


def default_grid(decision: Optional[EigenDecision] = None) -> list[float]:
    """Equispaced points in [0, 1), plus the missing frequency when present."""
    grid = [i / DEFAULT_GRID_SIZE for i in range(DEFAULT_GRID_SIZE)]
    if decision is not None and decision.missing_frequency is not None:
        grid.append(float(decision.missing_frequency))
    return grid
