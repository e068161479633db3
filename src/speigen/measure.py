"""Mask polynomial, Fourier transform, exact zero set and the Hadamard condition.

The measure attached to an instance is the infinite convolution of uniform
digit measures ``M**-k * D``; its transform is ``prod_k m_D(M**-k * xi)``
where ``m_D`` is the normalized exponential sum over ``D``.  Orthogonality
arguments never go through floats: membership in the zero set of the
transform is decided exactly on rationals, and the numeric routines here are
corroboration only.

The transform is evaluated two ways.  The batched :func:`fourier_values` /
:func:`fourier_power` hand :mod:`._kernels` one Dirichlet block per maximal
run of consecutive exponents in ``(0, *p)`` (:func:`_digit_runs`), since such
a run of blocks is one interval of digits.  The scalar :func:`fourier_value`
keeps one block per exponent, so checking one against the other compares
two decompositions of ``D``, not one code path with itself.  numpy is
imported by the batched functions when they run, never when this module
loads, so the exact predicates here start without it.

Nothing is cached per instance: each helper computes its answer on every
call, in microseconds, where a lookup keyed by the instance would hash all
of its digit tuples and keep them alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroScaling
from .instance import ProblemInstance

_FLOAT_EXACT_LIMIT = 2**53


def _float_exact(n: int, what: str) -> float:
    if abs(n) > _FLOAT_EXACT_LIMIT:
        raise ValueError(f"{what} = {n} exceeds exact float64 range (2**53)")
    return float(n)


def _numeric_params(inst: ProblemInstance) -> tuple[int, tuple[float, ...], float, float]:
    """(N, block scales N**p_j, float M, float max(D)) for the numeric kernels.

    The scales are Python floats: the scalar loop of :func:`fourier_value`
    multiplies by them block by block, and numpy scalars would triple its cost.
    """
    scales = tuple(_float_exact(inst.N**pj, "digit block scale N**p_j") for pj in (0, *inst.p))
    return inst.N, scales, _float_exact(inst.M, "M"), _float_exact(inst.D[-1], "max(D)")


def _digit_runs(inst: ProblemInstance) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(scales N**a, digit counts N**l) of the maximal runs a..a+l-1 of consecutive exponents in (0, *p).

    Each run's blocks sum to the interval ``N**a * {0..N**l - 1}``, one
    Dirichlet kernel in :mod:`._kernels`.  Both numbers are exact in float64
    once :func:`_numeric_params` has passed: ``N**l - 1 <= max(D) <= 2**53``.
    """
    runs: list[list[int]] = []
    for pj in (0, *inst.p):
        if runs and runs[-1][0] + runs[-1][1] == pj:
            runs[-1][1] += 1
        else:
            runs.append([pj, 1])
    return tuple(float(inst.N**a) for a, _ in runs), tuple(float(inst.N**length) for _, length in runs)


def _digit_factor(y: float, n_base: int) -> complex:
    # One block of the mask: (1/N) * sum_{d<N} e^(2 pi i d y), via the
    # Dirichlet kernel form; the sum is 1-periodic so y is reduced first.
    r = y - round(y)
    if r == 0.0:
        return 1.0 + 0.0j
    num = math.sin(math.pi * n_base * r)
    den = n_base * math.sin(math.pi * r)
    phase = math.pi * (n_base - 1) * r
    return complex(math.cos(phase), math.sin(phase)) * (num / den)


def fourier_value(inst: ProblemInstance, xi: float, tol: float = 1e-12) -> complex:
    """Transform of the measure at xi, truncated once the tail bound drops below tol.

    The factor at level k differs from 1 by at most ``2 pi max(D) |xi| M**-k``,
    so the product over the discarded levels differs from 1 by at most
    ``tol * e``; the returned value carries that absolute error guarantee.
    """
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    n_base, scales, m_scale, max_digit = _numeric_params(inst)
    x = float(xi)
    if not math.isfinite(x):  # at inf the tail bound never drops below tol; nan skips every level
        raise ValueError(f"frequency must be finite, not {x}")
    tail = 2.0 * math.pi * max_digit * abs(x) / (m_scale - 1.0)
    acc = 1.0 + 0.0j
    y = x
    while tail >= tol:
        y /= m_scale
        for scale in scales:
            acc *= _digit_factor(y * scale, n_base)
        tail /= m_scale
    return acc


def _fourier_products(inst: ProblemInstance, xs, tol: float) -> tuple[np.ndarray, np.ndarray]:
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    import numpy as np

    from . import _kernels

    _, _, m_scale, max_digit = _numeric_params(inst)
    scales, counts = _digit_runs(inst)
    xs = np.asarray(xs, dtype=np.float64)
    if not np.isfinite(xs).all():  # at inf the tail bound never drops below tol; nan skips every level
        raise ValueError("frequencies must be finite")
    return _kernels.fourier_products(xs, scales, counts, m_scale, max_digit, tol)


def fourier_values(inst: ProblemInstance, xs, tol: float = 1e-12) -> np.ndarray:
    """Vectorized :func:`fourier_value` over a batch of frequencies."""
    import numpy as np

    amp, phase = _fourier_products(inst, xs, tol)
    return amp * np.exp(1j * math.pi * phase)


def fourier_power(inst: ProblemInstance, xs, tol: float = 1e-12) -> np.ndarray:
    """``|fourier_value|**2`` over a batch of frequencies, without the phase.

    Carries the truncation guarantee of :func:`fourier_value`; the squared
    modulus is the square of the kernel's real amplitude.
    """
    amp, _ = _fourier_products(inst, xs, tol)
    return amp * amp


# --------------------------------------------------------------------------
# Exact zero-set membership
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSetWitness:
    """Decomposition xi = c * M**k * N**e * l with N not dividing l.

    ``j`` indexes the block exponent ``e = p_s - p_j`` in
    ``ProblemInstance.exponents``; the decomposition is unique because the
    exponents are distinct residues below q and gcd(R, N) = 1.
    """

    k: int
    j: int
    l: int


def nadic_split(n: int, base: int) -> tuple[int, int]:
    """Largest v with base**v dividing n, plus the cofactor n // base**v (n != 0)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % base == 0:
        n //= base
        v += 1
    return v, n


def _exact_ratio(xi, c: int) -> int | None:
    """xi / c when that is an integer, else None; floats are rejected."""
    if isinstance(xi, bool):
        raise TypeError("frequency must be an exact integer or Fraction")
    if isinstance(xi, int):
        return xi // c if xi % c == 0 else None
    if isinstance(xi, Fraction):
        ratio = xi / c
        return int(ratio) if ratio.denominator == 1 else None
    raise TypeError(f"frequency must be an exact integer or Fraction, not {type(xi).__name__}")


def zero_set_decompose(inst: ProblemInstance, xi) -> ZeroSetWitness | None:
    """Exact witness that xi lies in the zero set of the transform, or None.

    The zero set is ``c * union_k M**k { N**(p_s - p_j) * l : N does not
    divide l }``.  Given ``zeta = xi / c`` (must be a nonzero integer), its
    N-adic valuation v pins the only admissible block exponent ``e = v mod q``
    and level ``k = (v - e) / q``; membership then reduces to ``R**k``
    dividing the N-free part of zeta.
    """
    zeta = _exact_ratio(xi, inst.c)
    if not zeta:
        return None
    sign = 1 if zeta > 0 else -1
    v, unit = nadic_split(abs(zeta), inst.N)
    e_target = v % inst.q
    try:
        j = inst.exponents.index(e_target)
    except ValueError:
        return None
    k = (v - e_target) // inst.q
    r_power = inst.R**k
    if unit % r_power:
        return None
    return ZeroSetWitness(k=k, j=j, l=sign * (unit // r_power))


def zero_set_contains(inst: ProblemInstance, xi) -> bool:
    """Exact membership of the rational xi in the zero set of the transform."""
    return zero_set_decompose(inst, xi) is not None


# --------------------------------------------------------------------------
# Hadamard pair checks
# --------------------------------------------------------------------------

def hadamard_check_exact(inst: ProblemInstance, t: int) -> bool:
    """Exact compatibility of the scaled frequency digits t*L with M**-1 * D: ``gcd(|t|, N) == 1``.

    Every pairwise difference of distinct elements of ``t*L`` equals
    ``c * t * (b - b')`` for distinct companion digits; it lies in the level-0
    slice of the zero set exactly when the N-adic valuation of ``t*(b - b')``
    is one of the block exponents ``e = p_s - p_j``.  That holds for every
    pair exactly when t is coprime to N:

    * Two distinct companion digits first differ, from the lowest block up,
      in some block e, by ``0 < |d - d'| < N``; so ``v_N(b - b') = e``, an
      allowed exponent.  When t is coprime to N, N does not divide
      ``t * (d - d')``, so ``v_N(t * (b - b')) = e`` and the pair passes.
    * When ``g = gcd(t, N) > 1``, take two digits that differ by ``N / g``
      in the top block ``e = p_s`` and nowhere else.  Then
      ``t * (b - b') = N**(p_s + 1) * (t / g)``, whose valuation exceeds
      every exponent, so the pair fails.

    When the check holds, every level of ``t * Lambda_omega`` is orthogonal,
    whatever the sign word: two distinct elements first differ at some level
    k, so their difference is ``c * M**k * (+-t * (b - b') + M * Y)`` for an
    integer Y.  The first term has valuation e below q, and ``M * Y`` at
    least q, so the difference is ``c * M**k * N**e * u`` with N not
    dividing u, a zero of the transform at level k.  ``validate`` answers
    from this lemma at such t and enumerates the pairs only at the others.
    """
    if t == 0:
        raise ZeroScaling("scaling t must be nonzero")
    return math.gcd(abs(t), inst.N) == 1
