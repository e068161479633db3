"""Vectorized numpy mask/Fourier kernel, in real arithmetic.

The transform of the measure is the infinite product of mask values
``prod_k m_D(M**-k * x)``; evaluating it over the large frequency batches of
the completeness probes is the one genuinely hot numeric loop in the package.
Each digit block of the mask is a Dirichlet kernel,
``e^(i pi (N-1) r) * sin(pi N r) / (N sin(pi r))`` with ``r`` the argument
reduced to ``[-1/2, 1/2]``, so a product of such factors is a signed real
amplitude times ``e^(i pi (N-1) * turns)``, where ``turns`` is the sum of
the reduced arguments.  The kernel returns those two real arrays; the
completeness functional needs only ``amp**2`` and never builds the phase.
The exact integer machinery elsewhere in the package never goes through here:
unbounded integers stay in Python, and all certificates stay exact.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def mask_factors(xs, scales, n_base: int) -> tuple[np.ndarray, np.ndarray]:
    """m_D at each x as (signed amplitude, summed reduced arguments) over the blocks.

    Each block amplitude is ``sin(pi N r) / (N sin(pi r))``: two sines and a
    divide whatever N is, and exactly 1 at ``r == 0``.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    amp = np.ones(xs.shape, dtype=np.float64)
    turns = np.zeros(xs.shape, dtype=np.float64)
    for scale in scales:
        w = xs * scale
        r = w - np.rint(w)
        num = np.sin(math.pi * n_base * r)
        den = n_base * np.sin(math.pi * r)
        amp *= np.divide(num, den, out=np.ones_like(r), where=r != 0.0)
        turns += r
    return amp, turns


def fourier_products(
    xs, scales, n_base: int, m_scale: float, max_digit: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated products prod_{k<=K} m_D(x / M**k) with per-x tail bound < tol.

    Returns the signed amplitude and the summed reduced arguments of the
    product; its value is ``amp * e^(i pi (n_base - 1) * turns)``.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    m_scale, max_digit, tol = float(m_scale), float(max_digit), float(tol)
    amp = np.ones(xs.shape, dtype=np.float64)
    turns = np.zeros(xs.shape, dtype=np.float64)
    tails = TWO_PI * max_digit * np.abs(xs) / (m_scale - 1.0)
    ys = xs.copy()
    active = tails >= tol
    while active.any():
        ys = np.where(active, ys / m_scale, ys)
        level_amp, level_turns = mask_factors(ys[active], scales, n_base)
        amp[active] *= level_amp
        turns[active] += level_turns
        tails = np.where(active, tails / m_scale, tails)
        active = tails >= tol
    return amp, turns
