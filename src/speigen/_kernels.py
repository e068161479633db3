"""Vectorized numpy mask/Fourier kernels.

The transform of the measure is the infinite product of mask values
``prod_k m_D(M**-k * x)``; evaluating it over the large frequency batches of
the completeness probes is the one genuinely hot numeric loop in the package.
The exact integer machinery elsewhere in the package never goes through here:
unbounded integers stay in Python, and all certificates stay exact.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def mask_values(xs, scales, n_base: int) -> np.ndarray:
    """m_D at each x, as the product of per-block geometric digit sums."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    out = np.ones(xs.shape, dtype=np.complex128)
    for scale in scales:
        w = xs * scale
        r = w - np.rint(w)
        zero = r == 0.0
        safe = np.where(zero, 0.25, r)
        num = np.sin(math.pi * n_base * safe)
        den = n_base * np.sin(math.pi * safe)
        phase = math.pi * (n_base - 1) * safe
        val = (np.cos(phase) + 1j * np.sin(phase)) * (num / den)
        out *= np.where(zero, 1.0 + 0.0j, val)
    return out


def fourier_products(xs, scales, n_base: int, m_scale: float, max_digit: float, tol: float) -> np.ndarray:
    """Truncated products prod_{k<=K} m_D(x / M**k) with per-x tail bound < tol."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    m_scale, max_digit, tol = float(m_scale), float(max_digit), float(tol)
    out = np.ones(xs.shape, dtype=np.complex128)
    tails = TWO_PI * max_digit * np.abs(xs) / (m_scale - 1.0)
    ys = xs.copy()
    active = tails >= tol
    while active.any():
        ys = np.where(active, ys / m_scale, ys)
        factors = mask_values(ys[active], scales, n_base)
        out[active] *= factors
        tails = np.where(active, tails / m_scale, tails)
        active = tails >= tol
    return out
