"""Vectorized numpy mask/Fourier kernel, in real arithmetic.

The transform of the measure is the infinite product of mask values
``prod_k m_D(M**-k * x)``; evaluating it over the large frequency batches of
the completeness probes is the one genuinely hot numeric loop in the package.
The digit set is a direct sum of blocks ``N**p_j * {0..N-1}``, and a run of
consecutive exponents ``a, a+1, ..., a+l-1`` sums to the single interval
``N**a * {0..n-1}`` with ``n = N**l``.  The kernel takes one block per such
run, as its scale ``N**a`` and digit count ``n``.  Each block is a Dirichlet
kernel, ``e^(i pi (n-1) r) * sin(pi n r) / (n sin(pi r))`` with ``r`` the
scaled argument reduced to ``[-1/2, 1/2]``, so a product of blocks is a
signed real amplitude times ``e^(i pi * phase)``, where ``phase`` is the sum
of the ``(n - 1) r``.  The kernel returns those two real arrays; the
completeness functional needs only ``amp**2`` and never builds the phase.
The exact integer machinery elsewhere in the package never goes through here:
unbounded integers stay in Python, and all certificates stay exact.  This is
the one module of the package that imports numpy when it loads; the batched
transform and the Q probes import it when they run, so the exact commands
never load it.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def mask_factors(xs, scales, counts) -> tuple[np.ndarray, np.ndarray]:
    """m_D at each x as (signed amplitude, phase) over the digit blocks.

    Block j is the interval ``scales[j] * {0..counts[j]-1}``; ``counts``
    broadcasts against ``scales``, so one count serves every block.  A block
    of ``n`` digits has amplitude ``sin(pi n r) / (n sin(pi r))`` (two sines
    and a divide whatever ``n`` is, and exactly 1 at ``r == 0``) and phase
    ``(n - 1) r``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    amp = np.ones(xs.shape, dtype=np.float64)
    phase = np.zeros(xs.shape, dtype=np.float64)
    for scale, n in np.broadcast(scales, counts):
        scale, n = float(scale), float(n)
        r = xs * scale
        r -= np.rint(r)
        num = np.sin(math.pi * n * r)
        den = np.sin(math.pi * r)
        den *= n
        amp *= np.divide(num, den, out=np.ones_like(r), where=r != 0.0)
        r *= n - 1.0
        phase += r
    return amp, phase


def fourier_products(
    xs, scales, counts, m_scale: float, max_digit: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated products prod_{k<=K} m_D(x / M**k) with per-x tail bound < tol.

    Returns the signed amplitude and the summed phase of the product; its
    value is ``amp * e^(i pi * phase)``.  The frequencies are sorted once by
    tail bound, largest first, so the ones still above ``tol`` at each level
    are a prefix; one scatter restores the input order.  Every operation is
    elementwise, so a frequency's value does not depend on its batch.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m_scale, max_digit, tol = float(m_scale), float(max_digit), float(tol)
    tails = TWO_PI * max_digit * np.abs(xs.ravel()) / (m_scale - 1.0)
    order = np.argsort(-tails, kind="stable")
    ys = xs.ravel()[order]
    tails = tails[order]
    amp = np.ones(ys.shape, dtype=np.float64)
    phase = np.zeros(ys.shape, dtype=np.float64)
    n = int(np.count_nonzero(tails >= tol))
    while n:
        ys[:n] /= m_scale
        level_amp, level_phase = mask_factors(ys[:n], scales, counts)
        amp[:n] *= level_amp
        phase[:n] += level_phase
        tails[:n] /= m_scale
        n = int(np.count_nonzero(tails[:n] >= tol))
    out_amp, out_phase = np.empty_like(amp), np.empty_like(phase)
    out_amp[order] = amp
    out_phase[order] = phase
    return out_amp.reshape(xs.shape), out_phase.reshape(xs.shape)
