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
The batch walks its levels as one: a frequency whose tail bound is already
below the tolerance takes the argument 0, whose factor is exactly 1.
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
# Mask arguments per mask_factors call: the levels of a batch are grouped up to this many (one
# level at least), so a probe batch's levels go about four to a group.
LEVEL_BLOCK = 16384


def _buffers(size: int) -> tuple[np.ndarray, ...]:
    """The work arrays of one kernel call: r, num, den, amplitude, phase, zero mask.

    The five float arrays are rows of one allocation.  As five arrays of
    64 KB each (``size = 8192``), they were handed back to the system when
    freed and faulted in again on every call: 276 minor page faults per
    ``validate`` request, which cost more than the larger groups saved.
    """
    return (*np.empty((5, size), dtype=np.float64), np.empty(size, dtype=bool))


def mask_factors(xs, scales, counts, buffers=None) -> tuple[np.ndarray, np.ndarray]:
    """m_D at each x as (signed amplitude, phase) over the digit blocks.

    Block j is the interval ``scales[j] * {0..counts[j]-1}``; ``counts``
    broadcasts against ``scales``, so one count serves every block.  A block
    of ``n`` digits has amplitude ``sin(pi n r) / (n sin(pi r))`` (two sines
    and a divide whatever ``n`` is, and exactly 1 at ``r == 0``) and phase
    ``(n - 1) r``.  The product of the blocks starts from the first block's
    factor and the phase sum from ``0.0`` plus its phase, so each x reads
    ``(1 * f_1) * f_2 ...`` and ``(0 + p_1) + p_2 ...`` bit for bit.

    Every step writes into ``buffers`` (:func:`_buffers`, at least
    ``xs.size`` long; fresh ones when omitted).  The two arrays returned are
    views into them, overwritten by the next call on the same buffers.
    """
    xs = np.asarray(xs, dtype=np.float64)
    shape, xs = xs.shape, xs.ravel()
    r, num, den, amp, phase, zero = (b[: xs.size] for b in buffers or _buffers(xs.size))
    for j, (scale, n) in enumerate(np.broadcast(scales, counts)):
        scale, n = float(scale), float(n)
        np.multiply(xs, scale, out=r)
        r -= np.rint(r, out=num)
        np.sin(np.multiply(r, math.pi * n, out=num), out=num)
        np.sin(np.multiply(r, math.pi, out=den), out=den)
        den *= n
        # At r == 0 the ratio is 0/0; both sides become 1, so the divide gives exactly 1.
        np.equal(r, 0.0, out=zero)
        num[zero] = 1.0
        den[zero] = 1.0
        r *= n - 1.0
        if j == 0:
            np.divide(num, den, out=amp)
            np.add(r, 0.0, out=phase)
        else:
            amp *= np.divide(num, den, out=num)
            phase += r
    return amp.reshape(shape), phase.reshape(shape)


def fourier_products(
    xs, scales, counts, m_scale: float, max_digit: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated products prod_{k<=K} m_D(x / M**k) with per-x tail bound < tol.

    Returns the signed amplitude and the summed phase of the product; its
    value is ``amp * e^(i pi * phase)``.  Every frequency walks every level
    of the batch's largest tail bound: once its own bound has dropped below
    ``tol``, its argument is 0, whose factor is exactly 1 and whose phase is
    exactly 0, so the product and the phase sum keep their bits.  Bounds only
    shrink and ``0 / M`` stays 0, so a finished frequency stays finished.
    Every operation is elementwise, so a frequency's value does not depend
    on its batch.

    The level loop only divides: the arguments ``x / M**k`` of consecutive
    levels are the rows of one ``(rows, n)`` array, ``rows * n`` at most
    :data:`LEVEL_BLOCK` (one level at least), and one :func:`mask_factors`
    call evaluates the whole group.  A level costs a few numpy calls instead
    of the twenty of a mask step, and each frequency still multiplies its
    level factors in level order.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m_scale, max_digit, tol = float(m_scale), float(max_digit), float(tol)
    tails = TWO_PI * max_digit * np.abs(xs.ravel()) / (m_scale - 1.0)
    amp = np.ones(tails.size, dtype=np.float64)
    phase = np.zeros(tails.size, dtype=np.float64)
    levels, top = 0, float(tails.max(initial=0.0))
    while top >= tol:  # the largest bound divides as each frequency's does, so it counts the levels
        levels, top = levels + 1, top / m_scale
    if levels:
        rows = min(levels, max(1, LEVEL_BLOCK // tails.size))
        args, buffers = np.empty((rows, tails.size), dtype=np.float64), _buffers(rows * tails.size)
        active = np.empty(tails.size, dtype=bool)
        previous = xs.ravel()
        for first in range(0, levels, rows):
            group = args[: levels - first]
            for row in group:
                previous = np.divide(previous, m_scale, out=row)
                row *= np.greater_equal(tails, tol, out=active)
                tails /= m_scale
            level_amp, level_phase = mask_factors(group, scales, counts, buffers)
            for row_amp, row_phase in zip(level_amp, level_phase):
                amp *= row_amp
                phase += row_phase
    return amp.reshape(xs.shape), phase.reshape(xs.shape)
