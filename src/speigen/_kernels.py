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
    value is ``amp * e^(i pi * phase)``.  The frequencies are sorted once by
    tail bound, largest first, so the ones still above ``tol`` at each level
    are a prefix; one scatter restores the input order.  Every operation is
    elementwise, so a frequency's value does not depend on its batch.

    The level loop only divides: the arguments ``x / M**k`` of consecutive
    levels go back to back into one array, up to :data:`LEVEL_BLOCK` of
    them, and one :func:`mask_factors` call evaluates the whole group.  A
    level costs a few numpy calls instead of the twenty of a mask step, and
    each frequency still multiplies its level factors in level order.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m_scale, max_digit, tol = float(m_scale), float(max_digit), float(tol)
    tails = TWO_PI * max_digit * np.abs(xs.ravel()) / (m_scale - 1.0)
    order = np.argsort(-tails, kind="stable")
    ys = xs.ravel()[order]
    tails = tails[order]
    amp = np.ones(ys.shape, dtype=np.float64)
    phase = np.zeros(ys.shape, dtype=np.float64)
    sizes = []  # sizes[k]: the prefix of frequencies that take level k + 1
    n = int(np.count_nonzero(tails >= tol))
    while n:
        sizes.append(n)
        tails[:n] /= m_scale
        n = int(np.count_nonzero(tails[:n] >= tol))
    groups: list[list[int]] = []  # consecutive levels, at most LEVEL_BLOCK arguments or one level each
    for n in sizes:
        if not groups or sum(groups[-1]) + n > LEVEL_BLOCK:
            groups.append([])
        groups[-1].append(n)
    width = max(map(sum, groups), default=0)
    args, buffers = np.empty(width, dtype=np.float64), _buffers(width)
    for group in groups:
        start, previous = 0, ys
        for n in group:
            previous = np.divide(previous[:n], m_scale, out=args[start : start + n])
            start += n
        ys[: previous.size] = previous  # the next group divides on from the group's last level
        level_amp, level_phase = mask_factors(args[:start], scales, counts, buffers)
        start = 0
        for n in group:
            amp[:n] *= level_amp[start : start + n]
            phase[:n] += level_phase[start : start + n]
            start += n
    out_amp, out_phase = np.empty_like(amp), np.empty_like(phase)
    out_amp[order] = amp
    out_phase[order] = phase
    return out_amp.reshape(xs.shape), out_phase.reshape(xs.shape)
