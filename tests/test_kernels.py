import math

import numpy as np
from mpmath import mp, mpf

from speigen import _kernels, build_instance, fourier_power, fourier_value, fourier_values, spectrum_level
from speigen.measure import _digit_runs, _numeric_params
from speigen.validate import PROBE_BATCH

from oracles import fourier_products_reference, mask_direct_sum

# The four instances the validate-probe benchmark draws from (M = 12, 48, 54, 120).
PROBE_INSTANCES = ((2, 3, 2, (1,)), (2, 3, 4, (3,)), (3, 2, 3, (1,)), (2, 15, 3, (1, 2)))
# Instances whose exponents (0, *p) split into runs in other ways: (0,1)(3), (0)(2,3), (0,1,2,3), (0,1) at N = 5.
RUN_INSTANCES = ((2, 3, 4, (1, 3)), (3, 2, 4, (2, 3)), (2, 3, 4, (1, 2, 3)), (5, 2, 2, (1,)))
EPS = np.finfo(float).eps


def test_scalar_matches_batch(inst12, inst48):
    rng = np.random.default_rng(2024)
    for inst in (inst12, inst48):
        # Multiples of M give blocks at integer arguments, whose factor is exactly 1.
        xs = np.concatenate([rng.uniform(-500, 500, size=64), [inst.M, -(inst.M**2), 7.0 * inst.M**3]])
        batch = fourier_values(inst, xs, tol=1e-12)
        scalar = np.array([fourier_value(inst, float(x), 1e-12) for x in xs])
        assert np.max(np.abs(batch - scalar)) <= 5e-12


def test_mask_lanes_agree(inst120):
    # One block per exponent and one per run of exponents, each against the literal sum over D.
    n_base, scales, _, _ = _numeric_params(inst120)
    xs = np.linspace(-3.3, 3.3, 257)
    direct = np.array([mask_direct_sum(inst120, float(x)) for x in xs])
    for blocks in ((scales, n_base), _digit_runs(inst120)):
        amp, phase = _kernels.mask_factors(xs, *blocks)
        assert np.max(np.abs(amp * np.exp(1j * math.pi * phase) - direct)) <= 1e-13


def test_mask_amplitude_stays_accurate_for_large_n():
    # One block at reduced arguments r, against sin(pi N r) / (N sin(pi r)) to 40 digits.
    rs = np.concatenate([np.linspace(-0.5, 0.5, 201), np.linspace(-1e-3, 1e-3, 41), [1e-9, -3e-7, 0.4999]])
    with mp.workdps(40):
        for n_base in (2, 3, 5, 16, 127, 1000, 10**6, 10**9, 10**12, 2**52):
            amp, phase = _kernels.mask_factors(rs, np.array([1.0]), n_base)
            exact = [
                mpf(1) if r == 0 else mp.sinpi(n_base * mpf(float(r))) / (n_base * mp.sinpi(mpf(float(r)))) for r in rs
            ]
            gap = max(abs(float(value - ref)) for value, ref in zip(amp, exact))
            assert gap <= 1e-13, (n_base, gap)
            assert np.array_equal(phase, (n_base - 1) * rs)


def test_integer_frequencies_reduce_exactly(inst12):
    # Mask factors at integer arguments must evaluate to exactly 1, with no phase.
    n_base, scales, _, _ = _numeric_params(inst12)
    xs = np.array([-5.0, -1.0, 0.0, 1.0, 7.0])
    amp, turns = _kernels.mask_factors(xs, scales, n_base)
    assert np.all(amp == 1.0) and np.all(turns == 0.0)


def test_power_is_the_squared_modulus_on_the_benchmark_instances():
    rng = np.random.default_rng(9)
    for params in PROBE_INSTANCES:
        inst = build_instance(*params)
        xs = np.concatenate([rng.uniform(-2e4, 2e4, size=500), rng.uniform(-3, 3, size=100), np.arange(-20.0, 21.0)])
        for tol in (1e-9, 1e-12):
            gap = np.abs(fourier_power(inst, xs, tol=tol) - np.abs(fourier_values(inst, xs, tol=tol)) ** 2)
            assert np.max(gap) <= 16 * EPS, (params, tol)


def digit_sum_transform(inst, x, tail_target=mpf("1e-22")):
    """prod_k (1/#D) sum_{d in D} e^(2 pi i d x / M**k), truncated once the tail bound is below tail_target."""
    tail = 2 * mp.pi * inst.D[-1] * abs(x) / (inst.M - 1)
    acc = mp.mpc(1)
    y = x
    while tail >= tail_target:
        y /= inst.M
        acc *= sum(mp.expjpi(2 * d * y) for d in inst.D) / len(inst.D)
        tail /= inst.M
    return acc


def test_power_matches_the_extended_precision_digit_sums():
    rng = np.random.default_rng(1998)
    with mp.workdps(30):
        for params in PROBE_INSTANCES:
            inst = build_instance(*params)
            xs = np.concatenate([rng.uniform(-1000, 1000, size=20), rng.uniform(-2, 2, size=5)])
            power = fourier_power(inst, xs, tol=1e-13)
            for x, value in zip(xs, power):
                exact = abs(digit_sum_transform(inst, mpf(float(x)))) ** 2
                assert abs(value - float(exact)) <= 1e-12, (params, x)


def test_power_at_zero_is_exactly_one():
    for params in PROBE_INSTANCES:
        assert fourier_power(build_instance(*params), np.array([0.0]), tol=1e-9)[0] == 1.0


def test_power_vanishes_at_the_missing_frequency(inst12):
    tol = 1e-9
    lams = np.array([float(lam) for lam in spectrum_level(inst12, 11, 3).elements])
    assert np.all(fourier_power(inst12, -3.0 - lams, tol=tol) <= tol)


def test_digit_runs_merge_consecutive_exponents():
    assert _digit_runs(build_instance(2, 3, 4, (1, 3))) == ((1.0, 8.0), (4.0, 2.0))
    assert _digit_runs(build_instance(3, 2, 4, (2, 3))) == ((1.0, 9.0), (3.0, 9.0))
    assert _digit_runs(build_instance(2, 3, 4, (1, 2, 3))) == ((1.0,), (16.0,))
    assert _digit_runs(build_instance(2, 3, 4, (3,))) == ((1.0, 8.0), (2.0, 2.0))
    assert _digit_runs(build_instance(2, 3, 1, ())) == ((1.0,), (2.0,))


def test_batch_values_equal_the_one_frequency_calls_bit_for_bit():
    # Every frequency walks the levels of its batch's largest tail bound; a value must not depend on its batch.
    rng = np.random.default_rng(15)
    for params in (PROBE_INSTANCES[0], PROBE_INSTANCES[1], RUN_INSTANCES[1]):
        inst = build_instance(*params)
        _, _, m_scale, max_digit = _numeric_params(inst)
        # tol is the tail bound of x0 after two levels, computed as the kernel computes it.
        x0 = 37.25
        tol = _kernels.TWO_PI * max_digit * x0 / (m_scale - 1.0) / m_scale / m_scale
        ties = rng.uniform(-300, 300, size=40)
        xs = np.concatenate(
            [
                [0.0, -0.0, x0, -x0, 0.0, x0],
                ties,
                -ties,
                ties,
                rng.uniform(-1e3, 1e3, size=PROBE_BATCH),
                rng.uniform(-1, 1, size=200),
                np.arange(-30.0, 31.0),
            ]
        )
        rng.shuffle(xs)
        assert xs.size > PROBE_BATCH
        power = fourier_power(inst, xs, tol=tol)
        values = fourier_values(inst, xs, tol=tol)
        single_power = np.array([fourier_power(inst, np.array([x]), tol=tol)[0] for x in xs])
        single_values = np.array([fourier_values(inst, np.array([x]), tol=tol)[0] for x in xs])
        assert np.array_equal(power, single_power), params
        assert np.array_equal(values, single_values), params
        # A tail bound equal to tol still takes its level, as in the scalar loop.
        assert np.max(np.abs(values[xs == x0] - fourier_value(inst, x0, tol))) <= 1e-12, params
        grid = xs[: 2 * (xs.size // 2)].reshape(2, -1)
        assert np.array_equal(fourier_power(inst, grid, tol=tol), power[: grid.size].reshape(grid.shape))


def test_merged_runs_match_the_extended_precision_digit_sums():
    # The kernel's run blocks against the direct sums over D: to 1e-12 up to |x| = 10**3, and to
    # 1e-10 at |x| in 10**6..10**8, where reducing x / M**k in float64 costs about 2e-11.
    rng = np.random.default_rng(2025)
    with mp.workdps(30):
        for params in RUN_INSTANCES + PROBE_INSTANCES:
            inst = build_instance(*params)
            small = np.concatenate([rng.uniform(-1000, 1000, size=12), rng.uniform(-2, 2, size=4)])
            large = rng.choice([-1.0, 1.0], size=12) * 10 ** rng.uniform(6, 8, size=12)
            for xs, bound in ((small, 1e-12), (large, 1e-10)):
                values = fourier_values(inst, xs, tol=1e-13)
                for x, value in zip(xs, values):
                    exact = complex(digit_sum_transform(inst, mpf(float(x))))
                    assert abs(value - exact) <= bound, (params, x)


def test_kernel_equals_the_reference_loop_bit_for_bit():
    # The grouped, in-place level loop against the loop that allocates every step
    # (fourier_products_reference): the same amplitude and phase bits on the benchmark instances and on
    # two instances whose exponents split into two runs.
    rng = np.random.default_rng(23)
    for params in PROBE_INSTANCES + RUN_INSTANCES[:2]:
        inst = build_instance(*params)
        scales, counts = _digit_runs(inst)
        _, _, m_scale, max_digit = _numeric_params(inst)
        # A tail bound exactly at tol, as the kernel computes it, still takes its level.
        x0 = 91.5
        at_tol = _kernels.TWO_PI * max_digit * x0 / (m_scale - 1.0) / m_scale / m_scale
        ties = rng.uniform(-300, 300, size=50)
        multiples = inst.M * np.arange(-6.0, 7.0)  # integer arguments at several levels: r == 0
        grid = np.linspace(0.0, 1.0, 25)[:, None] - rng.uniform(-2e5, 2e5, size=64)  # 2-D, like the probe
        # LEVEL_BLOCK // 3 frequencies go three levels to a group. At at_tol the largest of them takes
        # exactly six levels (after five its tail bound is about 1.0001 * tol), so both groups are full.
        top = 1.0001 * x0 * inst.M**3
        full_groups = np.concatenate([[top, -x0], rng.uniform(-top, top, size=_kernels.LEVEL_BLOCK // 3 - 2)])
        batches = [
            np.array([]),
            np.array([0.0, -0.0, 0.0]),
            np.concatenate([[0.0, -0.0], rng.uniform(-1e-16, 1e-16, size=9)]),  # no level at any tol of the loop below
            np.concatenate([[0.0, -0.0, x0, -x0, x0], ties, -ties, ties, multiples, -multiples]),
            grid,  # 1,600 arguments per level: several levels to a group
            full_groups,
            # Above a probe batch and above LEVEL_BLOCK: one level to a group.
            rng.uniform(-1e6, 1e6, size=max(PROBE_BATCH, _kernels.LEVEL_BLOCK) + 513),
            np.array([x0]),
        ]
        for xs in batches:
            for tol in (1e-9, 1e-12, at_tol):
                args = (scales, counts, m_scale, max_digit, tol)
                amp, phase = _kernels.fourier_products(xs, *args)
                ref_amp, ref_phase = fourier_products_reference(xs, *args)
                assert amp.shape == phase.shape == np.shape(xs), (params, tol)
                assert np.array_equal(amp, ref_amp) and np.array_equal(phase, ref_phase), (params, xs.shape, tol)
                assert amp.tobytes() == ref_amp.tobytes() and phase.tobytes() == ref_phase.tobytes()  # signed zeros too
