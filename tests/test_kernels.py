import numpy as np

from speigen import _kernels, fourier_value, fourier_values, mask_value
from speigen.measure import _numeric_params


def test_scalar_matches_batch(inst12, inst48):
    rng = np.random.default_rng(2024)
    for inst in (inst12, inst48):
        xs = rng.uniform(-500, 500, size=64)
        batch = fourier_values(inst, xs, tol=1e-12)
        scalar = np.array([fourier_value(inst, float(x), 1e-12) for x in xs])
        assert np.max(np.abs(batch - scalar)) <= 5e-12


def test_mask_lanes_agree(inst120):
    n_base, scales, _, _ = _numeric_params(inst120)
    xs = np.linspace(-3.3, 3.3, 257)
    batch = _kernels.mask_values(xs, scales, n_base)
    scalar = np.array([mask_value(inst120, float(x)) for x in xs])
    assert np.max(np.abs(batch - scalar)) <= 1e-13


def test_integer_frequencies_reduce_exactly(inst12):
    # Mask factors at integer arguments must evaluate to exactly 1.
    n_base, scales, _, _ = _numeric_params(inst12)
    xs = np.array([-5.0, -1.0, 0.0, 1.0, 7.0])
    values = _kernels.mask_values(xs, scales, n_base)
    assert np.allclose(values, 1.0, atol=0.0)
