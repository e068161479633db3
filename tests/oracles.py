"""Numeric reference checks that no command of the package calls.

The tests import these as oracles for the exact routines in ``speigen``.
"""

import math

import numpy as np

from speigen import SizeMismatch


def hadamard_check_numeric(b: int, Dset, Cset, tol: float = 1e-9) -> bool:
    """Unitarity of H = (1/sqrt(n)) [e^(2 pi i d c / b)] up to tol in max norm.

    The numeric twin of :func:`speigen.hadamard_check_exact`.  Phases are
    reduced exactly (``d*c mod b``) before float conversion, so huge digit
    products lose no precision.
    """
    Dset = list(Dset)
    Cset = list(Cset)
    if len(Dset) != len(Cset):
        raise SizeMismatch(f"digit sets differ in size: {len(Dset)} vs {len(Cset)}")
    n = len(Dset)
    if n < 2:
        raise ValueError("Hadamard pair needs at least 2 digits")
    if b < 2:
        raise ValueError("modulus b must be at least 2")
    if b > 2**53:
        raise ValueError(f"modulus b = {b} exceeds exact float64 range (2**53)")
    phases = np.array([[(d * c) % b for c in Cset] for d in Dset], dtype=np.float64) / float(b)
    H = np.exp(2j * math.pi * phases) / math.sqrt(n)
    gram = H.conj().T @ H
    return bool(np.max(np.abs(gram - np.eye(n))) <= tol)
