"""Exact scaling-eigenvalue engine for product-form self-similar spectral measures.

Construct an instance with :func:`build_instance`, decide scalings with
:func:`decide_scaling` / :func:`decide_scaling_signed`, and validate
decisions independently via the exact zero-set predicates and the numeric
completeness probes.
"""

from .attractor import (
    AttractorSystem,
    CycleWitness,
    build_graph,
    find_nonzero_cycle,
    integer_points,
    word_witness_search,
)
from .eigen import (
    EigenDecision,
    Reason,
    Verdict,
    decide_scaling,
    decide_scaling_signed,
    decide_second_type,
    find_sign_word,
    search_eigenvalues,
    shortcut_divisor,
)
from .errors import (
    BudgetExceeded,
    InvalidParameters,
    SpeigenError,
    ZeroScaling,
)
from .instance import ProblemInstance, build_instance, from_descriptor
from .measure import (
    ZeroSetWitness,
    fourier_power,
    fourier_value,
    fourier_values,
    hadamard_check_exact,
    nadic_split,
    zero_set_contains,
    zero_set_decompose,
)
from .spectra import SignWord, SpectrumTruncation, spectrum_level
from .validate import (
    ValidationReport,
    check_orthogonal_set,
    completeness_probe,
    default_grid,
    q_function,
)

__version__ = "0.1.0"

__all__ = [
    "AttractorSystem",
    "BudgetExceeded",
    "CycleWitness",
    "EigenDecision",
    "InvalidParameters",
    "ProblemInstance",
    "Reason",
    "SignWord",
    "SpeigenError",
    "SpectrumTruncation",
    "ValidationReport",
    "Verdict",
    "ZeroScaling",
    "ZeroSetWitness",
    "build_graph",
    "build_instance",
    "check_orthogonal_set",
    "completeness_probe",
    "decide_scaling",
    "decide_scaling_signed",
    "decide_second_type",
    "default_grid",
    "find_nonzero_cycle",
    "find_sign_word",
    "fourier_power",
    "fourier_value",
    "fourier_values",
    "from_descriptor",
    "hadamard_check_exact",
    "integer_points",
    "nadic_split",
    "q_function",
    "search_eigenvalues",
    "shortcut_divisor",
    "spectrum_level",
    "word_witness_search",
    "zero_set_contains",
    "zero_set_decompose",
]
