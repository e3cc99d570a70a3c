"""Shared utilities: RNG plumbing, validation, math, serialization."""

from .exceptions import (
    ConfigError,
    ConvergenceWarning,
    DataError,
    NotFittedError,
    PrivacyError,
    ReproError,
    ValidationError,
)
from .math import clip01, log_binomial, normalize_simplex, project_to_simplex, safe_log, softmax
from .rng import ensure_rng, spawn_generators, spawn_rngs, spawn_seeds
from .serialization import (
    state_from_bytes,
    state_from_json,
    state_to_bytes,
    state_to_json,
    states_equal,
)
from .tables import format_kv, format_series, format_table
from .validation import (
    check_array,
    check_fitted,
    check_in_range,
    check_matrix,
    check_positive_int,
    check_probability,
    check_scalar,
    check_vector,
)

__all__ = [
    "ReproError",
    "NotFittedError",
    "ValidationError",
    "ConvergenceWarning",
    "PrivacyError",
    "DataError",
    "ConfigError",
    "softmax",
    "normalize_simplex",
    "project_to_simplex",
    "clip01",
    "log_binomial",
    "safe_log",
    "ensure_rng",
    "spawn_generators",
    "spawn_rngs",
    "spawn_seeds",
    "state_to_json",
    "state_from_json",
    "state_to_bytes",
    "state_from_bytes",
    "states_equal",
    "format_table",
    "format_series",
    "format_kv",
    "check_array",
    "check_matrix",
    "check_vector",
    "check_scalar",
    "check_probability",
    "check_in_range",
    "check_positive_int",
    "check_fitted",
]
