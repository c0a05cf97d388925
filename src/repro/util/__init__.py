"""Small shared utilities: bit math, RNG plumbing, validation helpers."""

from repro.util.bits import (
    ceil_log2,
    floor_log2,
    is_power_of_two,
    next_power_of_two,
)
from repro.util.rng import RngMixin, ensure_rng, spawn_seeds
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ceil_log2",
    "floor_log2",
    "is_power_of_two",
    "next_power_of_two",
    "RngMixin",
    "ensure_rng",
    "spawn_seeds",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
