"""Shared utilities: seeded RNG management, validation helpers,
numerically stable math, ASCII table rendering, and result
serialization.

These modules are substrate code used across the library; they contain
no paper-specific logic.
"""

from repro.utils.arrays import sorted_unique
from repro.utils.rng import RngFactory, as_generator, spawn_generators
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_power_of_two,
    check_probability,
    is_power_of_two,
    next_power_of_two,
)
from repro.utils.mathx import (
    log_pow_one_minus,
    pow_one_minus,
    safe_log,
    stable_ratio_power,
)
from repro.utils.tables import AsciiTable
from repro.utils.serialization import dump_json, load_json

__all__ = [
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "check_in_range",
    "check_positive",
    "check_positive_int",
    "check_power_of_two",
    "check_probability",
    "is_power_of_two",
    "next_power_of_two",
    "log_pow_one_minus",
    "pow_one_minus",
    "safe_log",
    "stable_ratio_power",
    "sorted_unique",
    "AsciiTable",
    "dump_json",
    "load_json",
]
