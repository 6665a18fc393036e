"""Shared utilities: seeded RNG management, validation helpers,
numerically stable math, ASCII table rendering, and result
serialization.

These modules are substrate code used across the library; they contain
no paper-specific logic.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "RngFactory": ".rng",
        "as_generator": ".rng",
        "spawn_generators": ".rng",
        "check_in_range": ".validation",
        "check_positive": ".validation",
        "check_positive_int": ".validation",
        "check_power_of_two": ".validation",
        "check_probability": ".validation",
        "is_power_of_two": ".validation",
        "next_power_of_two": ".validation",
        "log_pow_one_minus": ".mathx",
        "pow_one_minus": ".mathx",
        "safe_log": ".mathx",
        "stable_ratio_power": ".mathx",
        "sorted_unique": ".arrays",
        "AsciiTable": ".tables",
        "dump_json": ".serialization",
        "load_json": ".serialization",
    },
)
