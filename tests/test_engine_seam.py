"""Bit arrays have one representation, so there is no engine to pick.

Guards that no function in the library grows an ``engine`` or
``backend`` parameter and that no context variable (the old engine
scope's mechanism) comes back, checks that the runtime's thread and
process workers build the same bits as the caller, and pins the two
names the frozen benchmark harness still imports from
``repro.engine``, which the library itself never imports.
"""

import ast
import pathlib
import sys

import numpy as np

from repro.core.bitarray import BitArray
from repro.runtime import run_tasks, task

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
CONSTRUCTORS = ("__init__", "from_bits", "from_indices", "from_bytes", "or_reduce")


def _parameters(function):
    args = function.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    extra = [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return {arg.arg for arg in named + extra}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def test_no_engine_parameter_outside_the_engine_package():
    # Nor inside it, and no ``backend`` parameter either.
    offenders = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _parameters(node) & {"engine", "backend"}
    ]
    assert offenders == []


def test_no_backend_parameter_on_bitarray_constructors():
    tree = ast.parse((SRC / "core" / "bitarray.py").read_text())
    (cls,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "BitArray"
    ]
    checked = {
        node.name: _parameters(node)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in CONSTRUCTORS
    }
    assert set(checked) == set(CONSTRUCTORS)
    assert [name for name, params in checked.items() if "backend" in params] == []


def test_no_context_variables():
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Import)
            and any(alias.name == "contextvars" for alias in node.names)
        )
        or (isinstance(node, ast.ImportFrom) and node.module == "contextvars")
    ]
    assert offenders == []


def test_library_never_imports_the_stubs():
    """``repro.engine`` exists only for the benchmark harness."""
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        if path.parts[0] != "engine"
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("repro.engine")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "repro"
            and any(alias.name == "engine" for alias in node.names)
        )
        or (
            isinstance(node, ast.Import)
            and any(alias.name.startswith("repro.engine") for alias in node.names)
        )
    ]
    assert offenders == []


def test_harness_stubs():
    from repro.engine import default_backend_name
    from repro.engine.numba_backend import HAVE_NUMBA

    assert default_backend_name() == "packed"
    assert HAVE_NUMBA is False


def built_bytes(size, seed, arrays=1):
    """Serialized bytes of *arrays* ``BitArray``s scattered from one
    seeded index stream."""
    rng = np.random.default_rng(seed)
    return [
        BitArray.from_indices(size, rng.integers(0, size, size // 4 + 1)).to_bytes()
        for _ in range(arrays)
    ]


def test_process_worker_enters_its_own_scope():
    # There is no engine scope to carry into a worker process: it
    # builds the same words as the caller.
    specs = [(77, 1), (4096, 2), (200, 3)]
    tasks = [task(built_bytes, size, seed) for size, seed in specs]
    assert run_tasks(tasks, workers=2, executor="process") == [
        built_bytes(size, seed) for size, seed in specs
    ]


def test_thread_workers_inherit_the_scope_and_keep_their_own():
    # More workers than cores and a short switch interval, so builds
    # by concurrent tasks interleave; any state shared between them
    # would leak one task's bits into another's arrays.
    specs = [(size, seed) for seed, size in enumerate([77, 4096, 64, 1000] * 8)]
    expected = [built_bytes(size, seed, 50) for size, seed in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_tasks(
            [task(built_bytes, size, seed, 50) for size, seed in specs],
            workers=8,
            executor="thread",
        )
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
