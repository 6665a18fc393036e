"""The bit engine is chosen per process, never per call.

``REPRO_ENGINE`` and the scoped ``repro.engine.use_backend`` are the
only two ways to pick a backend.  Guards that no signature in the
library outside ``repro.engine`` grows an ``engine`` parameter and no
``BitArray`` constructor a ``backend`` one, and that a scope holds in
the runtime's thread and process workers.
"""

import ast
import pathlib
import sys

import repro.engine as engine
from repro.core.bitarray import BitArray
from repro.runtime import run_tasks, task

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
CONSTRUCTORS = ("__init__", "from_bits", "from_indices", "from_bytes", "or_reduce")


def _parameters(function):
    args = function.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    extra = [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return {arg.arg for arg in named + extra}


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def test_no_engine_parameter_outside_the_engine_package():
    offenders = [
        f"{path.relative_to(SRC)}:{function.lineno} {function.name}"
        for path in sorted(SRC.rglob("*.py"))
        if (SRC / "engine") not in path.parents
        for function in _functions(ast.parse(path.read_text()))
        if "engine" in _parameters(function)
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


def fresh_backend(name=None, arrays=1):
    """The backends of *arrays* ``BitArray``s built one after another
    inside ``use_backend(name)`` (in the caller's scope when *name* is
    None); one name when they all agree."""
    if name is None:
        seen = {BitArray(8).backend for _ in range(arrays)}
    else:
        with engine.use_backend(name):
            seen = {BitArray(8).backend for _ in range(arrays)}
    return seen.pop() if len(seen) == 1 else sorted(seen)


def test_process_worker_enters_its_own_scope():
    tasks = [task(fresh_backend, name) for name in ("legacy", "packed", "legacy")]
    assert run_tasks(tasks, workers=2, executor="process") == [
        "legacy",
        "packed",
        "legacy",
    ]


def test_thread_workers_inherit_the_scope_and_keep_their_own():
    before = engine.default_backend_name()
    with engine.use_backend("legacy"):
        inherited = run_tasks(
            [task(fresh_backend) for _ in range(4)], workers=2, executor="thread"
        )
    assert inherited == ["legacy"] * 4
    # More workers than cores and a short switch interval, so scopes
    # opened by concurrent tasks interleave; a shared default would
    # leak one task's backend into another's arrays.
    names = ["legacy", "packed"] * 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        own = run_tasks(
            [task(fresh_backend, name, 200) for name in names],
            workers=8,
            executor="thread",
        )
    finally:
        sys.setswitchinterval(interval)
    assert own == names
    assert engine.default_backend_name() == before
