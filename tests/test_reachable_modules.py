"""Every ``src/repro`` module is reached by something that runs.

A static import walk over the AST starts from ``repro.cli`` (following
the ``EXPERIMENTS`` ``module:function`` targets) and from every file
under ``benchmarks/``.  ``from pkg import Name`` resolves ``Name``
through the package's ``lazy_exports`` table, so importing a package
reaches only the modules whose names are used, not every module its
table lists.  A module that neither walk reaches is code only tests
and examples import; it fails here unless :data:`ALLOWED` names it
with a reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules kept although no CLI command or benchmark reaches them.
ALLOWED = {
    "repro.vcps.simulation": "the Section II-A agent simulation examples/ run",
    "repro.vcps.vehicle": "the Section IV-B vehicle agent the simulation drives",
    "repro.vcps.keys": "the vehicles' private keys K_v the simulation hands out",
    "repro.vcps.clock": "the simulation's only time source",
    "repro.vcps.channel": "the lossy DSRC link examples/robustness_study.py runs",
    "repro.roadnet.congestion": "its MSA flows are pinned by tests/test_workload_golden.py",
    "repro.accuracy.fisher": "backs an EXPERIMENTS.md finding on estimator efficiency",
}

#: An ``EXPERIMENTS``-style ``module:function`` target.
_TARGET = re.compile(r"^(repro(?:\.\w+)*):\w+$")


def module_files():
    """``{dotted name: path}`` for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def lazy_table(tree, package):
    """The ``name -> module`` table a package init passes to
    ``lazy_exports``, with relative modules made absolute."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and isinstance(node.args[1], ast.Dict)
        ):
            table = ast.literal_eval(node.args[1])
            return {
                name: package + module if module.startswith(".") else module
                for name, module in table.items()
            }
    return {}


class ImportGraph:
    """The modules each file names, read from its AST."""

    def __init__(self):
        self.files = module_files()
        self.trees = {
            name: ast.parse(path.read_text(), str(path))
            for name, path in self.files.items()
        }
        self.tables = {
            name: lazy_table(tree, name)
            for name, tree in self.trees.items()
            if self.files[name].name == "__init__.py"
        }

    def _with_parents(self, name):
        """*name* and the packages above it (importing a module runs
        each enclosing package init), as far as they are ``src/repro``
        modules."""
        parts = name.split(".")
        return [
            ".".join(parts[:i])
            for i in range(1, len(parts) + 1)
            if ".".join(parts[:i]) in self.files
        ]

    def edges(self, tree, package):
        """Every ``src/repro`` module *tree* imports; *package* anchors
        its relative imports."""
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    found += self._with_parents(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                found += self._with_parents(base)
                table = self.tables.get(base, {})
                for alias in node.names:
                    if alias.name == "*":
                        found += table.values()
                    elif f"{base}.{alias.name}" in self.files:
                        found.append(f"{base}.{alias.name}")
                    elif alias.name in table:
                        found += self._with_parents(table[alias.name])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                target = _TARGET.match(node.value)
                if target:
                    found += self._with_parents(target.group(1))
        return found

    def reach(self, roots):
        """Every module reachable from *roots* (module names)."""
        seen, stack = set(), list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            is_package = self.files[name].name == "__init__.py"
            package = name if is_package else name.rpartition(".")[0]
            stack += self.edges(self.trees[name], package)
        return seen


def unreached():
    """The ``src/repro`` modules neither walk reaches, sorted."""
    graph = ImportGraph()
    roots = ["repro.cli"]
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        roots += graph.edges(ast.parse(path.read_text(), str(path)), "")
    return sorted(set(graph.files) - graph.reach(roots))


def test_every_module_is_reached_from_the_cli_or_a_benchmark():
    orphans = [name for name in unreached() if name not in ALLOWED]
    assert not orphans, f"modules only tests or examples import: {orphans}"


def test_every_allowlist_entry_is_still_needed():
    """An entry a walk now reaches is stale."""
    missed = unreached()
    for entry in ALLOWED:
        assert entry in missed, entry


def test_the_walk_follows_experiment_targets_and_lazy_names():
    """``repro.cli`` alone reaches an experiment module through its
    ``EXPERIMENTS`` string, and ``from repro import VlmScheme`` reaches
    ``repro.core.scheme`` but not the rest of the top-level table."""
    graph = ImportGraph()
    assert "repro.experiments.table1" in graph.reach(["repro.cli"])
    reached = graph.reach(graph.edges(ast.parse("from repro import VlmScheme"), ""))
    assert "repro.core.scheme" in reached
    assert "repro.privacy.attacker" not in reached
