"""Lazy package exports (PEP 562 module ``__getattr__``/``__dir__``).

Every package ``__init__`` declares one table mapping each public name
to the module that defines it (relative to the package, or absolute)::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "BitArray": ".bitarray",
        "fixed_array_size_for_privacy": "repro.core.sizing",
    })

Importing the package imports none of those modules.  The first
``package.BitArray`` (or ``from package import BitArray``) imports
``.bitarray``, binds the name in the package namespace, so later
lookups never reach ``__getattr__``, and returns it.  An attribute
naming a submodule that is not imported yet
(``repro.roadnet.sioux_falls``) imports that submodule.  The table's
key order is ``__all__``.

Imports go through the ``__import__`` builtin, so ``python -X
importtime`` lists each module they load.  This module imports nothing,
so a package init pays only for its table.
"""

__all__ = ["lazy_exports"]


def lazy_exports(namespace, table):
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is *namespace*, exporting ``name -> module`` *table*."""
    package = namespace["__name__"]

    def __getattr__(name):
        module = table.get(name)
        if module is not None:
            path = package + module if module.startswith(".") else module
            value = getattr(__import__(path, fromlist=(name,)), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                __import__(submodule)  # binds *name* in the namespace
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
            else:
                return namespace[name]
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
