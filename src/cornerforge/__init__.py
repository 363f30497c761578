"""Corner-avoiding constructions, popular-difference spectra, and hypergraph
density kernels, all cross-checked by exact brute-force oracles.

The public names are those in the `__all__` of the `_PUBLIC` submodules,
loaded on first use (PEP 562): importing the package imports no submodule,
and each name is the submodule's own object, looked up when it is asked
for.  The numpy-free submodules are searched first, so their names load no
numpy; a private name, or a submodule's (`from cornerforge import cli`),
is refused without searching, so it imports nothing more.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

_PUBLIC = ("behrend", "contfrac", "diamond", "hypergraph", "patterns", "avoiders", "mandache")


def _modules():
    return (importlib.import_module(f"{__name__}.{module}") for module in _PUBLIC)


def __getattr__(name: str):
    if name == "__all__":
        return [public for module in _modules() for public in module.__all__]
    if name.isidentifier() and not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in _modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
