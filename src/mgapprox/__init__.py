"""Numerics for martingale approximation of stationary linear processes.

The package builds Taylor coefficient sequences of inner functions
(singular and Blaschke), measures how well scalar multiples of the driving
noise approximate their partial-sum processes through exact window-sum
norms, synthesizes a layered rare-spike process whose two natural
martingale approximants separate at rate sqrt(n), and checks filtration
identities on an exhaustively enumerated finite model.

The public names are those in each module's ``__all__``, re-exported here.
Importing the package loads none of its modules (PEP 562): the first access
to a public name, a library module, ``__all__`` or ``dir()`` imports all
seven modules and binds their public names here.  The command line
imports only the modules of the command it runs.  ``__version__`` and
``DEFAULT_SEARCH_CAP`` are defined here, so that it can echo them without
loading a library module.
"""

import importlib

__version__ = "0.1.0"

# Horizon search cap of layered_process.synthesize_layer_params, and the
# default of prop3's --search-cap.
DEFAULT_SEARCH_CAP = 10**6

_MODULES = ("errors", "exact_model", "inner", "layered_process", "linear_process", "rng", "series")


def _load() -> None:
    """Import every module and bind it and its public names here."""
    names = globals()
    exported = []
    for module_name in _MODULES:
        module = importlib.import_module(f".{module_name}", __name__)
        names[module_name] = module
        names.update((name, getattr(module, name)) for name in module.__all__)
        exported += module.__all__
    names["__all__"] = exported + ["__version__"]


def __getattr__(name: str):
    # cli is the submodule outside the library: `from mgapprox import cli`
    # probes it with hasattr before importing it, and must load nothing.
    if name == "__all__" or not name.startswith("_") and name != "cli":
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
