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
six modules and binds their public names here.  The command line binds,
with the same ``_bind``, the public names of only the modules of the
command it runs.  ``__version__``, ``DEFAULT_SEARCH_CAP`` and
``InvariantViolation`` are defined here, so that it can echo the first two
and report the third without loading a library module.
"""

import importlib

__version__ = "0.1.0"

# Horizon search cap of layered_process.synthesize_layer_params, and the
# default of prop3's --search-cap.
DEFAULT_SEARCH_CAP = 10**6


class InvariantViolation(RuntimeError):
    """A quantity guaranteed by construction failed its bound check.

    Raised by the self-auditing report builders (midpoint bounds, decoding
    tables, parameter synthesis).  The guarded inequalities hold with margin
    in exact arithmetic, so seeing this exception means an implementation
    bug or corrupted input, never a property of the mathematics under study.
    """


_MODULES = ("exact_model", "inner", "layered_process", "linear_process", "rng", "series")


def _bind(modules: tuple[str, ...], names: dict) -> None:
    """Import the named library modules and bind each one's ``__all__``
    names in names, leaving a name already bound (a patched one) as it is."""
    for module_name in modules:
        module = importlib.import_module(f".{module_name}", __name__)
        for name in module.__all__:
            names.setdefault(name, getattr(module, name))


def _load() -> None:
    """Import every module and bind its public names here; the import binds each module."""
    names = globals()
    _bind(_MODULES, names)
    names["__all__"] = [*(name for module in _MODULES for name in names[module].__all__),
                        "InvariantViolation", "__version__"]


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
