"""Numerics for martingale approximation of stationary linear processes.

The package builds Taylor coefficient sequences of inner functions
(singular and Blaschke), measures how well scalar multiples of the driving
noise approximate their partial-sum processes through exact window-sum
norms, synthesizes a layered rare-spike process whose two natural
martingale approximants separate at rate sqrt(n), and checks filtration
identities on an exhaustively enumerated finite model.

The public names are those in each module's ``__all__``, re-exported here.
"""

from . import errors, exact_model, inner, layered_process, linear_process, rng, series
from .errors import *  # noqa: F403
from .exact_model import *  # noqa: F403
from .inner import *  # noqa: F403
from .layered_process import *  # noqa: F403
from .linear_process import *  # noqa: F403
from .rng import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (errors, exact_model, inner, layered_process, linear_process, rng, series)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
