"""Sparse probability transforms and the losses and experiments built on them.

The package re-exports the public names of each module, as listed in the
module's ``__all__``.
"""

from . import datasets, jacobians, linear_model, losses, metrics, simplex
from .datasets import *  # noqa: F401,F403
from .jacobians import *  # noqa: F401,F403
from .linear_model import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .simplex import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *simplex.__all__,
    *jacobians.__all__,
    *losses.__all__,
    *metrics.__all__,
    *datasets.__all__,
    *linear_model.__all__,
    "__version__",
]
