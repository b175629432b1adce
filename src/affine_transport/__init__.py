"""Affine transport transfer maps between state-transition distributions.

Fit a closed-form map from one dynamics domain onto another from paired
transition triplets: an orthogonal Procrustes alignment composed with the
Gaussian optimal transport map between normal approximations. Includes the
exact empirical 2-Wasserstein distance for validation, bound diagnostics,
and an affinity score measuring how close two domains are to affinely
related.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from . import errors, linalg, gaussian_ot, discrete_ot, data, transfer
from .errors import *
from .linalg import *
from .gaussian_ot import *
from .discrete_ot import *
from .data import *
from .transfer import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *linalg.__all__,
    *gaussian_ot.__all__,
    *discrete_ot.__all__,
    *data.__all__,
    *transfer.__all__,
    "__version__",
]
