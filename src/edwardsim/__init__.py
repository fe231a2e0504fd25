"""Fractional Brownian paths, regularized self-intersection local time, and
Edwards-measure reweighting on a uniform grid.

The package is organized bottom-up: exact path sampling (fbm), shifts of the
underlying Gaussian measure and their densities (cameron_martin), the
centered self-intersection local time and its eps ladder (silt),
second-moment machinery with the Holder-modulus and density-process checks
(moments), reweighted ensembles with cylinder functions and the quadratic
form (edwards), a path-space MALA sampler (mala), and serialization plus a
CLI (pathio, config, cli).
"""

from . import cameron_martin, config, edwards, fbm, mala, moments, params, pathio, rng, silt
from .params import *
from .rng import *
from .fbm import *
from .cameron_martin import *
from .silt import *
from .moments import *
from .edwards import *
from .mala import *
from .config import *
from .pathio import *

__version__ = "0.1.0"

# each module lists its public names once, in its own __all__
__all__ = [
    "__version__",
    *params.__all__,
    *rng.__all__,
    *fbm.__all__,
    *cameron_martin.__all__,
    *silt.__all__,
    *moments.__all__,
    *edwards.__all__,
    *mala.__all__,
    *config.__all__,
    *pathio.__all__,
]
