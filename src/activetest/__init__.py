"""Budget-constrained active hypothesis testing.

Cheap auxiliary statistics decide which exact statistics to query under a
global budget; the resulting active e-values and p-values stay valid for
downstream multiple testing (BH / BY / e-value step-up).
"""

# set before the submodule imports, so none of them can see it undefined
__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; the package
# exports exactly their union
from . import allocation, core, engine, errors, pipeline, procedures, rng, simulate
from .allocation import *
from .core import *
from .engine import *
from .errors import *
from .pipeline import *
from .procedures import *
from .rng import *
from .simulate import *

__all__ = sorted(name for module in (allocation, core, engine, errors, pipeline, procedures,
                                     rng, simulate) for name in module.__all__)
