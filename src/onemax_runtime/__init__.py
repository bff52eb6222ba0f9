"""Expected optimization time of the (1+1) EA on OneMax.

Exact drift tables and hitting times (float or exact rational), verified
inequality suites, the asymptotic expansion of the normalized drift with its
runtime constants, and a Monte Carlo reference implementation, all behind
one library and one command line.

The public names are those of each module's ``__all__``, re-exported here.
"""

# Aliases first: the star imports rebind ``drift`` to the function.
from . import asymptotics as _asymptotics
from . import backends as _backends
from . import bounds as _bounds
from . import drift as _drift
from . import hitting as _hitting
from . import simulate as _simulate
from .backends import *
from .drift import *
from .hitting import *
from .bounds import *
from .asymptotics import *
from .simulate import *

__version__ = "0.1.0"

_MODULES = (_backends, _drift, _hitting, _bounds, _asymptotics, _simulate)

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
