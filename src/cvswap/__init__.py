"""Entanglement swapping over continuous-variable star networks.

Gaussian-state toolbox (hbar = 2, interleaved quadrature ordering), an
N-port Bell relay with homodyne conditioning, closed-form output clusters
with independent numerical cross-checks, thermal-loss network formulas,
and linearized optomechanical steady states feeding the same relay.
The package exports each module's ``__all__``; those lists are the public
surface.
"""

__version__ = "0.1.0"

from . import analysis, gaussian, optomech, relay, sources
from .analysis import *
from .gaussian import *
from .optomech import *
from .relay import *
from .sources import *

__all__ = [
    "__version__",
    *gaussian.__all__,
    *relay.__all__,
    *sources.__all__,
    *analysis.__all__,
    *optomech.__all__,
]
