"""Robust output regulation for semilinear contraction systems.

Numerical forwarding design: Gram-weighted state spaces, IMEX evolution of
semilinear plants, quadrature evaluation of the forwarding map and its
adjoint derivative, the integrator-plus-forwarding feedback loop, and a
verification battery for the standing assumptions.

The package namespace is the union of its modules' ``__all__``; each public
name is listed once, in the module that defines it.
"""

__version__ = "0.1.0"

from .spaces import *
from .evolution import *
from .forwarding import *
from .regulator import *
from .plants import *
from .verify import *

__all__ = [
    "__version__",
    *spaces.__all__,
    *evolution.__all__,
    *forwarding.__all__,
    *regulator.__all__,
    *plants.__all__,
    *verify.__all__,
]
