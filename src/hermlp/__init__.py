"""Numerical calculus for the Hermite operator.

Orthonormal Hermite expansions, Mehler-type heat/Poisson/square-function
kernels with subordination quadrature, discretized gamma-norms against
finite-dimensional Banach targets, local Hardy/BMO machinery adapted to
the critical radius, and a verification layer with a command-line front
end.

The public API is the `__all__` of the six library modules, in layer
order; each module declares its own.
"""

from . import basis, gamma, kernels, semigroups, spaces, verify
from .basis import *  # noqa: F401,F403
from .gamma import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .semigroups import *  # noqa: F401,F403
from .spaces import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__all__ = [name for module in (basis, kernels, gamma, semigroups, spaces, verify)
           for name in module.__all__]

__version__ = "0.1.0"
