"""Discrete-time quantum walk on the Bloch sphere.

A spin cluster walks on a ring of spin coherent states; an auxiliary
spin-1/2 coin conditions the direction of each rotation step.  The package
evolves the composite system, computes the SU(2) Wigner function of the
reduced walker state, and compares the resulting distributions and spread
against the ideal orthogonal-state walk.
"""

__version__ = "0.1.0"

from . import coherent, su2, walk, wigner
from .coherent import *
from .su2 import *
from .walk import *
from .wigner import *

# each module owns its public names; the package re-exports all of them
__all__ = ["__version__", *su2.__all__, *coherent.__all__, *walk.__all__,
           *wigner.__all__]
