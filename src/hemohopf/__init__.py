"""Stability and Hopf bifurcation analysis of a delayed blood-cell
production model: equilibria, transcendental characteristic equation,
center-manifold normal form with first Lyapunov coefficient, and direct
method-of-steps simulation.

The package namespace is the union of the modules' ``__all__`` lists.
"""

from .model import *  # noqa: F401,F403
from .linstab import *  # noqa: F401,F403
from .hopf import *  # noqa: F401,F403
from .ddesim import *  # noqa: F401,F403

__version__ = "0.1.0"
