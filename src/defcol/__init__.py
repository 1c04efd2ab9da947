"""Defective colouring toolkit for uniform hypergraphs.

A d-defective colouring lets every vertex sit in at most d monochromatic
edges.  The package bundles instance generators, a sunflower
decomposition, a local-search partitioner, randomised colouring engines
with resampling repair, exact verification and oracle routines, and
Monte Carlo probes, all behind one CLI (``defcol``).

Every public name of a submodule is listed once, in that submodule's
``__all__``, and re-exported here.
"""

from . import analysis, engine, generators, hypergraph, partition, sunflowers
from .analysis import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .hypergraph import *  # noqa: F401,F403
from .partition import *  # noqa: F401,F403
from .sunflowers import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (hypergraph, generators, sunflowers, partition, engine, analysis)
    for name in module.__all__
] + ["__version__"]
