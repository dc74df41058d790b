"""Desk-scale laboratory for twisted strong maximal averages on the
integer Heisenberg lattice: exact lattice geometry, weighted maximal
fields with independent reference evaluators, covering selections with
replayable audits, and seeded weak-type experiments.

The package exports exactly the names in its modules' __all__ lists."""

from .lattice import *
from .weights import *
from .heisenberg import *
from .covering import *
from .harness import *

__version__ = "0.1.0"
