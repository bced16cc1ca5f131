"""homoglab: exact tools for homomorphism-homogeneity of graphs.

Finite graphs get exact independence and star numbers, directories,
addresses, exact neighbourhoods, domination numbers, and two independent
deciders of XY-homogeneity.  Countable graphs enter as finitely presented
adjacency oracles with truncation, bounded cone/co-cone witness search, a
greedy spanning construction driven by extension requirements, and an
evidence-graded bimorphism-class probe.

Each module's __all__ is the one list of its public names; the package
exports all of them, with the exception classes of errors.py.
"""

__version__ = "0.1.0"

from .errors import *
from .formats import *
from .graphs import *
from .homogeneity import *
from .morphisms import *
from .presentations import *
from .verify import *
