"""weightcell: exact bounded-weight-function machinery for regular languages.

Core pipeline: a finite automaton gives simple circuits (whose letter counts
cut out the rational polyhedral cone of bounded weight functions) and
circuit-free words (on which a bounded weight function attains its bound);
the bound-attaining cell is again regular, recognised by the tight
sub-automaton of maximal-weight runs.  A Coxeter-group front end constructs
shortlex and all-reduced-word automata from a Coxeter matrix using exact
cyclotomic arithmetic and minimal roots, with closed-form calculators for
the finite and affine families that admit non-constant weight functions.
"""

from . import automata, closedforms, cones, coxeter, cyclo, weights
from .automata import *
from .closedforms import *
from .cones import *
from .coxeter import *
from .cyclo import *
from .errors import InputError, PreconditionError, ResourceLimitError, UnboundedError, WeightcellError
from .limits import Caps
from .weights import *

__all__ = sorted(
    [name for module in (automata, closedforms, cones, coxeter, cyclo, weights) for name in module.__all__]
    + ["Caps", "InputError", "PreconditionError", "ResourceLimitError", "UnboundedError", "WeightcellError"]
)

__version__ = "0.1.0"
