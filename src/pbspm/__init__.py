"""Temporal link prediction by popularity-boosted structural perturbation.

Workflow: parse a timestamped edge list, reduce it to a simple graph, split
it in time into training and probe sets, score the unobserved training pairs
(spectral perturbation with optional popularity boosting and truncation, or
one of five classical indices), and evaluate precision on the probe set.
Its public names are its modules and what each gives ``import *``: the
module's ``__all__``, or, in ``errors``, every exception class.
"""

from .baselines import *
from .errors import *
from .evaluation import *
from .graph import *
from .spectral import *
from .split import *

__version__ = "0.1.0"
