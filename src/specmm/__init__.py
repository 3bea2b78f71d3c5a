"""Certified minimax values for finite families of real symmetric matrices.

The central identity this library computes and certifies: for symmetric
A_1, ..., A_m,

    min over unit-trace PSD X of  max_i <A_i, X>
        =  max over probability vectors y of  lambda_min(sum_i y_i A_i).

The toolkit has four layers: exact linear oracles over the two strategy
domains (``symmat``, ``domains``), a deterministic saddle-point solver
returning self-verifying two-sided certificates (``saddle``), an explicit
block semidefinite embedding with feasibility lifts, interior points, and
SDPA export (``embed``), and the classic matrix-game special case solved
exactly for cross-validation (``classic``).
"""

__version__ = "0.1.0"  # before the imports: files reads it

from . import classic, domains, embed, files, saddle, symmat
from .symmat import *
from .domains import *
from .saddle import *
from .embed import *
from .classic import *
from .files import *

__all__ = ["__version__", *symmat.__all__, *domains.__all__, *saddle.__all__,
           *embed.__all__, *classic.__all__, *files.__all__]
