"""Universal cycles for bounded-weight words, subsets and multisets.

The package re-exports the public names of its six library modules: each
module's ``__all__`` is the one place a name is declared public.
"""

from bwcycles import combmaps, cyclejoin, grandmama, msr, oracle, words
from bwcycles.combmaps import *
from bwcycles.cyclejoin import *
from bwcycles.grandmama import *
from bwcycles.msr import *
from bwcycles.oracle import *
from bwcycles.words import *

__version__ = "0.1.0"

__all__ = [name for module in (combmaps, cyclejoin, grandmama, msr, oracle, words)
           for name in module.__all__]
