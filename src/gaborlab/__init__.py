"""Finite-model time-frequency analysis toolkit.

Signals on the cyclic group Z_n^d, short-time Fourier transforms, Gabor
frames, mixed modulation norms, oscillatory-kernel operators, and Schatten
p-norms, plus an experiment harness that measures Schatten-vs-mixed-norm
ratios for a family of boundedness statements.

Each module's `__all__` is its public API; the package re-exports their
union.  `cli` is left out, so `python -m gaborlab.cli` does not find
itself already imported.
"""

from . import fio, frames, lab, mixednorm, operators, schatten, signals
from .signals import *
from .operators import *
from .mixednorm import *
from .frames import *
from .fio import *
from .schatten import *
from .lab import *

__version__ = "0.1.0"

__all__ = [name for module in (signals, operators, mixednorm, frames, fio, schatten, lab)
           for name in module.__all__]
