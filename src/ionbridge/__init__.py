"""Ion-mediated interactions of two trapped atoms bridged by a trapped ion.

The package computes adiabatic (fast ion, slow atoms) potentials for an
atom-ion-atom chain, expands them into effective trap frequencies and
phonon modes, locates the stability threshold separation, builds
two-atom motional ground states, and evaluates the non-adiabatic gauge
connection over the ion's mode ladder.  All inputs and outputs are SI
unless a name says otherwise.

Each module's ``__all__`` is its public interface, and the package
re-exports it whole, together with four of the constants.
"""

from .constants import ATOMIC_MASS_KG, HBAR, PLANCK, TWO_PI
from .errors import *
from .model import *
from .potentials import *
from .expansion import *
from .phonons import *
from .motion import *
from .gauge import *
from .config import *
from . import config, errors, expansion, gauge, model, motion, phonons, potentials

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_MASS_KG", "HBAR", "PLANCK", "TWO_PI",
    *errors.__all__, *model.__all__, *potentials.__all__, *expansion.__all__,
    *phonons.__all__, *motion.__all__, *gauge.__all__, *config.__all__,
    "__version__",
]
