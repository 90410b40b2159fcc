"""Hopf arborescent calculus: signed plane trees, the homeomorphic-embedding
minor relation on them, Seifert-matrix invariants of the plumbed surfaces,
and excluded-minor mining over bounded tree universes.  Each library
module's ``__all__`` declares its public names, all importable from here."""

from .trees import *
from .embedding import *
from .invariants import *
from .minors import *

__version__ = "0.1.0"
