"""Exact Delta-set, local-cone and symplectic-base computations.

The package is organized in layers, each importing only those above it:

* :mod:`qtdelta._record` -- the frozen value base of every data type;
* :mod:`qtdelta.lattice` -- exact integer/rational linear algebra
  (Hermite forms, saturation, kernels, subspaces);
* :mod:`qtdelta.rng` -- deterministic seeded random streams;
* :mod:`qtdelta.polyhedral` -- rational cones and cone-union fans with
  double-description canonical forms and exact fan equality;
* :mod:`qtdelta.symplectic` -- alternating maps over Q, symplectic base
  search and verification, abelian-subspace splitting;
* :mod:`qtdelta.torus` -- twisted Laurent algebra over Q(q_1..q_s),
  commutator forms and block-decomposition audits;
* :mod:`qtdelta.delta` -- Delta sets of one-relator modules, initial
  forms, local-cone / dimension / induced-module checkers;
* :mod:`qtdelta.groups` -- class-2 nilpotent commutator data and the
  Heisenberg/cyclic structure report;
* :mod:`qtdelta.jsonio` -- the JSON readers and writer of the CLI;
* :mod:`qtdelta.cli` -- the ``qtdelta`` command-line front end.

Each layer from ``lattice`` to ``groups`` lists the names it exports in
its own ``__all__``; ``qtdelta.__all__`` is their union, sorted.
"""

from .delta import *
from .groups import *
from .lattice import *
from .polyhedral import *
from .symplectic import *
from .torus import *

__version__ = "0.1.0"

__all__ = sorted(delta.__all__ + groups.__all__ + lattice.__all__
                 + polyhedral.__all__ + symplectic.__all__ + torus.__all__)
