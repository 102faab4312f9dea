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
"""

from .delta import (
    Character,
    OneRelatorModule,
    check_dim_identity,
    check_induced,
    check_lemma31,
    delta_set,
    generic_for,
    initial_form,
    sample_delta_point,
    tc_delta,
)
from .groups import (
    Class2Presentation,
    add_cyclic,
    central_product,
    heisenberg,
    structure_report,
)
from .lattice import Sublattice, Subspace, commensurable, hnf, kernel_lattice, saturate
from .polyhedral import (
    Cone,
    Fan,
    carrier_spaces,
    delta_star,
    fan_dim,
    fan_equal,
    local_cone,
    preimage,
)
from .symplectic import (
    AlternatingMapQ,
    NoBaseFound,
    SymplecticBase,
    check_ample,
    compute_symplectic_base,
    decompose_abelian,
    verify_symplectic_base,
)
from .torus import (
    AlternatingFormZ,
    CocycleForm,
    QTorusElement,
    center_lattice,
    chi_min,
    cocycle_image,
    commutator_form,
    is_commutative,
    multiply,
    verify_theorem42,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingFormZ",
    "AlternatingMapQ",
    "Character",
    "Class2Presentation",
    "CocycleForm",
    "Cone",
    "Fan",
    "NoBaseFound",
    "OneRelatorModule",
    "QTorusElement",
    "Sublattice",
    "Subspace",
    "SymplecticBase",
    "add_cyclic",
    "carrier_spaces",
    "center_lattice",
    "central_product",
    "check_ample",
    "check_dim_identity",
    "check_induced",
    "check_lemma31",
    "chi_min",
    "cocycle_image",
    "commensurable",
    "commutator_form",
    "compute_symplectic_base",
    "decompose_abelian",
    "delta_set",
    "delta_star",
    "fan_dim",
    "fan_equal",
    "generic_for",
    "heisenberg",
    "hnf",
    "initial_form",
    "is_commutative",
    "kernel_lattice",
    "local_cone",
    "multiply",
    "preimage",
    "sample_delta_point",
    "saturate",
    "structure_report",
    "tc_delta",
    "verify_symplectic_base",
    "verify_theorem42",
]
