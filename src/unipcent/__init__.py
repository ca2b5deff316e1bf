"""Component groups of unipotent centralizers in simple adjoint groups.

Exact root-system combinatorics: closed subsystems of the extended Dynkin
diagram, distinguished labelings, induced labeled diagrams, and the resulting
conjugacy-class and group-structure tables, all over rational arithmetic.
"""

__version__ = "0.1.0"

from .balacarter import (
    LabeledSubDiagram,
    distinguished_classes,
    distinguished_labelings_for_base,
)
from .compgroup import (
    AuReport,
    build_triple_record,
    component_group_report,
    count_pair_orbits,
    enumerate_triples,
    recognize_group_from_torsion,
)
from .errors import (
    BudgetExceeded,
    FingerprintError,
    InputError,
    InvariantViolation,
    WitnessSearchExhausted,
)
from .induce import cochar_for_labeled_base, induced_diagram
from .oracle import (
    alcove_reduce_map,
    all_roots,
    apply_word,
    canonical_subsystem,
    is_distinguished,
    lattice_root_closure,
    pairing,
    subsystem_base,
)
from .pseudolevi import (
    ExtendedDiagram,
    PseudoLevi,
    TripleRecord,
    enumerate_pseudolevis,
    extended_diagram,
    point_order,
    subsystem_closure,
    torsion_order,
    witness_element,
)
from .rootsys import (
    CartanType,
    CocharVec,
    LabeledDiagram,
    RootSystem,
    RootVec,
    WeylWord,
    affine_node,
    alcove_reduce,
    bad_primes,
    build_root_system,
    canonical_labeled_set,
    coroot,
    is_good_prime,
    to_dominant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
