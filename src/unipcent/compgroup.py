"""Conjugacy classes of unipotent-centralizer component groups, assembled.

A record pairs a subsystem class (a proper node subset J) with a distinguished
labeling of its base; pseudolevi.enumerate_triples classifies records up to
Weyl conjugacy of labeled bases, and the report cuts them into runs of equal
induced ambient diagram.  Each diagram's class count picks the one candidate
group with that many classes, and its coset orders d_J are matched to the
candidate's class orders under divisibility, by Hall's condition (the image of
a coset generator can have smaller order in the component group than the
coset itself has in Z/Z°).
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations, groupby
from operator import attrgetter, or_
from typing import Iterable, NamedTuple

from .balacarter import LabeledSubDiagram
from .errors import FingerprintError, InputError, InvariantViolation
from .pseudolevi import (
    TripleRecord,
    _check_subset,
    _labeled_records,
    _pair_orbits,
    _proper_subsets,
    enumerate_triples,
    extended_diagram,
)
from .rootsys import DEFAULT_BUDGET, LabeledDiagram, RootSystem, _labeled_items, is_good_prime


class AuReport(NamedTuple):
    """All A(u)-classes of one unipotent class, with the recognized group.

    torsion_orders lists the coset orders d_J of the records; orders lists the
    element orders of the recognized group's classes (these differ exactly
    when a coset order exceeds its image's order in A(u)).
    """

    diagram: LabeledDiagram
    classes: tuple[TripleRecord, ...]
    orders: tuple[int, ...]
    group_name: str

    @property
    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(r.order for r in self.classes)


def build_triple_record(
    rs: RootSystem,
    J: Iterable[int],
    labels: LabeledSubDiagram,
) -> TripleRecord:
    """Assemble a record for a node subset J with labeled base items; every label is an int."""
    ext = extended_diagram(rs)
    J = _check_subset(ext, J)
    items = _labeled_items(labels)
    if len(items) != len(J) or {r for r, _ in items} != {ext.root_of[j] for j in J}:
        raise InputError("labels must cover exactly the roots of J")
    (rec,) = _labeled_records(rs, J, [items])
    return rec


def count_pair_orbits(rs: RootSystem, budget: int = DEFAULT_BUDGET) -> int:
    """Independent recount: the pair orbits of every proper subset.

    The same split as enumerate_triples, over all proper subsets instead of
    one per move group, so it checks the elementary moves and nothing else.
    """
    n_nodes = len(extended_diagram(rs).root_of)
    return len(_pair_orbits(rs, _proper_subsets(n_nodes), budget))


_FIXED_CANDIDATES = {
    1: ("trivial", (1,)),
    3: ("Sym(3)", (1, 2, 3)),
    5: ("Sym(4)", (1, 2, 2, 3, 4)),
    7: ("Sym(5)", (1, 2, 2, 3, 4, 5, 6)),
}


def _candidate(n_classes: int) -> tuple[str, tuple[int, ...]] | None:
    """The one candidate group with n_classes classes, with its sorted class orders.

    The candidates have 1, 2^k, 3, 5 and 7 classes.  A record's image class
    must be rational, equal to the class of every coprime power of its
    elements: the normalizer of the pseudo-Levi conjugates a coset generator
    to all its coprime powers.  Symmetric groups and elementary abelian
    2-groups are wholly rational.  A cyclic group of order n >= 3 is no
    candidate: its generator class of order n is irrational, so no record can
    carry it and no coset data fit the group.
    """
    if n_classes >= 2 and n_classes & (n_classes - 1) == 0:
        k = n_classes.bit_length() - 1
        return (f"ElemAb2({k})", (1,) + (2,) * (n_classes - 1))
    return _FIXED_CANDIDATES.get(n_classes)


def _match_classes(torsions: tuple[int, ...], orders: tuple[int, ...]) -> str | None:
    """None if the records can carry the group's classes one to one, else why not.

    A record of coset order d can carry a class of element order o iff o
    divides d and o = 1 exactly when d = 1.  Classes of one order fit the
    same records, so by Hall's marriage theorem the records carry the classes
    iff they are as many and, for every set V of distinct class orders, the
    records that fit some order in V number at least the classes of an order
    in V.  The first V to fail, fewest orders first, is named.
    """
    if len(torsions) != len(orders):
        return f"{len(orders)} classes for {len(torsions)} records"
    fits = {  # bit i of fits[o] is set iff record i fits class order o
        o: sum(1 << i for i, d in enumerate(torsions) if d % o == 0 and (o == 1) == (d == 1))
        for o in set(orders)
    }
    values = sorted(fits)
    for size in range(1, len(values) + 1):
        for V in combinations(values, size):
            n_classes = sum(map(orders.count, V))
            n_fit = reduce(or_, map(fits.get, V)).bit_count()
            if n_fit < n_classes:
                V = "{" + ", ".join(map(str, V)) + "}"
                return f"classes of order in {V} number {n_classes}, records fitting them {n_fit}"
    return None


def recognize_group_from_torsion(torsions: Iterable[int]) -> tuple[str, tuple[int, ...]]:
    """The group whose rational classes fit the coset orders d_J, with its orders.

    The coset order d_J bounds the image element's order in A(u) (the image
    of the d_J-th power is central-connected, hence trivial); equality can
    fail, so recognition matches records to classes under divisibility rather
    than insisting the multisets agree.  The class count picks the one
    candidate tried, and a FingerprintError names the constraint that rejects
    it.  Every order must be an int; a bool is not one.
    """
    torsions = tuple(torsions)
    for d in torsions:
        if not isinstance(d, int) or isinstance(d, bool):
            raise InputError(f"coset orders must be integers, got {d!r}")
    torsions = tuple(sorted(torsions))
    if not torsions:
        raise InputError("empty torsion multiset")
    if torsions[0] < 1:
        raise InputError(f"coset orders must be at least 1: {torsions}")
    if torsions.count(1) != 1:
        raise InputError(f"exactly one trivial coset expected: {torsions}")
    candidate = _candidate(len(torsions))
    if candidate is None:
        reason = f"none has {len(torsions)} classes"
    elif mismatch := _match_classes(torsions, candidate[1]):
        reason = f"{candidate[0]}'s {mismatch}"
    else:
        return candidate
    raise FingerprintError(f"coset orders {torsions} fit no candidate group: {reason}")


def component_group_report(
    rs: RootSystem, p: int = 0, budget: int = DEFAULT_BUDGET
) -> dict[LabeledDiagram, AuReport]:
    """Per unipotent class (keyed by labeled diagram), the A(u) class data.

    The characteristic enters only through the good-prime gate; reports are
    identical for every good p.  Reports come in diagram order, and each
    report's classes in the order of enumerate_triples, which sorts them.
    """
    if not is_good_prime(rs, p):
        raise InputError(f"p={p} is not good for {rs.ctype}")
    out: dict[LabeledDiagram, AuReport] = {}
    records = enumerate_triples(rs, budget=budget)
    for diagram, run in groupby(records, attrgetter("induced")):
        classes = tuple(run)
        torsions = tuple(r.order for r in classes)
        if torsions.count(1) != 1:
            raise InvariantViolation(
                f"diagram {diagram} of {rs.ctype} has {torsions.count(1)} order-1 classes"
            )
        name, orders = recognize_group_from_torsion(torsions)
        out[diagram] = AuReport(diagram, classes, orders, name)
    return out
