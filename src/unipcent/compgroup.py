"""Conjugacy classes of unipotent-centralizer component groups, assembled.

A record pairs a subsystem class (a proper node subset J) with a distinguished
labeling of its base; records are classified up to Weyl conjugacy of labeled
bases and grouped by their induced ambient diagram.  Each diagram's multiset
of coset orders d_J is then matched against a closed list of candidate groups
under divisibility (the image of a coset generator can have smaller order in
the component group than the coset itself has in Z/Z°).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .balacarter import LabeledSubDiagram, distinguished_labelings_for_base
from .errors import FingerprintError, InputError, InvariantViolation
from .induce import LabeledDiagram, diagram_of_dominant
from .pseudolevi import (
    _check_subset,
    _proper_subsets,
    base_components,
    extended_diagram,
    enumerate_pseudolevis,
    torsion_order,
)
from .rootsys import (
    DEFAULT_BUDGET,
    CartanType,
    CocharVec,
    RootSystem,
    WeylWord,
    _reflect_to_dominant,
    coroot_coefficients,
    coroot_combination,
    is_good_prime,
    partition_orbits,
    transport_start,
)


class TripleRecord(NamedTuple):
    """One conjugacy class in some A(u): a labeled pseudo-Levi datum.

    lam is the cocharacter of the labels, as integer coweight coordinates.
    word carries lam to its dominant form, whose coordinates are the induced
    diagram; it moves the labeled base along for the conjugacy walks.
    """

    J: tuple[int, ...]
    labels: LabeledSubDiagram
    lam: tuple[int, ...]
    induced: LabeledDiagram
    order: int
    factor_types: tuple[CartanType, ...]
    word: WeylWord


class AuReport(NamedTuple):
    """All A(u)-classes of one unipotent class, with the recognized group.

    torsion_orders lists the coset orders d_J of the records; orders lists the
    element orders of the recognized group's classes (these differ exactly
    when a coset order exceeds its image's order in A(u)).
    """

    diagram: LabeledDiagram
    classes: tuple[TripleRecord, ...]
    torsion_orders: tuple[int, ...]
    orders: tuple[int, ...]
    group_name: str


def build_triple_record(
    rs: RootSystem,
    J: Iterable[int],
    labels: LabeledSubDiagram,
    order: int | None = None,
) -> TripleRecord:
    """Assemble a record for a node subset J with labeled base items."""
    ext = extended_diagram(rs)
    J = _check_subset(ext, J)
    items = tuple(sorted((tuple(r), int(l)) for r, l in labels))
    if len(items) != len(J) or {r for r, _ in items} != {ext.root_of[j] for j in J}:
        raise InputError("labels must cover exactly the roots of J")
    if order is None:
        order = torsion_order(ext, J)
    ((rec, _),) = _labeled_records(rs, J, order, [items])
    return rec


def _labeled_records(
    rs: RootSystem,
    J: tuple[int, ...],
    dJ: int,
    labelings: Iterable[LabeledSubDiagram] | None = None,
):
    """(record, factor-label invariant) for each labeling of J's base.

    labelings defaults to every distinguished labeling.  J's base is split
    into components once.  A record's cocharacter sums, over the components,
    the coroot_coefficients of the component's type and labels times its
    coroots; one dominant reduction gives the induced diagram and the word
    the record keeps.
    """
    ext = extended_diagram(rs)
    nodes = sorted(J, key=ext.root_of.__getitem__)  # the order of sorted items
    base = tuple(ext.root_of[j] for j in nodes)
    pairings = ext.pairings(nodes)
    coroot_of = dict(zip(base, pairings[1]))
    comps = base_components(rs, base, pairings)
    types = tuple(sorted(ct for ct, _ in comps))
    if labelings is None:
        labelings = distinguished_labelings_for_base(rs, base, comps)
    for items in labelings:
        label_of = dict(items)
        terms = []
        for ct, roots in comps:
            coeffs = coroot_coefficients(ct, tuple(label_of[r] for r in roots))
            terms.extend((c, coroot_of[r]) for r, c in zip(roots, coeffs))
        lam = coroot_combination(rs.rank, terms)
        cochar = tuple(lam)
        word = tuple(_reflect_to_dominant(rs, lam, range(rs.rank)))
        rec = TripleRecord(J, items, cochar, diagram_of_dominant(lam), dJ, types, word)
        yield rec, _factor_label_invariant(comps, items)


def _factor_label_invariant(
    comps: Iterable[tuple[CartanType, tuple]], labels: LabeledSubDiagram
) -> tuple[tuple[CartanType, tuple[int, ...]], ...]:
    """Multiset of (factor type, sorted labels on that factor): a conjugacy invariant."""
    label_map = dict(labels)
    return tuple(
        sorted((ct, tuple(sorted(label_map[r] for r in roots))) for ct, roots in comps)
    )


def _transport(rs: RootSystem, rec: TripleRecord) -> tuple[CocharVec, tuple[int, ...]]:
    """dominant_transport of the record's labels, from the reduction it stored.

    The dominant cocharacter's coordinates are the induced diagram.
    """
    return rec.induced, transport_start(rs, rec.labels, rec.word)


def _orbit_representatives(
    rs: RootSystem, records: Iterable[tuple[TripleRecord, tuple]], budget: int
) -> list[TripleRecord]:
    """One record per Weyl orbit of labeled bases, the one with the smallest labels.

    records yields (record, factor-label invariant) pairs.  Records are
    bucketed by (induced diagram, order, factor labels); only a bucket with
    several members is split into orbits.
    """
    buckets: dict[tuple, list[TripleRecord]] = {}
    for rec, invariant in records:
        buckets.setdefault((rec.induced, rec.order, invariant), []).append(rec)
    kept = []
    for members in buckets.values():
        if len(members) == 1:
            kept.append(members[0])
            continue
        pairs = [_transport(rs, rec) for rec in members]
        for orbit in partition_orbits(rs, pairs, budget):
            kept.append(min((members[k] for k in orbit), key=lambda r: r.labels))
    return kept


def enumerate_triples(
    rs: RootSystem, budget: int = DEFAULT_BUDGET
) -> tuple[TripleRecord, ...]:
    """One record per Weyl orbit of (subsystem class, distinguished labeling)."""
    return _enumerate_triples_cached(rs, budget)


@lru_cache(maxsize=None)
def _enumerate_triples_cached(rs: RootSystem, budget: int) -> tuple[TripleRecord, ...]:
    # Labelings of one class can still be Weyl-conjugate when the subsystem
    # has isomorphic factors the ambient group can swap.
    records = [
        rec
        for pl in enumerate_pseudolevis(rs, budget)
        for rec in _orbit_representatives(
            rs, _labeled_records(rs, pl.J, pl.dJ), budget
        )
    ]
    records.sort(key=lambda r: (r.induced, r.order, r.factor_types, r.labels, r.J))
    return tuple(records)


def count_pair_orbits(rs: RootSystem, budget: int = DEFAULT_BUDGET) -> int:
    """Independent recount: classify every (J, labeling) pair directly.

    Walks all proper subsets with all distinguished labelings, skipping the
    subsystem-class grouping that enumerate_triples relies on.
    """
    ext = extended_diagram(rs)
    records = (
        rec
        for J in _proper_subsets(len(ext.root_of))
        for rec in _labeled_records(rs, J, torsion_order(ext, J))
    )
    return len(_orbit_representatives(rs, records, budget))


def _euler_phi(n: int) -> int:
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


_SYM_FINGERPRINTS = {
    "Sym(3)": (1, 2, 3),
    "Sym(4)": (1, 2, 2, 3, 4),
    "Sym(5)": (1, 2, 2, 3, 4, 5, 6),
}


def _candidate_class_data(n_classes: int) -> list[tuple[str, tuple[tuple[int, bool], ...]]]:
    """Candidate groups with n_classes classes, as (order, rational?) per class.

    A class is rational when it equals the class of every coprime power of its
    elements; symmetric groups are wholly rational, as are elementary abelian
    2-groups, while a cyclic group of order >= 3 has irrational generator
    classes.
    """
    out = []
    if n_classes == 1:
        out.append(("trivial", ((1, True),)))
    if n_classes >= 2 and n_classes & (n_classes - 1) == 0:
        k = n_classes.bit_length() - 1
        out.append(
            (f"ElemAb2({k})", ((1, True),) + ((2, True),) * (n_classes - 1))
        )
    if n_classes >= 3:
        classes = tuple(
            (e, e <= 2)
            for e in range(1, n_classes + 1)
            if n_classes % e == 0
            for _ in range(_euler_phi(e))
        )
        out.append((f"Cyc({n_classes})", classes))
    for name, fp in _SYM_FINGERPRINTS.items():
        if len(fp) == n_classes:
            out.append((name, tuple((o, True) for o in fp)))
    return out


def _match_classes(torsions: tuple[int, ...], classes: tuple[tuple[int, bool], ...]) -> bool:
    """Perfect matching of records to group classes under the order constraints.

    A record of coset order d can carry a class of element order o iff o
    divides d, o = 1 exactly when d = 1, and the class is rational (the
    normalizer of the pseudo-Levi conjugates a generator to all its coprime
    powers, so the image class must equal its coprime-power classes).
    """
    remaining = list(classes)

    def backtrack(i: int) -> bool:
        if i == len(torsions):
            return not remaining
        d = torsions[i]
        tried = set()
        for idx, (o, rational) in enumerate(remaining):
            if (o, rational) in tried:
                continue
            tried.add((o, rational))
            if not rational:
                continue
            if (o == 1) != (d == 1):
                continue
            if d % o != 0:
                continue
            remaining.pop(idx)
            if backtrack(i + 1):
                remaining.insert(idx, (o, rational))
                return True
            remaining.insert(idx, (o, rational))
        return False

    return backtrack(0)


def recognize_group_from_torsion(torsions: Iterable[int]) -> tuple[str, tuple[int, ...]]:
    """The group whose rational classes fit the coset orders d_J, with its orders.

    The coset order d_J bounds the image element's order in A(u) (the image
    of the d_J-th power is central-connected, hence trivial); equality can
    fail, so recognition matches records to classes under divisibility rather
    than insisting the multisets agree.  Exactly one candidate may fit.
    """
    torsions = tuple(sorted(int(d) for d in torsions))
    if not torsions:
        raise InputError("empty torsion multiset")
    if torsions.count(1) != 1:
        raise InputError(f"exactly one trivial coset expected: {torsions}")
    matches = []
    for name, classes in _candidate_class_data(len(torsions)):
        if _match_classes(torsions, classes):
            matches.append((name, tuple(sorted(o for o, _ in classes))))
    if len(matches) != 1:
        raise FingerprintError(
            f"coset orders {torsions} matched"
            f" {[m[0] for m in matches] or 'no candidate'}"
        )
    return matches[0]


def component_group_report(
    rs: RootSystem, p: int = 0, budget: int = DEFAULT_BUDGET
) -> dict[LabeledDiagram, AuReport]:
    """Per unipotent class (keyed by labeled diagram), the A(u) class data.

    The characteristic enters only through the good-prime gate; reports are
    identical for every good p.
    """
    if not is_good_prime(rs, p):
        raise InputError(f"p={p} is not good for {rs.ctype}")
    records = enumerate_triples(rs, budget=budget)
    grouped: dict[LabeledDiagram, list[TripleRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.induced, []).append(rec)
    out: dict[LabeledDiagram, AuReport] = {}
    for diagram in sorted(grouped):
        classes = tuple(
            sorted(grouped[diagram], key=lambda r: (r.order, r.factor_types, r.labels))
        )
        torsions = tuple(sorted(r.order for r in classes))
        if torsions.count(1) != 1:
            raise InvariantViolation(
                f"diagram {diagram} of {rs.ctype} has {torsions.count(1)} order-1 classes"
            )
        name, orders = recognize_group_from_torsion(torsions)
        out[diagram] = AuReport(diagram, classes, torsions, orders, name)
    return out
