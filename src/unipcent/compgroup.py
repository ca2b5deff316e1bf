"""Conjugacy classes of unipotent-centralizer component groups, assembled.

A record pairs a subsystem class (a proper node subset J) with a distinguished
labeling of its base; records are classified up to Weyl conjugacy of labeled
bases and grouped by their induced ambient diagram.  Each diagram's multiset
of coset orders d_J is then matched against a closed list of candidate groups
under divisibility (the image of a coset generator can have smaller order in
the component group than the coset itself has in Z/Z°).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .balacarter import LabeledSubDiagram, distinguished_labelings_for_base
from .errors import BudgetExceeded, FingerprintError, InputError, InvariantViolation
from .induce import LabeledDiagram, cochar_for_labeled_base, induced_diagram
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
    canonical_labeled_set,
    is_good_prime,
)


@dataclass(frozen=True)
class TripleRecord:
    """One conjugacy class in some A(u): a labeled pseudo-Levi datum."""

    J: tuple[int, ...]
    labels: LabeledSubDiagram
    lam: CocharVec
    induced: LabeledDiagram
    order: int
    factor_types: tuple[CartanType, ...]


@dataclass(frozen=True)
class AuReport:
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
    if {r for r, _ in items} != {ext.root_of[j] for j in J}:
        raise InputError("labels must cover exactly the roots of J")
    lam = cochar_for_labeled_base(rs, items)
    diagram = induced_diagram(rs, lam)
    if order is None:
        order = torsion_order(ext, J)
    base = tuple(ext.root_of[j] for j in J)
    types = tuple(sorted(ct for ct, _ in base_components(rs, base)))
    return TripleRecord(J, items, lam, diagram, order, types)


def _factor_label_invariant(
    rs: RootSystem, record: TripleRecord
) -> tuple[tuple[CartanType, tuple[int, ...]], ...]:
    """Multiset of (factor type, sorted labels on that factor): a conjugacy invariant."""
    label_map = dict(record.labels)
    ext = extended_diagram(rs)
    base = tuple(ext.root_of[j] for j in record.J)
    out = []
    for ct, roots in base_components(rs, base):
        out.append((ct, tuple(sorted(label_map[r] for r in roots))))
    return tuple(sorted(out))


def pairs_conjugate(
    rs: RootSystem,
    t1: TripleRecord,
    t2: TripleRecord,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether some Weyl element maps one labeled base exactly onto the other."""
    if t1.J == t2.J and t1.labels == t2.labels:
        return True
    if (
        t1.order != t2.order
        or t1.induced != t2.induced
        or _factor_label_invariant(rs, t1) != _factor_label_invariant(rs, t2)
    ):
        return False
    try:
        c1 = canonical_labeled_set(rs, t1.labels, budget=budget)
        c2 = canonical_labeled_set(rs, t2.labels, budget=budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"conjugacy of {t1.J}/{dict(t1.labels)} vs {t2.J}/{dict(t2.labels)}"
            f" in {rs.ctype}: {exc}"
        ) from exc
    return c1 == c2


def _orbit_representatives(
    rs: RootSystem, records: Iterable[TripleRecord], budget: int
) -> list[TripleRecord]:
    """One record per Weyl orbit of labeled bases, the one with the smallest labels.

    Records are bucketed by (induced diagram, order, factor labels); only a
    bucket with several members is split by canonical form.
    """
    buckets: dict[tuple, list[TripleRecord]] = {}
    for rec in records:
        key = (rec.induced, rec.order, _factor_label_invariant(rs, rec))
        buckets.setdefault(key, []).append(rec)
    kept = []
    for members in buckets.values():
        if len(members) == 1:
            kept.append(members[0])
            continue
        by_canon: dict[tuple, TripleRecord] = {}
        for rec in members:
            canon = canonical_labeled_set(rs, rec.labels, budget=budget)
            if canon not in by_canon or rec.labels < by_canon[canon].labels:
                by_canon[canon] = rec
        kept.extend(by_canon.values())
    return kept


def _labeled_records(rs: RootSystem, J: tuple[int, ...], dJ: int):
    """A record for every distinguished labeling of J's base."""
    ext = extended_diagram(rs)
    base = tuple(ext.root_of[j] for j in J)
    for labeling in distinguished_labelings_for_base(rs, base):
        yield build_triple_record(rs, J, labeling, order=dJ)


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


def _cyclic_fingerprint(d: int) -> tuple[int, ...]:
    orders = []
    for e in range(1, d + 1):
        if d % e == 0:
            orders.extend([e] * _euler_phi(e))
    return tuple(sorted(orders))


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


def recognize_group(orders: Iterable[int]) -> str:
    """Match a class-order multiset against the candidate groups.

    Candidates: trivial, Cyc(d) for d >= 3, ElemAb2(k), Sym(3), Sym(4),
    Sym(5).  The order-two group is reported as ElemAb2(1).  Anything else,
    or an ambiguous match, is an error carrying the multiset.
    """
    orders = tuple(sorted(int(o) for o in orders))
    if not orders:
        raise InputError("empty order multiset")
    if any(o < 1 for o in orders):
        raise InputError(f"orders must be positive: {orders}")
    if orders.count(1) != 1:
        raise InputError(f"exactly one identity class expected: {orders}")
    matches = []
    n = len(orders)
    if orders == (1,):
        matches.append("trivial")
    d = orders[-1]
    if n == d >= 3 and orders == _cyclic_fingerprint(d):
        matches.append(f"Cyc({d})")
    if n >= 2 and n & (n - 1) == 0 and orders == (1,) + (2,) * (n - 1):
        matches.append(f"ElemAb2({n.bit_length() - 1})")
    for name, fp in _SYM_FINGERPRINTS.items():
        if orders == fp:
            matches.append(name)
    if len(matches) != 1:
        raise FingerprintError(
            f"order multiset {orders} matched {matches or 'no candidate'}"
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
