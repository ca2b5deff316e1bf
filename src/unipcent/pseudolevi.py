"""Closed subsystems attached to subsets of the extended Dynkin diagram.

Node ids: 0..rank-1 are the simple roots (Bourbaki order), rank is the affine
node carrying minus the highest root with mark 1.  For a proper subset J of
the nodes, the subsystem is the set of roots in the integer span of J's roots,
with the torsion order d_J = gcd of the marks outside J.

The one split of node subsets into typed components is
RootSystem.subset_components; the elementary moves and the records both read
it, and base_components, which splits a base of roots, is its reference.
A record is J with a labeling of its base.  Weyl conjugacy of records is
decided by one conjugacy.partition_orbits call, which buckets by one key and
walks: _pair_orbits builds the record of every distinguished labeling of a
list of subsets, has conjugacy.transport_start move and refine each one's
roots, and keeps one record per orbit, the smallest (affine node in J, J,
labels).
It is the one split: enumerate_triples runs it on one subset per move
group, elementary moves (_move_groups) having merged subsets whose
subsystems a longest element carries onto each other, and
compgroup.count_pair_orbits on every proper subset.  Every subsystem class
has a distinguished labeling, so enumerate_pseudolevis reads the classes
off enumerate_triples' records.
"""
from __future__ import annotations

import itertools
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .balacarter import LabeledSubDiagram, distinguished_labelings_for_base
from .conjugacy import (
    DEFAULT_BUDGET,
    _check_budget,
    _closure,
    _reflect_to_dominant,
    partition_orbits,
    transport_start,
)
from .errors import InputError, InvariantViolation, WitnessSearchExhausted
from .rootsys import (
    CartanType,
    CocharVec,
    ExtendedDiagram,
    LabeledDiagram,
    RootSystem,
    RootVec,
    WeylWord,
    _component_type,
    _fractions,
    _ints,
    _is_prime,
    _opposition,
    _over_lcm,
    affine_node,
    alcove_reduce,
    base_pairings,
    coroot_coefficients,
    coroot_combination,
    is_good_prime,
)


def extended_diagram(rs: RootSystem) -> ExtendedDiagram:
    return rs.extended_diagram


def _check_subset(ext: ExtendedDiagram, J: Iterable[int]) -> tuple[int, ...]:
    J = tuple(sorted(set(_ints(J, "node ids"))))
    nodes = set(ext.nodes)
    if not set(J) <= nodes:
        raise InputError(f"J contains unknown nodes: {J}")
    if len(J) == len(nodes):
        raise InputError("J must be a proper subset of the extended node set")
    return J


def subsystem_closure(ext: ExtendedDiagram, J: Iterable[int]) -> frozenset[RootVec]:
    """R_J: the roots in the integer span of the node roots of J (J proper).

    Computed as the orbit of J's node roots under J's own reflections, run on
    the permutations of rs.root_index.  The two agree: the roots pairing
    integrally with a point of the closed alcove whose walls are exactly J
    form a root system with base J, so they are the orbit; and they contain
    every root in the span of J, which contains the orbit.
    oracle.lattice_root_closure computes the span's roots directly.
    """
    J = _check_subset(ext, J)
    table = ext.rs.root_index
    perms = [table.reflections[j] for j in J]
    seeds = {table.index[ext.root_of[j]] for j in J}
    orbit = _closure(seeds, lambda i: [perm[i] for perm in perms])
    return frozenset(map(table.roots.__getitem__, orbit))


def _component_split(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    """The connected components of a Cartan matrix's diagram, as sorted positions."""
    comps, seen = [], set()
    for start in range(len(cartan)):
        if start not in seen:
            seen.add(start)
            comp = [start]
            for v in comp:  # comp grows while it is scanned
                for w, c in enumerate(cartan[v]):
                    if c and w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(sorted(comp))
    return comps


def base_components(
    rs: RootSystem, base: Sequence[RootVec]
) -> tuple[tuple[CartanType, tuple[RootVec, ...]], ...]:
    """Irreducible components of a base, each with roots in standard node order.

    The reference for RootSystem.subset_components: it splits the base's own
    Cartan submatrix (base_pairings), and each component's type is read off
    its block alone.
    """
    base = tuple(base)
    cartan, _ = base_pairings(rs, base)
    out = []
    for comp in _component_split(cartan):
        M = tuple([tuple([cartan[a][b] for b in comp]) for a in comp])
        ct, order = _component_type(M)
        out.append((ct, tuple([base[comp[i]] for i in order])))
    return tuple(sorted(out))


def torsion_order(ext: ExtendedDiagram, J: Iterable[int]) -> int:
    """gcd of the marks over the complement of J in the extended node set."""
    J = _check_subset(ext, J)
    return gcd(*[mark for node, mark in enumerate(ext.mark_of) if node not in J])


class PseudoLevi(NamedTuple):
    """One Weyl-conjugacy class of subsystems: its preferred subset J, the
    factor types of R_J and d_J.  subsystem_closure(ext, J) is R_J."""

    J: tuple[int, ...]
    factor_types: tuple[CartanType, ...]
    dJ: int


def _proper_subsets(n_nodes: int):
    for size in range(n_nodes):
        yield from itertools.combinations(range(n_nodes), size)


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


_DIAGRAM_LABELS = frozenset((0, 1, 2))


def diagram_of_dominant(lam_dom: Sequence[int]) -> LabeledDiagram:
    """The labels of a dominant integer cocharacter; must land in {0, 1, 2}."""
    labels = tuple(lam_dom)
    if not _DIAGRAM_LABELS.issuperset(labels):
        raise InvariantViolation(
            f"induced labels {labels} leave {{0,1,2}}; upstream data is corrupt"
        )
    return labels


def _labeled_records(
    rs: RootSystem,
    J: tuple[int, ...],
    labelings: Iterable[LabeledSubDiagram] | None = None,
):
    """The record of each labeling of J's base.

    labelings defaults to every distinguished labeling; each is a tuple of
    (root, label) items sorted by root.  J's components are read from
    rs.subset_components.  A record's cocharacter sums, over the
    components, the coroot_coefficients of the component's type and labels,
    read in its node order, times its nodes' coroot_rows; one dominant
    reduction gives the induced diagram and the word the record keeps.
    """
    ext = rs.extended_diagram
    dJ = torsion_order(ext, J)
    comps = rs.subset_components[sum([1 << j for j in J])]
    types = tuple([ct for ct, _ in comps])  # the table sorts by type first
    root_of, rows = ext.root_of, ext.coroot_rows
    if labelings is None:
        labelings = distinguished_labelings_for_base(
            [(ct, tuple(map(root_of.__getitem__, nodes))) for ct, nodes in comps]
        )
    for items in labelings:
        label_of = dict(items)
        terms = []
        for ct, nodes in comps:
            coeffs = coroot_coefficients(ct, tuple([label_of[root_of[j]] for j in nodes]))
            terms += zip(coeffs, map(rows.__getitem__, nodes))
        lam = coroot_combination(rs.rank, terms)
        cochar = tuple(lam)
        word = tuple(_reflect_to_dominant(rs, lam, range(rs.rank)))  # lam turns dominant
        yield TripleRecord(J, items, cochar, diagram_of_dominant(lam), dJ, types, word)


def _pair_orbits(
    rs: RootSystem, subsets: Iterable[tuple[int, ...]], budget: int
) -> list[TripleRecord]:
    """One record per Weyl orbit of the distinguished labelings of the subsets.

    Every distinguished labeling of each subset gets a record, and the
    reduction it stored gives its triple: lam_dom is its induced diagram,
    the dominant cocharacter's coordinates, and transport_start moves and
    refines its base.  One partition_orbits call splits them all; budget bounds each
    stabilizer-orbit walk.  Each orbit keeps its smallest record by (affine
    node in J, J, labels).
    """
    aff = affine_node(rs)
    records = [rec for J in subsets for rec in _labeled_records(rs, J)]
    triples = [(r.induced, *transport_start(rs, r.labels, r.word, r.induced)) for r in records]
    return [
        min([records[k] for k in orbit], key=lambda r: (aff in r.J, r.J, r.labels))
        for orbit in partition_orbits(rs, triples, budget)
    ]


def _move_groups(ext: ExtendedDiagram) -> list[list[tuple[int, ...]]]:
    """The proper subsets of the extended nodes, grouped by elementary moves.

    A move takes J and a node s outside it with M = J + {s} still proper, and
    carries J to M less sigma(s), where sigma is the opposition involution of
    the component C of M that holds s.  The longest element of W_M sends the
    roots of J in C to minus their sigma-images and the root system of each
    other component of M onto itself, so it maps R_J onto the image's
    subsystem, and a group lies in one Weyl class.  The moves generate
    conjugacy of parabolic subsets in the affine Weyl group (Deodhar, Comm.
    Algebra 10, 1982); subsets that only W relates are left in different
    groups.

    So for each proper M and each 2-cycle (u, v) of the sigma of one of its
    components (rs.subset_components, rootsys._opposition), M less u and M
    less v are one move apart.  Subsets are bit masks until the groups are
    returned, in the order of their first subset in _proper_subsets.
    """
    linked: dict[int, list[int]] = {}
    for M, comps in ext.rs.subset_components.items():
        for ct, node in comps:  # node: standard position -> node
            for k, t in enumerate(_opposition(ct)):
                if k < t:
                    J, K = M & ~(1 << node[k]), M & ~(1 << node[t])
                    linked.setdefault(J, []).append(K)
                    linked.setdefault(K, []).append(J)
    grouped: set[int] = set()
    groups = []
    for J in _proper_subsets(len(ext.root_of)):
        start = sum([1 << j for j in J])
        if start not in grouped:
            group = _closure([start], lambda K: linked.get(K, ()))
            grouped.update(group)
            groups.append([tuple([j for j in ext.nodes if K >> j & 1]) for K in group])
    return groups


def enumerate_triples(
    rs: RootSystem, budget: int = DEFAULT_BUDGET
) -> tuple[TripleRecord, ...]:
    """One record per Weyl orbit of (subsystem class, distinguished labeling).

    _pair_orbits over the preferred subset of each move group
    (_move_groups): a subset of the simple nodes if there is one, then the
    lexicographically smallest node tuple.  An orbit holds a record of every
    such subset of its class, so the one it keeps has the class's preferred
    subset and, of that subset's labelings in the orbit, the smallest.
    Labelings of one class can still be Weyl-conjugate when the subsystem
    has isomorphic factors the ambient group can swap.

    Records are sorted by induced diagram, then by order, factor types,
    labels and J; this is the one place the report's order is decided.
    budget bounds each stabilizer-orbit walk (BudgetExceeded).  The result
    is kept in rs.results; a budget that is not an int >= 1 is an
    InputError, raised before anything is built.
    """
    _check_budget(budget)
    key = ("triples", budget)
    if key not in rs.results:
        aff = affine_node(rs)
        subsets = [
            min(group, key=lambda J: (aff in J, J))
            for group in _move_groups(rs.extended_diagram)
        ]
        records = _pair_orbits(rs, subsets, budget)
        records.sort(key=lambda r: (r.induced, r.order, r.factor_types, r.labels, r.J))
        rs.results[key] = tuple(records)
    return rs.results[key]


def enumerate_pseudolevis(
    rs: RootSystem, budget: int = DEFAULT_BUDGET
) -> tuple[PseudoLevi, ...]:
    """All subsystem classes R_J for proper subsets J, one representative each.

    The classes are the subsets J that the records of enumerate_triples
    carry: every class has a distinguished labeling (all 2, or the empty one
    of the torus), and each record's J is its class's preferred subset.
    Output is sorted by (rank of subsystem, factor types, d_J, J).  budget
    is enumerate_triples'.  Nothing is closed: subsystem_closure(ext, J)
    gives a class's root set.
    """
    # Any record of J will do: its order and factor types are J's.
    by_subset = {r.J: r for r in enumerate_triples(rs, budget)}
    out = [PseudoLevi(J, r.factor_types, r.order) for J, r in by_subset.items()]
    out.sort(key=lambda pl: (len(pl.J), pl.factor_types, pl.dJ, pl.J))
    return tuple(out)


def point_order(lam: Sequence) -> int:
    """Order of the point in the torus V / (coweight lattice)."""
    return _over_lcm(lam)[1]


def witness_element(rs: RootSystem, J: Iterable[int], p: int) -> CocharVec:
    """A rational point whose alcove wall set is exactly J, of order prime to p.

    Built in Kac coordinates (Kac 8.6).  Let rest be the removed simple
    nodes, less the first one i1 when J holds the affine node, t the sum of
    their marks and q the least prime above t other than p.  The point is 1/q
    on each node of rest and, when J holds the affine node, (q - t)/(a q) on
    i1, of mark a, which puts it on the affine wall.  Its order divides a q,
    prime to p as p is good.  One alcove_reduce checks the walls.  They
    differ, and WitnessSearchExhausted is raised, exactly when J holds the
    affine node and leaves out a single simple node, of mark 1, for then the
    point is a lattice point.
    """
    if not is_good_prime(rs, p):
        raise InputError(f"p={p} is not good for {rs.ctype}")
    J = _check_subset(extended_diagram(rs), J)
    removed = [i for i in range(rs.rank) if i not in J]
    on_affine = affine_node(rs) in J
    rest = removed[1:] if on_affine else removed
    t = sum(rs.marks[i] for i in rest)
    q = next(q for q in itertools.count(t + 1) if q != p and _is_prime(q))
    a = rs.marks[removed[0]] if on_affine else 1
    num = [a if i in rest else 0 for i in range(rs.rank)]  # the point is num / (a q)
    if on_affine:
        num[removed[0]] = q - t
    vec = _fractions(num, a * q)
    _, walls = alcove_reduce(rs, vec)
    if walls != frozenset(J):
        raise WitnessSearchExhausted(
            f"no point of {rs.ctype} has alcove walls exactly J={J}"
            f" (the formula's point has walls {sorted(walls)})"
        )
    return vec
