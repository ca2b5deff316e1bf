"""Closed subsystems attached to subsets of the extended Dynkin diagram.

Node ids: 0..rank-1 are the simple roots (Bourbaki order), rank is the affine
node carrying minus the highest root with mark 1.  For a proper subset J of
the nodes, the subsystem is the set of roots in the integer span of J's roots,
with the torsion order d_J = gcd of the marks outside J.

A record is J with a labeling of its base.  Weyl conjugacy of records is
decided by one rootsys.partition_orbits call, which refines every start and
buckets by one key: _pair_orbits builds the record of every distinguished
labeling of a list of subsets, pairs each with its transported start, and
keeps one record per orbit, the smallest (affine node in J, J, labels).
It is the one split: enumerate_triples runs it on one subset per move
group, elementary moves (_move_groups) having merged subsets whose
subsystems a longest element carries onto each other, and
compgroup.count_pair_orbits on every proper subset.  Every subsystem class
has a distinguished labeling, so enumerate_pseudolevis reads the classes
off enumerate_triples' records.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .balacarter import LabeledSubDiagram, distinguished_labelings_for_base
from .errors import InputError, InvariantViolation, WitnessSearchExhausted
from .rootsys import (
    DEFAULT_BUDGET,
    CartanType,
    CocharVec,
    ExtendedDiagram,
    LabeledDiagram,
    Pairings,
    RootSystem,
    RootVec,
    WeylWord,
    _MAX_RANK,
    _MIN_RANK,
    _is_prime,
    _opposition,
    _reflect_to_dominant,
    affine_node,
    alcove_reduce,
    as_cochar,
    base_pairings,
    cartan_matrix,
    coroot_coefficients,
    coroot_combination,
    is_good_prime,
    partition_orbits,
    transport_start,
)


def extended_diagram(rs: RootSystem) -> ExtendedDiagram:
    return rs.extended_diagram


def _check_subset(ext: ExtendedDiagram, J: Iterable[int]) -> tuple[int, ...]:
    J = tuple(sorted(set(J)))
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
    seen = {table.index[ext.root_of[j]] for j in J}
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            for perm in perms:
                k = perm[i]
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
    return frozenset(map(table.roots.__getitem__, seen))


def _component_split(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    """The connected components of a Cartan matrix's diagram, as sorted positions."""
    k = len(cartan)
    seen = [False] * k
    comps = []
    for start in range(k):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # comp grows while it is scanned
            row = cartan[v]
            for w in range(k):
                if row[w] and not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def _candidate_types(k: int) -> list[CartanType]:
    """Every irreducible type of rank k, families in the order of _MIN_RANK."""
    return [
        CartanType(family, k)
        for family, low in _MIN_RANK.items()
        if low <= k <= _MAX_RANK.get(family, k)
    ]


def _match_cartan(M: list[list[int]], std: tuple[tuple[int, ...], ...]) -> list[int] | None:
    """A node order sigma with M[sigma[a]][sigma[b]] == std[a][b], or None."""
    k = len(M)
    deg_m = [sum(1 for b in range(k) if b != a and M[a][b] != 0) for a in range(k)]
    deg_s = [sum(1 for b in range(k) if b != a and std[a][b] != 0) for a in range(k)]
    assign: list[int] = []
    used = [False] * k

    def extend(a: int) -> bool:
        if a == k:
            return True
        for cand in range(k):
            if used[cand] or deg_m[cand] != deg_s[a]:
                continue
            ok = True
            for b in range(a):
                if (
                    M[cand][assign[b]] != std[a][b]
                    or M[assign[b]][cand] != std[b][a]
                ):
                    ok = False
                    break
            if ok:
                used[cand] = True
                assign.append(cand)
                if extend(a + 1):
                    return True
                assign.pop()
                used[cand] = False
        return False

    return assign[:] if extend(0) else None


@lru_cache(maxsize=None)
def _component_type(M: tuple[tuple[int, ...], ...]) -> tuple[CartanType, tuple[int, ...]]:
    """The type of an irreducible Cartan matrix and a node order matching it."""
    for ct in _candidate_types(len(M)):
        order = _match_cartan(M, cartan_matrix(ct))
        if order is not None:
            return ct, tuple(order)
    raise InvariantViolation("base is not of finite Cartan type")


def base_components(
    rs: RootSystem,
    base: Sequence[RootVec],
    pairings: Pairings | None = None,
) -> tuple[tuple[CartanType, tuple[RootVec, ...]], ...]:
    """Irreducible components of a base, each with roots in standard node order.

    pairings is base_pairings(rs, base), or ExtendedDiagram.pairings for a
    caller that holds node subsets; only its Cartan submatrix is read, and a
    component's type is read off that alone.
    """
    base = tuple(base)
    cartan, _ = base_pairings(rs, base) if pairings is None else pairings
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
    (root, label) items sorted by root.  J's base is split into components
    once.  A record's cocharacter sums, over the components, the
    coroot_coefficients of the component's type and labels times its
    coroots; one dominant reduction gives the induced diagram and the word
    the record keeps.
    """
    ext = rs.extended_diagram
    dJ = torsion_order(ext, J)
    nodes = sorted(J, key=ext.root_of.__getitem__)  # the order of sorted items
    base = [ext.root_of[j] for j in nodes]
    pairings = ext.pairings(nodes)
    coroot_of = dict(zip(base, pairings[1]))
    comps = base_components(rs, base, pairings)
    types = tuple([ct for ct, _ in comps])  # base_components sorts by type first
    if labelings is None:
        labelings = distinguished_labelings_for_base(comps)
    for items in labelings:
        label_of = dict(items)
        terms = []
        for ct, roots in comps:
            coeffs = coroot_coefficients(ct, tuple(map(label_of.__getitem__, roots)))
            terms += zip(coeffs, map(coroot_of.__getitem__, roots))
        lam = coroot_combination(rs.rank, terms)
        cochar = tuple(lam)
        word = tuple(_reflect_to_dominant(rs, lam, range(rs.rank)))  # lam turns dominant
        yield TripleRecord(J, items, cochar, diagram_of_dominant(lam), dJ, types, word)


def _pair_orbits(
    rs: RootSystem, subsets: Iterable[tuple[int, ...]], budget: int
) -> list[TripleRecord]:
    """One record per Weyl orbit of the distinguished labelings of the subsets.

    Every distinguished labeling of each subset gets a record, paired with
    dominant_transport's (lam_dom, start) from the reduction it stored: the
    dominant cocharacter's coordinates are the induced diagram.  One
    partition_orbits call splits them all; budget bounds each
    stabilizer-orbit walk.  Each orbit keeps its smallest record by
    (affine node in J, J, labels).
    """
    aff = affine_node(rs)
    records = [rec for J in subsets for rec in _labeled_records(rs, J)]
    pairs = [(r.induced, transport_start(rs, r.labels, r.word)) for r in records]
    return [
        min([records[k] for k in orbit], key=lambda r: (aff in r.J, r.J, r.labels))
        for orbit in partition_orbits(rs, pairs, budget)
    ]


def _move_groups(ext: ExtendedDiagram) -> list[list[tuple[int, ...]]]:
    """The proper subsets of the extended nodes, grouped by elementary moves.

    A move takes J and a node s outside it with M = J + {s} still proper, and
    carries J to M less sigma(s), where sigma is the opposition involution of
    the component C of M that holds s.  The longest element of W_M sends the
    roots of J in C to minus their sigma-images and the root system of each
    other component of M onto itself, so it maps R_J onto the image's
    subsystem: a group lies in one Weyl class.  The moves generate conjugacy of parabolic subsets in the
    affine Weyl group (Deodhar, Comm. Algebra 10, 1982); subsets that only W
    relates are left in different groups.

    So for each proper M and each 2-cycle (u, v) of the sigma of one of its
    components, read off the component's type (rootsys._opposition), M less
    u and M less v are one move apart.  Subsets are bit masks until the
    groups are returned, in the order of their first subset in
    _proper_subsets.
    """
    n_nodes, nodes, C = len(ext.root_of), ext.nodes, ext.cartan
    adjacent = [sum([1 << b for b in nodes if b != a and C[a][b]]) for a in nodes]
    swaps: dict[int, list[tuple[int, int]]] = {}  # component mask -> sigma's 2-cycles
    components = {0: []}  # subset mask -> masks of its components
    linked: dict[int, list[int]] = {}
    for M in range(1, (1 << n_nodes) - 1):
        low = M & -M  # M's components: those of M less its lowest node, joined at it
        touching = adjacent[low.bit_length() - 1]
        comps, joined = [], low
        for c in components[M ^ low]:
            if c & touching:
                joined |= c
            else:
                comps.append(c)
        comps.append(joined)
        components[M] = comps
        for c in comps:
            if c not in swaps:
                comp = [j for j in nodes if c >> j & 1]
                ct, order = _component_type(
                    tuple([tuple([C[a][b] for b in comp]) for a in comp])
                )
                node = [comp[k] for k in order]  # standard position -> node
                sigma = _opposition(ct)
                swaps[c] = [(node[k], node[t]) for k, t in enumerate(sigma) if k < t]
            for u, v in swaps[c]:
                J, K = M & ~(1 << u), M & ~(1 << v)
                linked.setdefault(J, []).append(K)
                linked.setdefault(K, []).append(J)
    seen = set()
    groups = []
    for J in _proper_subsets(n_nodes):
        start = sum([1 << j for j in J])
        if start in seen:
            continue
        seen.add(start)
        group = [start]
        for K in group:  # group grows while it is scanned
            for image in linked.get(K, ()):
                if image not in seen:
                    seen.add(image)
                    group.append(image)
        groups.append([tuple([j for j in nodes if K >> j & 1]) for K in group])
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
    is kept in rs.results.
    """
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
    out = 1
    for c in as_cochar(lam):
        out = out * c.denominator // gcd(out, c.denominator)
    return out


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
    vec = [Fraction(0)] * rs.rank
    for i in rest:
        vec[i] = Fraction(1, q)
    if on_affine:
        vec[removed[0]] = Fraction(q - t, rs.marks[removed[0]] * q)
    vec = tuple(vec)
    _, walls = alcove_reduce(rs, vec)
    if walls != frozenset(J):
        raise WitnessSearchExhausted(
            f"no point of {rs.ctype} has alcove walls exactly J={J}"
            f" (the formula's point has walls {sorted(walls)})"
        )
    return vec
