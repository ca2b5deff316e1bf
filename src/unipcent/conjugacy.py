"""Weyl conjugacy of labeled bases: the reductions and walks that decide it.

A labeled base is carried along with its cocharacter: the Weyl word that
makes the cocharacter dominant moves the base's roots, and the moved roots
alone stand for the labeled base (transport_start).  partition_orbits then
splits many such bases into Weyl orbits by one key and a walk under a
parabolic stabilizer; rootsys.canonical_labeled_set takes the smallest state
of one such walk.  _closure is the one breadth-first closure the package
grows, and _check_budget the one check of a walk's budget.

At run time this module imports nothing from the package but errors.  A
RootSystem reaches it only as an argument, read through its rank, ctype,
positive_roots, root_index and extended_diagram, so rootsys imports this
module and not the other way round.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, KeysView, Sequence

from .errors import BudgetExceeded, InputError, InvariantViolation

if TYPE_CHECKING:
    from .rootsys import CocharVec, RootSystem, RootVec, WeylWord

DEFAULT_BUDGET = 10**7


def _reflect_to_dominant(
    rs: RootSystem, m: list[int], nodes: Sequence[int]
) -> list[int]:
    """Reflect the integer coweight m in place until it is dominant on nodes.

    Each step reflects at the first node, in the order of nodes, whose
    coordinate is negative, then rescans from the first node; s_i takes m to
    m - m[i] * alpha_i^vee, read off the extended diagram's coroot_rows[i],
    whose diagonal 2 negates coordinate i.  Returns the word.  The parabolic
    subgroup on nodes has no element longer than |R+|, so no walk takes more
    steps.
    """
    rows = rs.extended_diagram.coroot_rows
    word: list[int] = []
    for _ in range(len(rs.positive_roots) + 1):
        for i in nodes:
            if m[i] < 0:
                break
        else:
            return word
        coef = m[i]
        for j, c in rows[i]:
            m[j] -= coef * c
        word.append(i)
    raise InvariantViolation("dominant reduction failed to terminate")


def _moved_roots(rs: RootSystem, roots: Iterable[RootVec], word: WeylWord) -> list[int]:
    """The indices in rs.root_index of the roots, each moved by the word; a
    vector that is not a root is an InputError."""
    table = rs.root_index
    reflections = table.reflections
    moved = []
    for r in roots:
        i = table.index.get(tuple(r))
        if i is None:
            raise InputError(f"{r} is not a root of {rs.ctype}")
        for s in word:
            i = reflections[s][i]
        moved.append(i)
    return moved


def transport_start(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]], word: WeylWord, lam_dom: Sequence
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v_dom, start): a labeled base moved by a Weyl word, then refined under W_I.

    word is the word to_dominant returned for the cocharacter solved from
    the labels, and lam_dom the dominant cocharacter it reached; a caller
    that already ran that reduction passes both here instead of solving and
    reducing again.  Once moved by word, each label is its root's pairing
    with lam_dom, which the stabilizer W_I of lam_dom keeps (I the zero
    coordinates of lam_dom; Humphreys, Reflection Groups and Coxeter
    Groups, 1.12), so the moved roots alone stand for the labeled base.
    Their coweight v sums (rank(l) + 1) * coroot over the moved roots,
    rank(l) the position of l among the base's distinct labels.  It is
    W-equivariant, so bases in one W_I-orbit have equal v_dom, the
    W_I-dominant form of v, and two starts with equal v_dom are in one
    W_I-orbit iff they are in one orbit of v_dom's stabilizer in W_I.  v is
    reduced by to_dominant's rule restricted to I and the roots are moved
    by that word too; start is their sorted indices in rs.root_index.
    """
    table = rs.root_index
    items = tuple(items)
    rank = {l: k for k, l in enumerate(sorted({l for _, l in items}))}
    moved = _moved_roots(rs, [r for r, _ in items], word)
    v = [0] * rs.rank
    for i, (_, l) in zip(moved, items):
        v = [a + (rank[l] + 1) * c for a, c in zip(v, table.coroots[i])]
    for s in _reflect_to_dominant(rs, v, _zero_nodes(lam_dom, range(rs.rank))):
        moved = [table.reflections[s][i] for i in moved]
    return tuple(v), tuple(sorted(moved))


def _check_budget(budget) -> None:
    """A walk's budget must be an int of at least 1; a bool is not one."""
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise InputError(f"budget must be an integer >= 1, got {budget!r}")


def _closure(seeds: Iterable, images: Callable, budget: int | None = None) -> KeysView:
    """The closure of seeds under images, grown first in, first out, in the
    order reached.  With a budget, BudgetExceeded is raised as soon as one
    more element would pass it."""
    reached = dict.fromkeys(seeds)
    queue = list(reached)
    for x in queue:  # queue grows while it is scanned
        for y in images(x):
            if y not in reached:
                if budget is not None and len(reached) >= budget:
                    raise BudgetExceeded(f"walk exceeded {budget} states")
                reached[y] = None
                queue.append(y)
    return reached.keys()


def _stabilizer_orbit(
    rs: RootSystem, nodes: Sequence[int], start: tuple[int, ...], budget: int
) -> KeysView:
    """Every state of the orbit of start under the parabolic subgroup W_nodes.

    W_nodes is generated by the simple reflections s_i, i in nodes; each
    permutes the root indices of a start as rs.root_index.reflections[i].
    The stabilizer of a dominant vector is the W_nodes of its zero
    coordinates (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
    budget bounds the states visited (BudgetExceeded).
    """
    perms = [rs.root_index.reflections[i] for i in nodes]
    try:
        return _closure([start], lambda x: [tuple(sorted([p[c] for c in x])) for p in perms], budget)
    except BudgetExceeded:
        raise BudgetExceeded(
            f"stabilizer-orbit walk exceeded {budget} states"
            f" for a labeled base of {rs.ctype}"
        ) from None


def _zero_nodes(vec: Sequence, nodes: Iterable[int]) -> list[int]:
    return [i for i in nodes if vec[i] == 0]


def partition_orbits(
    rs: RootSystem,
    triples: Sequence[tuple[CocharVec, tuple[int, ...], tuple[int, ...]]],
    budget: int = DEFAULT_BUDGET,
) -> list[list[int]]:
    """Split (lam_dom, v_dom, start) triples of transport_start into Weyl orbits.

    Each triple is a dominant cocharacter lam_dom and the (v_dom, start)
    that transport_start gives for the word that reached it.  Returns the
    positions of each orbit's members.  Starts under one lam_dom are
    conjugate iff they are under its stabilizer W_I, I the zero coordinates
    of lam_dom, and transport_start has already refined each under W_I, so
    triples are bucketed by the one key (lam_dom, v_dom) and, inside a
    bucket, by start; a bucket is split under the smaller stabilizer of
    v_dom in W_I.  One walk is made per orbit found: the orbit
    of the first unassigned start collects every member whose start lies in
    it, and a start left alone needs no walk.  budget bounds the states of
    each walk.
    """
    _check_budget(budget)
    buckets: dict[tuple, dict[tuple[int, ...], list[int]]] = {}
    for pos, (lam_dom, v_dom, start) in enumerate(triples):
        buckets.setdefault((lam_dom, v_dom), {}).setdefault(start, []).append(pos)
    classes = []
    for (lam_dom, v_dom), group in buckets.items():
        nodes = _zero_nodes(v_dom, _zero_nodes(lam_dom, range(rs.rank)))
        while group:
            start = next(iter(group))
            members = group.pop(start)
            if group:
                orbit = _stabilizer_orbit(rs, nodes, start, budget)
                for other in [s for s in group if s in orbit]:
                    members += group.pop(other)
            classes.append(sorted(members))
    return classes
