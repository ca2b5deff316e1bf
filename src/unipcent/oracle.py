"""Independent small-scale ground truth for tests and verification.

Four separate routes that never feed the main pipeline: rational alcove
points (subsystems found from points, not subsets), the integer-span closure
of a set of roots (Hermite normal form), classical partition combinatorics
for types A-D, and brute-force Weyl orbits.  A Smith-form utility exposes the
torsion of the span quotient for the residue checks.

The alcove-point side works on packed integers: the pairings of every
positive root with a grid vector share one int, a field per root, and each
step of the grid adds one packed column.  At a point c / q of the closed
alcove a positive root pairs into [0, q], so it is integral iff its field
is 0 or q; two broadword zero tests give the integral roots as a bitmask,
and a root set is built only for a new mask.  integrality_subsystem, root by
root, is the reference for those masks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, InputError, InvariantViolation
from .induce import LabeledDiagram
from .pseudolevi import canonical_subsystem
from .rootsys import DEFAULT_BUDGET, RootSystem, RootVec, all_roots, as_cochar, _dot


def default_denominator_bound(rs: RootSystem) -> int:
    """1 + sum of the marks: every alcove face holds a point of this denominator."""
    return 1 + sum(rs.marks)


def integrality_subsystem(rs: RootSystem, point: Sequence[Fraction]) -> frozenset[RootVec]:
    """Roots pairing integrally with the point; computed root by root.

    The point is scaled once by the lcm den of its denominators, so a root
    pairs integrally iff its integer pairing with the scaled point is 0 mod den.
    """
    point = as_cochar(point)
    den = math.lcm(*(v.denominator for v in point))
    scaled = [v.numerator * (den // v.denominator) for v in point]
    return frozenset(g for g in all_roots(rs) if _dot(g, scaled) % den == 0)


def _alcove_grid(rs: RootSystem, q: int):
    """Integer coefficient vectors c >= 0 with sum marks[i]*c[i] <= q."""
    n = rs.rank
    marks = rs.marks

    def rec(i: int, left: int, cur: list[int]):
        if i == n:
            yield tuple(cur)
            return
        step = marks[i]
        for c in range(left // step + 1):
            cur.append(c)
            yield from rec(i + 1, left - step * c, cur)
            cur.pop()

    yield from rec(0, q, [])


def alcove_pseudolevis(
    rs: RootSystem, max_denominator: int, budget: int = DEFAULT_BUDGET
) -> frozenset[tuple]:
    """Canonical forms of every integrality subsystem of a bounded-denominator point.

    budget bounds each canonical-form search (BudgetExceeded).
    """
    return frozenset().union(
        *alcove_pseudolevis_by_denominator(rs, max_denominator, budget)
    )


_Packing = tuple[int, tuple[int, ...], int, int]


def _packing(rs: RootSystem, max_denominator: int) -> _Packing:
    """(width, columns, low, high): the broadword layout of the positive roots'
    pairings with a grid vector c.

    Field k, width bits wide, holds <positive_roots[k], c>.  columns[i] holds
    each positive root's coefficient at node i, so adding columns[i] to a
    packed vector adds 1 to c[i].  low and high hold a 1 in each field's
    lowest and top bit.  A field is one bit wider than max_denominator needs,
    so the top bit of a pairing in [0, max_denominator] stays clear.
    """
    width = max_denominator.bit_length() + 1
    pos = rs.positive_roots
    columns = tuple(
        sum(g[i] << (k * width) for k, g in enumerate(pos)) for i in range(rs.rank)
    )
    low = sum(1 << (k * width) for k in range(len(pos)))
    return width, columns, low, low << (width - 1)


def _integral_masks(rs: RootSystem, pk: _Packing, q: int) -> list[int]:
    """The integral positive roots at each point c / q of _alcove_grid(rs, q).

    Entry t, for the t-th grid vector c, holds the top bit of field k iff
    <positive_roots[k], c> is 0 or q: in the closed alcove every positive
    root pairs into [0, q].  Both are broadword zero tests (Lamport, CACM
    1975) on the packed pairings P, one on P and one on P ^ q * low:
    ~((P | high) - low) & high marks the zero fields of P.  q must not exceed
    the bound pk was built for, or a field would reach its top bit.
    """
    _, cols, low, high = pk
    marks, last, full = rs.marks, rs.rank - 1, q * low
    out: list[int] = []
    emit = out.append

    def walk(i: int, left: int, packed: int) -> None:
        col, step = cols[i], marks[i]
        if i == last:
            for _ in range(left // step + 1):
                emit(
                    ~(((packed | high) - low) & (((packed ^ full) | high) - low))
                    & high
                )
                packed += col
            return
        for _ in range(left // step + 1):
            walk(i + 1, left, packed)
            left -= step
            packed += col

    walk(0, q, 0)
    return out


def _mask_roots(rs: RootSystem, pk: _Packing, mask: int) -> frozenset[RootVec]:
    """The roots, both signs, of the positive roots whose top bit is set in mask."""
    width = pk[0]
    out = []
    for k, g in enumerate(rs.positive_roots):
        if mask >> (k * width + width - 1) & 1:
            out.append(g)
            out.append(tuple(-c for c in g))
    return frozenset(out)


def alcove_pseudolevis_by_denominator(
    rs: RootSystem, max_denominator: int, budget: int = DEFAULT_BUDGET
) -> list[frozenset[tuple]]:
    """alcove_pseudolevis split by denominator, in one pass.

    Entry q - 1 holds the canonical forms of the integrality subsystems of the
    alcove points c / q, c an integer vector; each subsystem is searched once.
    The integral roots of each point come from _integral_masks, a mask over
    the positive roots (a negative root is integral with its positive root).
    """
    if max_denominator < 1:
        raise InputError("max_denominator must be >= 1")
    pk = _packing(rs, max_denominator)
    canon_of: dict[int, tuple] = {}
    levels = []
    for q in range(1, max_denominator + 1):
        level = set()
        for mask in set(_integral_masks(rs, pk, q)):
            canon = canon_of.get(mask)
            if canon is None:
                canon = canonical_subsystem(rs, _mask_roots(rs, pk, mask), budget=budget)
                canon_of[mask] = canon
            level.add(canon)
        levels.append(frozenset(level))
    return levels


def _hnf_pivots(cols: Sequence[RootVec]) -> list[tuple[int, list[int]]]:
    """Column staircase form of an integer lattice basis (full column rank)."""
    work = [list(c) for c in cols]
    rows = len(cols[0])
    pivots: list[tuple[int, list[int]]] = []
    remaining = work
    for p in range(rows):
        live = [c for c in remaining if c[p] != 0]
        rest = [c for c in remaining if c[p] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[p]))
            a, b = live[-1], live[0]
            q = a[p] // b[p]
            for j in range(rows):
                a[j] -= q * b[j]
            if a[p] == 0:
                rest.append(a)
                live.pop()
        if live:
            col = live[0]
            if col[p] < 0:
                col = [-v for v in col]
            pivots.append((p, col))
        remaining = rest
        if not remaining:
            break
    if len(pivots) != len(cols):
        raise InvariantViolation("lattice basis was not linearly independent")
    return pivots


def _in_lattice(pivots: list[tuple[int, list[int]]], v: RootVec) -> bool:
    x = list(v)
    for p, col in pivots:
        if x[p] % col[p] != 0:
            return False
        q = x[p] // col[p]
        if q:
            for j in range(len(x)):
                x[j] -= q * col[j]
    return not any(x)


def lattice_root_closure(rs: RootSystem, vectors: Sequence[RootVec]) -> frozenset[RootVec]:
    """The roots of rs lying in the integer span of the given root vectors."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return frozenset()
    pivots = _hnf_pivots(vecs)
    return frozenset(g for g in all_roots(rs) if _in_lattice(pivots, g))


class _PartitionFields(NamedTuple):
    parts: tuple[int, ...]


class Partition(_PartitionFields):
    """A weakly decreasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> "Partition":
        if any(p < 1 for p in parts):
            raise InputError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise InputError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, fields: Iterable) -> "Partition":
        return cls(*fields)  # so that _replace validates too

    @property
    def total(self) -> int:
        return sum(self.parts)


def _partitions_of(n: int):
    def rec(left: int, biggest: int, cur: list[int]):
        if left == 0:
            yield tuple(cur)
            return
        for p in range(min(left, biggest), 0, -1):
            cur.append(p)
            yield from rec(left - p, p, cur)
            cur.pop()

    yield from rec(n, n, [])


def _admissible(family: str, parts: tuple[int, ...]) -> bool:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    if family == "A":
        return True
    if family in ("B", "D"):
        return all(c % 2 == 0 for p, c in counts.items() if p % 2 == 0)
    return all(c % 2 == 0 for p, c in counts.items() if p % 2 == 1)  # C


def classical_partitions(family: str, rank: int) -> tuple[Partition, ...]:
    """Admissible partitions for the classical family at the given rank."""
    sizes = {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}
    if family not in sizes:
        raise InputError(f"no partition classification for family {family!r}")
    n = sizes[family]
    return tuple(
        Partition(p) for p in sorted(_partitions_of(n), reverse=True)
        if _admissible(family, p)
    )


def distinguished_partitions(family: str, rank: int) -> tuple[Partition, ...]:
    """Partitions of distinguished classes: one part (A), odd distinct (B, D),
    even distinct (C)."""
    out = []
    for part in classical_partitions(family, rank):
        parts = part.parts
        if family == "A":
            ok = len(parts) == 1
        elif family in ("B", "D"):
            ok = len(set(parts)) == len(parts) and all(p % 2 == 1 for p in parts)
        else:
            ok = len(set(parts)) == len(parts) and all(p % 2 == 0 for p in parts)
        if ok:
            out.append(part)
    return tuple(out)


def _exponent_string(parts: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    for p in parts:
        out.extend(range(p - 1, -p, -2))
    out.sort(reverse=True)
    return out


def partition_diagrams(
    family: str, rank: int, partition: Partition
) -> tuple[LabeledDiagram, ...]:
    """Labeled diagram(s) of the partition; two for the very even D cases."""
    h = _exponent_string(partition.parts)
    if family == "A":
        return (tuple(h[i] - h[i + 1] for i in range(rank)),)
    top = h[:rank]
    if family == "B":
        return (tuple(top[i] - top[i + 1] for i in range(rank - 1)) + (top[-1],),)
    if family == "C":
        return (tuple(top[i] - top[i + 1] for i in range(rank - 1)) + (2 * top[-1],),)
    if family == "D":
        body = tuple(top[i] - top[i + 1] for i in range(rank - 2))
        a, b = top[-2] - top[-1], top[-2] + top[-1]
        if a == b:
            return (body + (a, b),)
        return (body + (a, b), body + (b, a))
    raise InputError(f"no diagram recipe for family {family!r}")


def classical_nilpotent_classes(
    family: str, rank: int
) -> tuple[tuple[Partition, LabeledDiagram], ...]:
    """All (partition, diagram) pairs; very even D partitions appear twice."""
    out = []
    for part in classical_partitions(family, rank):
        for diag in partition_diagrams(family, rank, part):
            out.append((part, diag))
    return tuple(out)


def classical_group_name(family: str, partition: Partition) -> str:
    """The group A(u) of the partition's class in the adjoint group, by formula.

    It is (Z/2)^k, named ElemAb2(k), or trivial when k = 0 (Collingwood and
    McGovern, Nilpotent Orbits in Semisimple Lie Algebras, 6.1).  With a
    the number of distinct odd parts and b that of distinct even parts, k
    is 0 for A_n; a - 1 for B_n; b for C_n, less 1 if some even part has
    odd multiplicity; and max(0, a - 1) for D_n, or max(0, a - 2) if some
    odd part has odd multiplicity.  The formula makes no Weyl-conjugacy
    decision, so it checks the report's merges from outside.
    """
    parts = partition.parts
    odd = {p for p in parts if p % 2}
    even = set(parts) - odd
    if family == "A":
        k = 0
    elif family == "B":
        k = len(odd) - 1
    elif family == "C":
        k = len(even) - any(parts.count(p) % 2 for p in even)
    elif family == "D":
        k = max(0, len(odd) - 1 - any(parts.count(p) % 2 for p in odd))
    else:
        raise InputError(f"no partition classification for family {family!r}")
    return f"ElemAb2({k})" if k else "trivial"


def brute_orbit(
    rs: RootSystem,
    seed,
    action: Callable[[RootSystem, int, object], object],
    budget: int = 2_000_000,
) -> frozenset:
    """Full breadth-first orbit of a state under the simple reflections."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for state in frontier:
            for i in range(rs.rank):
                image = action(rs, i, state)
                if image not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceeded(f"orbit budget {budget} exceeded")
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return frozenset(seen)


def act_labeled_set(rs: RootSystem, i: int, items):
    from .rootsys import reflect_root

    return tuple(sorted((reflect_root(rs, i, r), l) for r, l in items))


def span_quotient_torsion(
    vectors: Sequence[RootVec], dim: int
) -> tuple[tuple[tuple[int, int], ...], list[list[int]]]:
    """Torsion data of Z^dim / span(vectors) by integer diagonalization.

    Returns (torsion, U): torsion lists (row index, diagonal entry) pairs with
    entry > 1, and U is the unimodular row transform, so the class of v in the
    quotient has torsion coordinates ((U v)[i] mod d) over those pairs.  The
    diagonal is not normalized to a divisibility chain; the torsion subgroup
    is the direct sum of Z/d over the returned pairs.
    """
    k = len(vectors)
    A = [[vectors[c][r] for c in range(k)] for r in range(dim)]
    U = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def add_row(src, dst, mult):
        for c in range(k):
            A[dst][c] += mult * A[src][c]
        for c in range(dim):
            U[dst][c] += mult * U[src][c]

    def swap_cols(i, j):
        for r in range(dim):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    def add_col(src, dst, mult):
        for r in range(dim):
            A[r][dst] += mult * A[r][src]

    t = 0
    while t < min(dim, k):
        pivot = None
        for r in range(t, dim):
            for c in range(t, k):
                if A[r][c] != 0 and (
                    pivot is None or abs(A[r][c]) < abs(A[pivot[0]][pivot[1]])
                ):
                    pivot = (r, c)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        for r in range(t + 1, dim):
            if A[r][t]:
                add_row(t, r, -(A[r][t] // A[t][t]))
        for c in range(t + 1, k):
            if A[t][c]:
                add_col(t, c, -(A[t][c] // A[t][t]))
        if any(A[r][t] for r in range(t + 1, dim)) or any(
            A[t][c] for c in range(t + 1, k)
        ):
            continue
        t += 1
    torsion = tuple(
        (i, abs(A[i][i])) for i in range(min(dim, k)) if abs(A[i][i]) > 1
    )
    return torsion, U
