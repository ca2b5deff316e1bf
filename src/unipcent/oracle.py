"""Independent ground truth and reference code for tests and verification.

No pipeline module imports this one.  Four separate routes to ground truth:
rational alcove points (subsystems found from points, not subsets), the
integer-span closure of a set of roots (Hermite normal form), classical
partition combinatorics for types A-D, and brute-force Weyl orbits.  Beside
them live the plain references that tests compare the pipeline's fast paths
against: reflections, pairings and coroots computed root by root on the
dense Cartan matrix (coroots with the family's own root lengths, which no
pipeline table uses), the alcove reduction with its certificate, the base
and canonical form of a closed subsystem, the transport of a labeled base
solved afresh, and the dimension criterion for a labeling.
canonical_subsystem decides conjugacy through rootsys.canonical_labeled_set,
which walks with conjugacy as the pipeline's split does.  A Smith-form
utility exposes the torsion of the span quotient for the residue checks
and --verify's d_J check.

The alcove-point side works on packed integers: the pairings of every
positive root with a grid vector share one int, a field per root, and each
step of the grid adds one packed column.  At a point c / q of the closed
alcove a positive root pairs into [0, q], so it is integral iff its field
is 0 or q; two broadword zero tests give the integral roots as a bitmask,
and a root set is built only for a new mask.  integrality_subsystem, root by
root, is the reference for those masks.
"""
from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .conjugacy import DEFAULT_BUDGET, transport_start
from .errors import BudgetExceeded, InputError, InvariantViolation
from .rootsys import (
    CartanType,
    CocharVec,
    LabeledDiagram,
    RootMasks,
    RootSystem,
    RootVec,
    _alcove_walk,
    _dot,
    _fractions,
    _ints,
    _of_length,
    _over_lcm,
    _root_masks,
    canonical_labeled_set,
    coroot,
    solve_cochar_for_base,
    to_dominant,
)


def all_roots(rs: RootSystem) -> frozenset[RootVec]:
    return frozenset(rs.root_index.index)


def pairing(root: Sequence[int], lam: Sequence) -> "Fraction":
    """<root, lam>: dot product of root coefficients with cocharacter coordinates."""
    root = _ints(root, "root coordinates")
    num, den = _over_lcm(lam, len(root))
    return _fractions([_dot(root, num)], den)[0]


def _simple_nodes(rs: RootSystem, nodes: Iterable[int]) -> tuple[int, ...]:
    """nodes, each an int, not a bool, in 0..rank-1: simple nodes."""
    nodes = _ints(nodes, "node ids")
    for i in nodes:
        if not 0 <= i < rs.rank:
            raise InputError(f"node {i} is not a simple node of {rs.ctype}")
    return nodes


def _reflect_root(row: Sequence[int], i: int, gamma: RootVec) -> RootVec:
    """s_i(gamma), given Cartan row i, with nothing checked."""
    p = _dot(row, gamma)
    return gamma[:i] + (gamma[i] - p,) + gamma[i + 1 :] if p else gamma


def _reflect_cochar(row: Sequence[int], i: int, lam: Sequence) -> tuple:
    """s_i(lam), given Cartan row i, with nothing checked."""
    coef = lam[i]
    return tuple([m - coef * c for m, c in zip(lam, row)])


def reflect_root(rs: RootSystem, i: int, gamma: RootVec) -> RootVec:
    (i,) = _simple_nodes(rs, [i])
    return _reflect_root(rs.cartan[i], i, _ints(gamma, "root coordinates", rs.rank))


def reflect_cochar(rs: RootSystem, i: int, lam: Sequence) -> CocharVec:
    (i,) = _simple_nodes(rs, [i])
    return _reflect_cochar(rs.cartan[i], i, _of_length(lam, rs.rank))


def apply_word(rs: RootSystem, word: Sequence[int], lam: Sequence) -> CocharVec:
    """Apply a reflection word letter by letter (leftmost letter acts first).

    Each letter is a simple node, 0 <= i < rank; it reflects lam's integer numerators.
    """
    num, den = _over_lcm(lam, rs.rank)
    for i in _simple_nodes(rs, word):
        num = _reflect_cochar(rs.cartan[i], i, num)
    return _fractions(num, den)


def _root_lengths(rs: RootSystem) -> tuple[int, ...]:
    """d_i = (alpha_i, alpha_i) / (alpha, alpha) for a short root alpha.

    Read off the family, not the Cartan matrix: the long simple roots are
    alpha_1..alpha_{n-1} of B_n, alpha_n of C_n and alpha_1, alpha_2 of F4,
    with d = 2, and alpha_2 of G2, with d = 3 (Bourbaki, Plates II-IX).
    Every other d is 1.
    """
    n, fam = rs.rank, rs.ctype.family
    long = {"B": range(n - 1), "C": (n - 1,), "F": (0, 1), "G": (1,)}.get(fam, ())
    return tuple((3 if fam == "G" else 2) if i in long else 1 for i in range(n))


def _coroot_coords(rs: RootSystem, gamma: RootVec) -> RootVec:
    """gamma^vee of a root: <alpha_k, gamma^vee> = 2 (alpha_k, gamma) / (gamma, gamma).

    (alpha_k, gamma) = d_k <gamma, alpha_k^vee>, d from _root_lengths, on the
    dense Cartan matrix: the reference for root_index's coroots, sharing
    nothing with it but the Cartan matrix.
    """
    C = rs.cartan
    d = _root_lengths(rs)
    Cg = [_dot(C[k], gamma) for k in range(rs.rank)]
    norm = sum(c * dk * v for c, dk, v in zip(gamma, d, Cg))
    out = []
    for k in range(rs.rank):
        num = 2 * d[k] * Cg[k]
        if num % norm != 0:
            raise InvariantViolation(f"non-integral coroot for {gamma} in {rs.ctype}")
        out.append(num // norm)
    return tuple(out)


def alcove_reduce_map(rs: RootSystem, point: Sequence):
    """alcove_reduce with a certificate of the reduction.

    Returns (reduced, walls, (matrix, shift)) where point == matrix . reduced
    + shift certifies equivalence under the group generated by the Weyl group
    and coweight-lattice translations.
    """
    x, walls, shift0, steps = _alcove_walk(rs, point)
    n = rs.rank
    theta_vee = coroot(rs, rs.highest_root)
    marks = rs.marks
    # Inverse bookkeeping: input = B . current + u after every step.  Each
    # step is a reflection, so B and u stay integral.
    B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u = list(shift0)
    for i in steps:
        if i < n:
            # s_i on coweight coordinates is m_j -> m_j - m_i C[i][j]; it is
            # its own inverse, and B . s_i changes only column i of B.
            row = rs.cartan[i]
            for Ba in B:
                Ba[i] -= _dot(Ba, row)
        else:
            # current_old = (1 - theta^vee marks^T) . current_new + theta^vee
            for a, Ba in enumerate(B):
                t = _dot(Ba, theta_vee)
                u[a] += t
                B[a] = [v - t * m for v, m in zip(Ba, marks)]
    return x, walls, (tuple([_fractions(Ba, 1) for Ba in B]), _fractions(u, 1))


def subsystem_base(rs: RootSystem, subsystem: Iterable[RootVec]) -> tuple[RootVec, ...]:
    """The indecomposable positive elements: a base of the closed subsystem."""
    roots = [_ints(g, "root coordinates", rs.rank) for g in subsystem]
    pos = sorted(g for g in roots if sum(g) > 0)
    posset = set(pos)
    base = []
    for g in pos:
        decomposable = any(
            tuple(a - b for a, b in zip(g, d)) in posset for d in pos if d != g
        )
        if not decomposable:
            base.append(g)
    return tuple(base)


def canonical_subsystem(
    rs: RootSystem, subsystem: Iterable[RootVec], budget: int = DEFAULT_BUDGET
) -> tuple:
    """Canonical form deciding Weyl conjugacy of closed subsystems (as root sets)."""
    base = subsystem_base(rs, frozenset(subsystem))
    return canonical_labeled_set(rs, tuple((r, 2) for r in base), budget=budget)


def dominant_transport(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]]
) -> tuple[CocharVec, tuple[int, ...], tuple[int, ...]]:
    """(lam_dom, v_dom, start): a labeled base carried along with its cocharacter.

    lam_dom is the dominant conjugate of the cocharacter solved afresh from
    the labels, and (v_dom, start) is transport_start's for the word that
    reduced it: the reference for the records' stored reductions.
    """
    items = tuple(items)
    lam = solve_cochar_for_base(rs, [r for r, _ in items], [l for _, l in items])
    lam_dom, word = to_dominant(rs, lam)
    return (lam_dom, *transport_start(rs, items, word, lam_dom))


def _twos_mask(labels: Sequence[int]) -> int:
    """The node bitmask of the 2s of a {0,2}-labeling."""
    return sum(1 << i for i, v in enumerate(labels) if v == 2)


def _grading_counts(masks: RootMasks, twos: int) -> tuple[int, int]:
    """The numbers of roots at pairing 0 and at pairing 2 with a {0,2}-labeling.

    masks come from rootsys._root_masks and twos from _twos_mask.  A
    positive root gamma pairs to 2 * (sum of its coefficients on twos), so
    gamma and -gamma pair to 0 iff the support misses twos, and gamma pairs
    to 2 iff the support meets twos in one node, where gamma has coefficient
    1.  All positive roots are counted at once: hit collects the roots whose
    support meets the twos seen so far, and once those met in one node only,
    with coefficient 1.
    """
    n_pos, per_node = masks
    hit = once = 0
    for i, (supp, ones) in enumerate(per_node):
        if twos >> i & 1:
            once = (once & ~supp) | (ones & ~hit)
            hit |= supp
    return 2 * (n_pos - hit.bit_count()), once.bit_count()


def is_distinguished(rs_factor: RootSystem, labels: Sequence[int]) -> bool:
    """Dimension criterion for a {0,2}-labeling of an irreducible factor."""
    labels = _ints(labels, "labels")
    if len(labels) != rs_factor.rank:
        raise InputError("label vector length must match the rank")
    if any(v not in (0, 2) for v in labels):
        raise InputError(f"labels must lie in {{0, 2}}, got {tuple(labels)}")
    zero, two = _grading_counts(_root_masks(rs_factor), _twos_mask(labels))
    return zero + rs_factor.rank == two


def default_denominator_bound(rs: RootSystem) -> int:
    """1 + sum of the marks: every alcove face holds a point of this denominator."""
    return 1 + sum(rs.marks)


def integrality_subsystem(rs: RootSystem, point: Sequence) -> frozenset[RootVec]:
    """Roots pairing integrally with the point; computed root by root.

    The point is scaled once by the lcm den of its denominators, so a root
    pairs integrally iff its integer pairing with the scaled point is 0 mod den.
    """
    scaled, den = _over_lcm(point, rs.rank)
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
    vecs = [_ints(v, "root coordinates", rs.rank) for v in vectors]
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
        parts = _ints(parts, "parts")
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


def _size(family: str, rank: int) -> int:
    """The n whose admissible partitions classify the family's classes at rank.

    The family must be one of A-D and the rank one CartanType admits for it.
    """
    if family not in ("A", "B", "C", "D"):
        raise InputError(f"no partition classification for family {family!r}")
    CartanType(family, rank)
    return {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[family]


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
    n = _size(family, rank)
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
    """Labeled diagram(s) of the partition; two for the very even D cases.

    The partition must be one of classical_partitions(family, rank).
    """
    n = _size(family, rank)
    if partition.total != n or not _admissible(family, partition.parts):
        raise InputError(
            f"{partition.parts} is not an admissible partition of {n} for {family}{rank}"
        )
    h = _exponent_string(partition.parts)
    if family == "A":
        return (tuple(h[i] - h[i + 1] for i in range(rank)),)
    top = h[:rank]
    if family == "B":
        return (tuple(top[i] - top[i + 1] for i in range(rank - 1)) + (top[-1],),)
    if family == "C":
        return (tuple(top[i] - top[i + 1] for i in range(rank - 1)) + (2 * top[-1],),)
    body = tuple(top[i] - top[i + 1] for i in range(rank - 2))  # D
    a, b = top[-2] - top[-1], top[-2] + top[-1]
    if a == b:
        return (body + (a, b),)
    return (body + (a, b), body + (b, a))


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
    if not _admissible(family, parts):
        raise InputError(f"{parts} is not an admissible partition for family {family}")
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
    """s_i of a labeled base, sorted; only the node is checked, once."""
    (i,) = _simple_nodes(rs, [i])
    return tuple(sorted((_reflect_root(rs.cartan[i], i, r), l) for r, l in items))


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
