"""Exact irreducible root systems in simple-root coordinates.

A root is an integer tuple of coefficients on the simple basis S (Bourbaki
numbering, 0-indexed).  A cocharacter is a tuple of rationals in the
fundamental-coweight basis, so the pairing of a root with a cocharacter is the
plain dot product of the two coordinate tuples.  Everything is exact; floats
are rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import BudgetExceeded, InputError, InvariantViolation

RootVec = tuple[int, ...]
CocharVec = tuple[Fraction, ...]
WeylWord = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True, order=True)
class CartanType:
    """An irreducible Cartan type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _MIN_RANK:
            raise InputError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise InputError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < _MIN_RANK[self.family]:
            raise InputError(f"rank {self.rank} too small for family {self.family}")
        if self.family in _MAX_RANK and self.rank > _MAX_RANK[self.family]:
            raise InputError(f"rank {self.rank} too large for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise InputError(f"cannot parse Cartan type {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _dynkin_edges(ctype: CartanType) -> list[tuple[int, int]]:
    n, fam = ctype.rank, ctype.family
    if fam in ("A", "B", "C", "F", "G"):
        return [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    # E: chain 1-3-4-5-6(-7(-8)) with 2 hanging off 4 (Bourbaki, 0-indexed).
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
    if n >= 7:
        edges.append((5, 6))
    if n == 8:
        edges.append((6, 7))
    return edges


@lru_cache(maxsize=None)
def cartan_matrix(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with C[i][j] = <alpha_j, alpha_i^vee> (Bourbaki numbering)."""
    n = ctype.rank
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = 2
    for i, j in _dynkin_edges(ctype):
        C[i][j] = C[j][i] = -1
    fam = ctype.family
    if fam == "B" and n >= 2:
        C[n - 1][n - 2] = -2  # short alpha_n: <alpha_{n-1}, alpha_n^vee> = -2
    elif fam == "C" and n >= 2:
        C[n - 2][n - 1] = -2  # long alpha_n: <alpha_n, alpha_{n-1}^vee> = -2
    elif fam == "F":
        C[2][1] = -2
    elif fam == "G":
        C[0][1] = -3  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in C)


@dataclass(frozen=True)
class RootSystem:
    """An irreducible root system with its positive roots and highest-root marks."""

    ctype: CartanType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[RootVec, ...]
    highest_root: RootVec
    marks: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.ctype.rank

    def __str__(self) -> str:
        return str(self.ctype)


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct the root system by closing the simple roots under reflections."""
    C = cartan_matrix(ctype)
    n = ctype.rank
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots: set[RootVec] = set(simples)
    frontier: list[RootVec] = list(simples)
    while frontier:
        nxt: list[RootVec] = []
        for gamma in frontier:
            for i in range(n):
                p = _dot(C[i], gamma)
                if p == 0:
                    continue
                image = list(gamma)
                image[i] -= p
                t = tuple(image)
                if t not in roots:
                    roots.add(t)
                    nxt.append(t)
        frontier = nxt
    for gamma in roots:
        if not (all(c >= 0 for c in gamma) or all(c <= 0 for c in gamma)):
            raise InvariantViolation(f"mixed-sign root {gamma} in {ctype}")
    positive = sorted(
        (g for g in roots if sum(g) > 0), key=lambda g: (sum(g), g)
    )
    if 2 * len(positive) != len(roots):
        raise InvariantViolation(f"root count parity broken for {ctype}")
    highest = positive[-1]
    for g in positive:
        if any(h < c for h, c in zip(highest, g)):
            raise InvariantViolation(f"highest root of {ctype} fails to dominate {g}")
    marks = highest
    if math.gcd(*marks) != 1:
        raise InvariantViolation(f"marks of {ctype} have gcd > 1")
    return RootSystem(ctype, C, tuple(positive), highest, marks)


@lru_cache(maxsize=None)
def all_roots(rs: RootSystem) -> frozenset[RootVec]:
    neg = [tuple(-c for c in g) for g in rs.positive_roots]
    return frozenset(rs.positive_roots) | frozenset(neg)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def is_good_prime(rs: RootSystem, p: int) -> bool:
    """True iff p is 0 or divides no coefficient of the highest root."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise InputError(f"characteristic must be 0 or a prime, got {p!r}")
    if p == 0:
        return True
    if not _is_prime(p):
        raise InputError(f"characteristic must be 0 or a prime, got {p}")
    return all(a % p != 0 for a in rs.marks)


def bad_primes(rs: RootSystem) -> tuple[int, ...]:
    """The primes dividing some mark, in increasing order."""
    out = set()
    for a in rs.marks:
        d = 2
        while d * d <= a:
            if a % d == 0:
                out.add(d)
                while a % d == 0:
                    a //= d
            d += 1
        if a > 1:
            out.add(a)
    return tuple(sorted(out))


def as_cochar(coords: Iterable) -> CocharVec:
    """Coerce a sequence of ints/Fractions to a CocharVec; floats are rejected."""
    out = []
    for c in coords:
        if isinstance(c, Fraction):
            out.append(c)
        elif isinstance(c, int) and not isinstance(c, bool):
            out.append(Fraction(c))
        else:
            raise InputError(f"exact rational expected, got {c!r}")
    return tuple(out)


def zero_cochar(rs: RootSystem) -> CocharVec:
    return tuple(Fraction(0) for _ in range(rs.rank))


def pairing(root: Sequence[int], lam: Sequence) -> Fraction:
    """<root, lam>: dot product of root coefficients with cocharacter coordinates."""
    if len(root) != len(lam):
        raise InputError(f"dimension mismatch: {len(root)} vs {len(lam)}")
    return Fraction(sum(c * m for c, m in zip(root, lam)))


def reflect_root(rs: RootSystem, i: int, gamma: RootVec) -> RootVec:
    p = _dot(rs.cartan[i], gamma)
    if p == 0:
        return gamma
    image = list(gamma)
    image[i] -= p
    return tuple(image)


@lru_cache(maxsize=None)
def _reflection_tables(rs: RootSystem) -> tuple[dict, ...]:
    """Per simple reflection, the image of every root (lookup, no arithmetic)."""
    roots = all_roots(rs)
    return tuple(
        {g: reflect_root(rs, i, g) for g in roots} for i in range(rs.rank)
    )


def reflect_cochar(rs: RootSystem, i: int, lam: Sequence) -> CocharVec:
    coef = lam[i]
    row = rs.cartan[i]
    return tuple(m - coef * row[j] for j, m in enumerate(lam))


def apply_word(rs: RootSystem, word: Sequence[int], lam: Sequence) -> CocharVec:
    """Apply a reflection word letter by letter (leftmost letter acts first)."""
    cur = as_cochar(lam)
    for i in word:
        cur = reflect_cochar(rs, i, cur)
    return cur


def apply_word_root(rs: RootSystem, word: Sequence[int], gamma: RootVec) -> RootVec:
    cur = gamma
    for i in word:
        cur = reflect_root(rs, i, cur)
    return cur


def to_dominant(rs: RootSystem, lam: Sequence) -> tuple[CocharVec, WeylWord]:
    """The unique dominant Weyl conjugate, with a word mapping the input to it.

    Repeatedly reflects at the smallest-index negative coordinate; this takes
    at most |R+| steps.
    """
    m = list(as_cochar(lam))
    word: list[int] = []
    cap = len(rs.positive_roots) + 1
    for _ in range(cap):
        i = next((k for k, v in enumerate(m) if v < 0), None)
        if i is None:
            return tuple(m), tuple(word)
        coef = m[i]
        row = rs.cartan[i]
        m = [v - coef * row[j] for j, v in enumerate(m)]
        word.append(i)
    raise InvariantViolation("dominant reduction failed to terminate")


@lru_cache(maxsize=None)
def symmetrizer(rs: RootSystem) -> tuple[int, ...]:
    """Positive integers d with d_i*C[i][j] = d_j*C[j][i], normalized to min 1."""
    C = rs.cartan
    n = rs.rank
    d: list = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and C[i][j] != 0 and d[j] is None:
                d[j] = d[i] * C[i][j] / C[j][i]
                stack.append(j)
    if any(v is None for v in d):
        raise InvariantViolation(f"Dynkin diagram of {rs.ctype} is disconnected")
    low = min(d)
    out = []
    for v in d:
        w = v / low
        if w.denominator != 1:
            raise InvariantViolation("non-integral symmetrizer")
        out.append(int(w))
    return tuple(out)


@lru_cache(maxsize=None)
def coroot(rs: RootSystem, gamma: RootVec) -> RootVec:
    """Coweight-basis coordinates of gamma^vee, i.e. (<alpha_k, gamma^vee>)_k."""
    C = rs.cartan
    d = symmetrizer(rs)
    Cg = [_dot(C[k], gamma) for k in range(rs.rank)]
    norm = sum(c * dk * v for c, dk, v in zip(gamma, d, Cg))
    if norm <= 0:
        raise InputError(f"{gamma} is not a root of {rs.ctype}")
    out = []
    for k in range(rs.rank):
        num = 2 * d[k] * Cg[k]
        if num % norm != 0:
            raise InvariantViolation(f"non-integral coroot for {gamma} in {rs.ctype}")
        out.append(num // norm)
    return tuple(out)


@lru_cache(maxsize=None)
def highest_coroot(rs: RootSystem) -> RootVec:
    return coroot(rs, rs.highest_root)


def affine_node(rs: RootSystem) -> int:
    """Node id of the affine vertex alpha_0 (simple roots are 0..rank-1)."""
    return rs.rank


_ALCOVE_CAP = 100_000


def _alcove_walk(rs: RootSystem, point: Sequence):
    """The walk behind alcove_reduce, also returning the moves it made.

    Returns (reduced, walls, shift, steps): the point minus the integer vector
    shift is carried to reduced by steps, a list of node ids applied in order
    -- a simple node i is the reflection s_i, the affine node is the affine
    reflection s_{theta,1}.
    """
    n = rs.rank
    x = list(as_cochar(point))
    if len(x) != n:
        raise InputError("dimension mismatch")
    shift = tuple(math.floor(v) for v in x)
    x = [v - s for v, s in zip(x, shift)]
    theta_vee = highest_coroot(rs)
    marks = rs.marks
    steps: list[int] = []
    for _ in range(_ALCOVE_CAP):
        i = next((k for k in range(n) if x[k] < 0), None)
        if i is not None:
            coef = x[i]
            row = rs.cartan[i]
            x = [v - coef * row[j] for j, v in enumerate(x)]
        else:
            h = _dot(marks, x)
            if h <= 1:
                break
            # affine reflection s_{theta,1}: x -> x - (<theta,x> - 1) theta^vee
            x = [v - (h - 1) * theta_vee[j] for j, v in enumerate(x)]
            i = n
        steps.append(i)
    else:
        raise InvariantViolation("alcove reduction failed to terminate")

    walls = {k for k in range(n) if x[k].denominator == 1}
    if _dot(marks, x).denominator == 1:
        walls.add(n)
    if len(walls) == n + 1:
        walls = set(range(n))  # lattice point: the subsystem is all of R
    return tuple(x), frozenset(walls), shift, steps


def alcove_reduce_map(rs: RootSystem, point: Sequence):
    """alcove_reduce with a certificate of the reduction.

    Returns (reduced, walls, (matrix, shift)) where point == matrix . reduced
    + shift certifies equivalence under the group generated by the Weyl group
    and coweight-lattice translations.
    """
    x, walls, shift0, steps = _alcove_walk(rs, point)
    n = rs.rank
    theta_vee = highest_coroot(rs)
    marks = rs.marks
    # Inverse bookkeeping: input = B . current + u after every step.
    B = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    u = [Fraction(s) for s in shift0]
    for i in steps:
        if i < n:
            # matrix of s_i on coweight coordinates: m_j -> m_j - m_i C[i][j]
            row = rs.cartan[i]
            mat = [
                [(1 if a == b else 0) - (row[a] if b == i else 0) for b in range(n)]
                for a in range(n)
            ]
        else:
            # current_old = mat . current_new + theta^vee
            mat = [
                [(1 if a == b else 0) - theta_vee[a] * marks[b] for b in range(n)]
                for a in range(n)
            ]
            u = [sum(B[a][k] * theta_vee[k] for k in range(n)) + u[a] for a in range(n)]
        B = [
            [sum(B[a][k] * mat[k][b] for k in range(n)) for b in range(n)]
            for a in range(n)
        ]
    return x, walls, (tuple(tuple(r) for r in B), tuple(u))


def alcove_reduce(rs: RootSystem, point: Sequence) -> tuple[CocharVec, frozenset[int]]:
    """Reduce a rational point into the closed fundamental alcove.

    Returns (reduced, walls) where walls is the set of node ids (affine node
    included) whose pairing at the reduced point is integral -- normalized to
    the simple nodes alone when every wall is integral.
    """
    x, walls, _, _ = _alcove_walk(rs, point)
    return x, walls


def solve_cochar_for_base(
    rs: RootSystem, base: Sequence[RootVec], targets: Sequence
) -> CocharVec:
    """The unique lam in the span of the base's coroots with <base[a], lam> = targets[a]."""
    k = len(base)
    cor = [coroot(rs, b) for b in base]
    M = [[Fraction(_dot(base[a], cor[b])) for b in range(k)] for a in range(k)]
    rhs = [Fraction(t) for t in targets]
    sol = _solve_linear(M, rhs)
    n = rs.rank
    return tuple(
        sum((sol[b] * cor[b][j] for b in range(k)), Fraction(0)) for j in range(n)
    )


def _solve_linear(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    k = len(M)
    A = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(k):
        piv = next((r for r in range(col, k) if A[r][col] != 0), None)
        if piv is None:
            raise InvariantViolation("singular pairing matrix (input roots dependent)")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(k):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return [A[r][k] for r in range(k)]


LabeledSet = tuple[tuple[RootVec, int], ...]


def canonical_labeled_set(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]], budget: int | None = None
) -> tuple:
    """Canonical form (lam_dom, best) of a labeled base under the Weyl group.

    lam_dom is the dominant conjugate of the cocharacter solved from the
    labels; best is the smallest sorted labeled base in the orbit of the
    transported base under the stabilizer of lam_dom.  Two labeled bases are
    Weyl-conjugate iff their canonical forms coincide.  budget (default
    DEFAULT_BUDGET) bounds the states visited (BudgetExceeded).  Results are
    memoized per (rs, sorted items, budget); a search that raised is never
    stored, so the budget holds whatever ran earlier in the process.
    """
    items = tuple(sorted((tuple(r), int(l)) for r, l in items))
    return _canonical_search(rs, items, DEFAULT_BUDGET if budget is None else budget)


@lru_cache(maxsize=None)
def _canonical_search(rs: RootSystem, items: LabeledSet, budget: int) -> tuple:
    if not items:
        return (zero_cochar(rs), ())
    base = [r for r, _ in items]
    targets = [l for _, l in items]
    lam = solve_cochar_for_base(rs, base, targets)
    lam_dom, word = to_dominant(rs, lam)
    start = tuple(
        sorted((apply_word_root(rs, word, r), l) for r, l in items)
    )
    tables = _reflection_tables(rs)
    fixed = [tables[i] for i in range(rs.rank) if lam_dom[i] == 0]
    best = start
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for table in fixed:
                image = tuple(sorted((table[r], l) for r, l in state))
                if image not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceeded(
                            f"canonical-form search exceeded {budget} states"
                            f" for a labeled base of {rs.ctype}"
                        )
                    seen.add(image)
                    nxt.append(image)
                    if image < best:
                        best = image
        frontier = nxt
    return (lam_dom, best)
