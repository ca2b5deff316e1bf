"""Exact irreducible root systems in simple-root coordinates.

A root is an integer tuple of coefficients on the simple basis S (Bourbaki
numbering, 0-indexed).  A cocharacter is a tuple of rationals in the
fundamental-coweight basis, so the pairing of a root with a cocharacter is the
plain dot product of the two coordinate tuples.  Everything is exact; floats
are rejected.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, InputError, InvariantViolation

RootVec = tuple[int, ...]
CocharVec = tuple[Fraction, ...]
WeylWord = tuple[int, ...]
LabeledDiagram = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}

DEFAULT_BUDGET = 10**7


class _CartanTypeFields(NamedTuple):
    family: str
    rank: int


class CartanType(_CartanTypeFields):
    """An irreducible Cartan type: family letter plus rank.

    A tuple: it sorts, compares and hashes as (family, rank).
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "CartanType":
        if family not in _MIN_RANK:
            raise InputError(f"unknown family {family!r}")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise InputError(f"rank must be an integer, got {rank!r}")
        if rank < _MIN_RANK[family]:
            raise InputError(f"rank {rank} too small for family {family}")
        if family in _MAX_RANK and rank > _MAX_RANK[family]:
            raise InputError(f"rank {rank} too large for family {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, fields: Iterable) -> "CartanType":
        return cls(*fields)  # so that _replace validates too

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or not (text[1:].isascii() and text[1:].isdigit()):
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


def _opposition(ctype: CartanType) -> tuple[int, ...]:
    """The opposition involution -w_0 on the nodes, as the image of each node.

    -w_0 permutes the simple roots.  It is the diagram flip for A_n, swaps
    the two fork nodes of D_n for odd n, swaps 1-6 and 3-5 of E6, and is the
    identity on every other type (Bourbaki, Plates I-IX, (XI)).
    """
    n, fam = ctype.rank, ctype.family
    sigma = list(range(n))
    if fam == "A":
        sigma.reverse()
    elif fam == "D" and n % 2:
        sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    elif fam == "E" and n == 6:
        sigma = [5, 1, 4, 3, 2, 0]
    return tuple(sigma)


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

    def extend(a: int) -> bool:
        if a == k:
            return True
        for cand in range(k):
            if cand in assign or deg_m[cand] != deg_s[a]:
                continue
            if all(
                M[cand][assign[b]] == std[a][b] and M[assign[b]][cand] == std[b][a]
                for b in range(a)
            ):
                assign.append(cand)
                if extend(a + 1):
                    return True
                assign.pop()
        return False

    return assign if extend(0) else None


@lru_cache(maxsize=None)
def _component_type(M: tuple[tuple[int, ...], ...]) -> tuple[CartanType, tuple[int, ...]]:
    """The type of an irreducible Cartan matrix and a node order matching it."""
    for ct in _candidate_types(len(M)):
        order = _match_cartan(M, cartan_matrix(ct))
        if order is not None:
            return ct, tuple(order)
    raise InvariantViolation("base is not of finite Cartan type")


class _RootSystemFields(NamedTuple):
    ctype: CartanType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[RootVec, ...]
    highest_root: RootVec


class RootSystem(_RootSystemFields):
    """An irreducible root system with its positive roots and highest-root marks.

    It has no __slots__, so the cached_property tables and stage results
    below live in its __dict__.  It equals only another RootSystem with the
    same fields.
    """

    @property
    def rank(self) -> int:
        return self.ctype.rank

    @property
    def marks(self) -> tuple[int, ...]:
        """The highest root's coefficients on the simple roots."""
        return self.highest_root

    @cached_property
    def root_index(self) -> "RootIndex":
        """Roots as indices, reflections as permutations, and coroots; built lazily.

        A root's pairings with the simple coroots, read off cartan_rows plus
        the diagonal entry 2, give its image under each simple reflection
        (oracle.reflect_root is the reference).  The coroot of alpha_i is
        row i of the Cartan matrix.  A positive root g that is not simple
        pairs positively with some alpha_i^vee, so s_i g = r is a positive
        root that sorts before g, and g^vee = s_i(r^vee) = m - m[i] * C[i],
        m = r^vee (oracle._coroot_coords is the reference).
        Negation reverses the sorted order, so -roots[k] is roots[N - 1 - k],
        N = |R|; reflections and coroots commute with negation, so only the
        positive half, roots[N/2:], is computed.
        """
        half = sorted(self.positive_roots)
        roots = tuple([tuple([-c for c in g]) for g in reversed(half)] + half)
        last = len(roots) - 1
        index = {g: k for k, g in enumerate(roots)}
        rows, C = self.cartan_rows, self.cartan
        reflections = [list(range(len(roots))) for _ in rows]
        coroots: list = [None] * len(roots)
        for k in range(len(half), len(roots)):
            g = roots[k]
            pairs = [
                2 * g[i] + sum(c * g[j] for j, c in row) for i, row in enumerate(rows)
            ]
            for i, p in enumerate(pairs):
                if p:
                    image = list(g)
                    image[i] -= p
                    r = index[tuple(image)]
                    reflections[i][k], reflections[i][last - k] = r, last - r
            i = next(i for i, p in enumerate(pairs) if p > 0)
            r = reflections[i][k]
            if r == last - k:  # s_i g = -g: g is alpha_i
                cor = C[i]
            else:
                m = coroots[r]
                cor = tuple([a - m[i] * c for a, c in zip(m, C[i])])
            coroots[k], coroots[last - k] = cor, tuple([-c for c in cor])
        theta, theta_vee = roots[last], coroots[last]
        tv = [(j, t) for j, t in enumerate(theta_vee) if t]
        affine = list(range(len(roots)))
        for k in range(len(half), len(roots)):
            g = roots[k]
            p = sum(g[j] * t for j, t in tv)
            r = index[tuple([c - p * t for c, t in zip(g, theta)])]
            affine[k], affine[last - k] = r, last - r
        reflections.append(affine)
        return RootIndex(roots, index, tuple(map(tuple, reflections)), tuple(coroots))

    @cached_property
    def extended_diagram(self) -> "ExtendedDiagram":
        """The extended Dynkin diagram: the simple nodes and the affine node -theta."""
        n = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        root_of = tuple(simples) + (tuple(-c for c in self.highest_root),)
        mark_of = self.marks + (1,)
        coroots = [coroot(self, r) for r in root_of]
        cartan = tuple(tuple(_dot(r, cor) for r in root_of) for cor in coroots)
        return ExtendedDiagram(
            self, root_of, mark_of, cartan, _sparse_rows([row[:n] for row in cartan])
        )

    @cached_property
    def subset_components(self) -> dict[int, tuple[tuple[CartanType, tuple[int, ...]], ...]]:
        """The irreducible components of every proper subset of the extended nodes.

        Keyed by the subset's bit mask, each value holds the components,
        sorted, as (type, the nodes in the type's standard order, as
        _component_type matches them).  The components of M are those of M
        less its lowest node, the ones that node touches joined at it, so
        each mask is one step and each component is typed once.
        """
        C = self.extended_diagram.cartan
        nodes = range(len(C))
        adjacent = [sum([1 << b for b in nodes if b != a and C[a][b]]) for a in nodes]
        typed = {}  # component mask -> (type, nodes in standard order)
        parts: dict[int, list[int]] = {0: []}  # subset mask -> its component masks
        for M in range(1, (1 << len(C)) - 1):
            low = M & -M
            touching = adjacent[low.bit_length() - 1]
            comps, joined = [], low
            for c in parts[M ^ low]:
                if c & touching:
                    joined |= c
                else:
                    comps.append(c)
            parts[M] = comps + [joined]
            if joined not in typed:
                comp = [j for j in nodes if joined >> j & 1]
                block = tuple([tuple([C[a][b] for b in comp]) for a in comp])
                ct, order = _component_type(block)
                typed[joined] = (ct, tuple([comp[k] for k in order]))
        return {M: tuple(sorted(map(typed.__getitem__, cs))) for M, cs in parts.items()}

    @cached_property
    def cartan_rows(self) -> "SparseRows":
        """Row i of the Cartan matrix off the diagonal: its (j, C[i][j]) pairs
        with j != i and C[i][j] != 0.

        s_i negates coordinate i of a cocharacter m and lowers coordinate j by
        m[i] * C[i][j] for exactly these j.  The diagonal is left out, so
        _reflect_to_dominant's inner loop, on every report's hot path, has no
        entry to skip; root_index adds it back to its pairings and takes
        coroots from the dense rows.
        """
        return tuple(
            tuple((j, c) for j, c in enumerate(row) if c and j != i)
            for i, row in enumerate(self.cartan)
        )

    @cached_property
    def results(self) -> dict:
        """Whole-stage results for this type, keyed by (stage, budget).

        A stage stores its result only once it has finished, so a budget
        overrun leaves nothing behind.
        """
        return {}

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        # Equal systems have equal types, so this agrees with the field-wise
        # __eq__, and a cache keyed on a system does not hash all its roots.
        return hash(self.ctype)

    def __str__(self) -> str:
        return str(self.ctype)


class RootIndex(NamedTuple):
    """All roots in sorted order, their positions, and reflections as permutations.

    reflections[a] is the reflection of extended node a: s_a for a simple
    node, and s_theta, the reflection in the affine node's root -theta, at
    index rank.  coroots[k] is the coroot of roots[k] in coweight
    coordinates (see coroot).
    """

    roots: tuple[RootVec, ...]
    index: dict[RootVec, int]
    reflections: tuple[tuple[int, ...], ...]
    coroots: tuple[RootVec, ...]


class ExtendedDiagram(NamedTuple):
    """The extended node set with each node's root vector, mark and coroot pairings.

    cartan is the extended Cartan matrix, cartan[a][b] = <root_of[b],
    root_of[a]^vee> (the convention of cartan_matrix); the first rank entries
    of row a are the coweight coordinates of node a's coroot, and
    coroot_rows[a] holds them as sparse (j, value) pairs.
    """

    rs: RootSystem
    root_of: tuple[RootVec, ...]
    mark_of: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]
    coroot_rows: "SparseRows"

    @property
    def nodes(self) -> range:
        return range(len(self.root_of))


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


SparseRow = tuple[tuple[int, int], ...]
SparseRows = tuple[SparseRow, ...]


def _sparse_rows(C: Sequence[Sequence[int]]) -> SparseRows:
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in C)


@lru_cache(maxsize=None)
def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct the positive roots level by level along simple-root strings.

    The alpha_i-string through a root gamma runs from gamma - p alpha_i to
    gamma + q alpha_i with p - q = <gamma, alpha_i^vee> (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 8.4), so
    gamma + alpha_i is a root iff p > <gamma, alpha_i^vee>.  Every positive
    root of height h + 1 is gamma + alpha_i for some gamma of height h, and
    each such gamma finds it: it keeps p_i(gamma) + 1 as its own p_i, and
    p_j = 0 for every j no root of height h reaches it by.  Its pairings
    with the simple coroots are gamma's plus column i of the Cartan matrix.
    Each level is sorted, so the roots come in (height, coefficients) order.
    The count is checked against |R| = rank * (ht theta + 1), rank times the
    Coxeter number (Bourbaki, Lie Groups and Lie Algebras VI, 1.11).
    """
    C = cartan_matrix(ctype)
    n = ctype.rank
    cols = [[C[j][i] for j in range(n)] for i in range(n)]
    # level: each root of one height -> (p, its pairings with the simple coroots)
    level = {tuple(int(j == i) for j in range(n)): ([0] * n, cols[i]) for i in range(n)}
    positive: list[RootVec] = []
    while level:
        positive += sorted(level)
        up: dict[RootVec, tuple[list[int], list[int]]] = {}
        for gamma, (p, q) in level.items():
            for i in range(n):
                if p[i] > q[i]:
                    image = list(gamma)
                    image[i] += 1
                    t = tuple(image)
                    if t not in up:
                        up[t] = ([0] * n, [a + b for a, b in zip(q, cols[i])])
                    up[t][0][i] = p[i] + 1
        level = up
    highest = positive[-1]
    coxeter = sum(highest) + 1
    if 2 * len(positive) != n * coxeter:
        raise InvariantViolation(
            f"{ctype} has {2 * len(positive)} roots, not rank * (ht theta + 1) = {n * coxeter}"
        )
    if tuple(map(max, zip(*positive))) != highest:  # each coefficient peaks at theta
        raise InvariantViolation(f"highest root of {ctype} fails to dominate every root")
    if math.gcd(*highest) != 1:
        raise InvariantViolation(f"marks of {ctype} have gcd > 1")
    return RootSystem(ctype, C, tuple(positive), highest)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact for p < 2**64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or p in bases:
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for a in bases:
        x = pow(a, (p - 1) >> s, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_good_prime(rs: RootSystem, p: int) -> bool:
    """True iff p is 0 or divides no coefficient of the highest root.

    p must be 0 or a prime below 2**64, the range _is_prime decides.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise InputError(f"characteristic must be 0 or a prime, got {p!r}")
    if p == 0:
        return True
    if p >= 2**64 or not _is_prime(p):
        raise InputError(f"characteristic must be 0 or a prime, got {p}")
    return all(a % p != 0 for a in rs.marks)


def bad_primes(rs: RootSystem) -> tuple[int, ...]:
    """The primes dividing some mark, in increasing order."""
    return tuple(
        q for q in range(2, max(rs.marks) + 1)
        if _is_prime(q) and any(a % q == 0 for a in rs.marks)
    )


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


def _labeled_items(items: Iterable[tuple[Sequence[int], int]]) -> tuple[tuple[RootVec, int], ...]:
    """A labeled base as sorted (root, label) items; each label must be an int, not a bool."""
    items = [(tuple(r), l) for r, l in items]
    for _, l in items:
        if not isinstance(l, int) or isinstance(l, bool):
            raise InputError(f"labels must be integers, got {l!r}")
    return tuple(sorted(items))


def _reflect_to_dominant(
    rs: RootSystem, m: list[int], nodes: Sequence[int]
) -> list[int]:
    """Reflect the integer coweight m in place until it is dominant on nodes.

    Each step reflects at the first node, in the order of nodes, whose
    coordinate is negative, then rescans from the first node; a reflection
    negates its own coordinate and changes only those of its cartan_rows
    entries.  Returns the word.  The parabolic subgroup on nodes has no
    element longer than |R+|, so no walk takes more steps.
    """
    rows = rs.cartan_rows
    word: list[int] = []
    for _ in range(len(rs.positive_roots) + 1):
        for i in nodes:
            if m[i] < 0:
                break
        else:
            return word
        coef = m[i]
        m[i] = -coef
        for j, c in rows[i]:
            m[j] -= coef * c
        word.append(i)
    raise InvariantViolation("dominant reduction failed to terminate")


def to_dominant(rs: RootSystem, lam: Sequence) -> tuple[CocharVec, WeylWord]:
    """The unique dominant Weyl conjugate, with a word mapping the input to it.

    Repeatedly reflects at the smallest-index negative coordinate, rescanning
    from index 0 after every reflection; this takes at most |R+| steps.  The
    walk runs in place on a list of integers: the input is scaled once by the
    lcm of its denominators.
    """
    lam = tuple(lam)
    if len(lam) != rs.rank:
        raise InputError(f"dimension mismatch: {len(lam)} vs {rs.rank}")
    lam = as_cochar(lam)
    den = math.lcm(*(c.denominator for c in lam))
    m = [c.numerator * (den // c.denominator) for c in lam]
    word = tuple(_reflect_to_dominant(rs, m, range(rs.rank)))
    return tuple(Fraction(v, den) for v in m), word


def coroot(rs: RootSystem, gamma: RootVec) -> RootVec:
    """Coweight-basis coordinates of gamma^vee, i.e. (<alpha_k, gamma^vee>)_k.

    Read from rs.root_index.coroots; a vector that is not a root is an
    InputError.
    """
    table = rs.root_index
    k = table.index.get(tuple(gamma))
    if k is None:
        raise InputError(f"{gamma} is not a root of {rs.ctype}")
    return table.coroots[k]


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
    reflection s_{theta,1}.  The walk runs on integers: the point is scaled
    once by the lcm of its denominators.
    """
    n = rs.rank
    point = as_cochar(point)
    if len(point) != n:
        raise InputError("dimension mismatch")
    shift = tuple(math.floor(v) for v in point)
    den = math.lcm(*(v.denominator for v in point))
    x = [(v - s).numerator * (den // v.denominator) for v, s in zip(point, shift)]
    theta_vee = highest_coroot(rs)
    marks = rs.marks
    steps: list[int] = []
    for _ in range(_ALCOVE_CAP):
        steps += _reflect_to_dominant(rs, x, range(n))
        h = _dot(marks, x)
        if h <= den:
            break
        # affine reflection s_{theta,1}: x -> x - (<theta,x> - 1) theta^vee
        for j, t in enumerate(theta_vee):
            x[j] -= (h - den) * t
        steps.append(n)
    else:
        raise InvariantViolation("alcove reduction failed to terminate")

    walls = {k for k in range(n) if x[k] % den == 0}
    if h % den == 0:
        walls.add(n)
    if len(walls) == n + 1:
        walls = set(range(n))  # lattice point: the subsystem is all of R
    return tuple(Fraction(v, den) for v in x), frozenset(walls), shift, steps


def alcove_reduce(rs: RootSystem, point: Sequence) -> tuple[CocharVec, frozenset[int]]:
    """Reduce a rational point into the closed fundamental alcove.

    Returns (reduced, walls) where walls is the set of node ids (affine node
    included) whose pairing at the reduced point is integral -- normalized to
    the simple nodes alone when every wall is integral.
    """
    x, walls, _, _ = _alcove_walk(rs, point)
    return x, walls


Pairings = tuple[Sequence[Sequence[int]], Sequence[RootVec]]


def base_pairings(rs: RootSystem, base: Sequence[RootVec]) -> Pairings:
    """(cartan, coroots) of a base: cartan[a][b] = <base[b], base[a]^vee>, and
    coroots[a] = coroot(rs, base[a])."""
    cor = [coroot(rs, b) for b in base]
    return [[_dot(b, c) for b in base] for c in cor], cor


def solve_cochar_for_base(
    rs: RootSystem, base: Sequence[RootVec], targets: Sequence
) -> CocharVec:
    """The unique lam in the span of the base's coroots with <base[a], lam> = targets[a].

    Solved on integers: the targets, ints or Fractions (as_cochar), are
    scaled once by the lcm of their denominators, elimination keeps integer
    rows, and each coordinate is divided out at the end.  A target count
    other than the base's, or a base whose roots are not linearly
    independent, is an InputError; the empty base gives the zero cochar.
    """
    k = len(base)
    if len(targets) != k:
        raise InputError(f"{len(targets)} targets for a base of {k} roots")
    cartan, cor = base_pairings(rs, base)
    rhs = as_cochar(targets)
    scale = math.lcm(*(t.denominator for t in rhs))
    try:
        A = _eliminate(
            [
                [cartan[b][a] for b in range(k)]
                + [rhs[a].numerator * (scale // rhs[a].denominator)]
                for a in range(k)
            ]
        )
    except InvariantViolation:
        raise InputError(f"base {list(base)} is not linearly independent") from None
    # Now A[a][a] * x_a = A[a][k]; lam = sum_a x_a cor[a] over the denominator den.
    den = math.lcm(*(A[a][a] for a in range(k)))
    x = [A[a][k] * (den // A[a][a]) for a in range(k)]
    return tuple(
        Fraction(sum(x[a] * cor[a][j] for a in range(k)), den * scale)
        for j in range(rs.rank)
    )


def _eliminate(A: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan elimination of a nonsingular integer system [M | rhs], on integers.

    Returns the rows, reordered and combined, with A[a][b] = 0 for b != a
    among the first k columns: A[a][a] * x_a = A[a][k].  Each combined row is
    divided by the gcd of its entries.
    """
    k = len(A)
    for col in range(k):
        piv = next((r for r in range(col, k) if A[r][col] != 0), None)
        if piv is None:
            raise InvariantViolation("singular pairing matrix (input roots dependent)")
        A[col], A[piv] = A[piv], A[col]
        p = A[col]
        for r in range(k):
            f = A[r][col]
            if r != col and f != 0:
                row = [p[col] * v - f * w for v, w in zip(A[r], p)]
                g = math.gcd(*row)
                A[r] = [v // g for v in row] if g > 1 else row
    return A


@lru_cache(maxsize=None)
def _cartan_inverse(ctype: CartanType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, W) with W / den the inverse of C = cartan_matrix(ctype).

    Row b of W / den holds the coefficients of the fundamental coweight
    omega_b^vee on the simple coroots.  One integer Gauss-Jordan elimination
    of [C | identity]; den is the lcm of its pivots.
    """
    C = cartan_matrix(ctype)
    k = ctype.rank
    A = _eliminate([list(C[a]) + [int(a == b) for b in range(k)] for a in range(k)])
    den = math.lcm(*(A[a][a] for a in range(k)))
    return den, tuple(tuple(v * (den // A[a][a]) for v in A[a][k:]) for a in range(k))


def coroot_coefficients(ctype: CartanType, labels: tuple[int, ...]) -> tuple[int, ...]:
    """The integer c with sum_a c[a] * C[a][b] = labels[b], C = cartan_matrix(ctype).

    sum_a c[a] alpha_a^vee is the cocharacter in the span of the simple
    coroots that pairs to labels[b] with alpha_b, the sum of labels[b] *
    omega_b^vee; the all-2 labels give 2 rho^vee.  A base of type ctype, in
    the node order of its match, has the same c on its own coroots.  Read
    off the type's one integer inverse (_cartan_inverse); a c that is not
    integral is an InvariantViolation.
    """
    k = ctype.rank
    if len(labels) != k:
        raise InputError(f"{len(labels)} labels for {ctype}")
    den, W = _cartan_inverse(ctype)
    total = [0] * k
    for label, row in zip(labels, W):
        if label:
            for a, w in enumerate(row):
                total[a] += label * w
    out = []
    for t in total:
        x, r = divmod(t, den)
        if r:
            raise InvariantViolation(
                f"labels {labels} of {ctype} have non-integral coroot coefficients"
            )
        out.append(x)
    return tuple(out)


def coroot_combination(rank: int, terms: Iterable[tuple[int, SparseRow]]) -> list[int]:
    """sum c * row over the (c, row) of terms: integer coweight coordinates.

    Each row is a coweight vector as its nonzero (j, value) pairs, as in
    ExtendedDiagram.coroot_rows.
    """
    lam = [0] * rank
    for c, row in terms:
        for j, x in row:
            lam[j] += c * x
    return lam


def dominant_transport(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]]
) -> tuple[CocharVec, tuple[int, ...]]:
    """(lam_dom, start): a labeled base carried along with its cocharacter.

    lam_dom is the dominant conjugate of the cocharacter solved from the
    labels, and start is the base moved by the same Weyl word, encoded for
    _stabilizer_orbit: a labeled root (r, l) becomes rank(l) * |R| + index of
    r, where rank(l) is the position of l among the base's distinct labels.
    The transported labels are the pairings with lam_dom, so under equal
    lam_dom equal starts mean equal labeled bases.
    """
    items = tuple(items)
    lam = solve_cochar_for_base(rs, [r for r, _ in items], [l for _, l in items])
    lam_dom, word = to_dominant(rs, lam)
    return lam_dom, transport_start(rs, items, word)


def transport_start(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]], word: WeylWord
) -> tuple[int, ...]:
    """The labeled base moved by a Weyl word, encoded as dominant_transport's start.

    word is the word to_dominant returned for the cocharacter solved from the
    labels; a caller that already ran that reduction passes its word here
    instead of solving and reducing again.
    """
    table = rs.root_index
    reflections, n_roots = table.reflections, len(table.roots)
    items = tuple(items)
    rank = {l: k for k, l in enumerate(sorted({l for _, l in items}))}
    codes = []
    for r, l in items:
        i = table.index.get(tuple(r))
        if i is None:
            raise InputError(f"{r} is not a root of {rs.ctype}")
        for s in word:
            i = reflections[s][i]
        codes.append(rank[l] * n_roots + i)
    return tuple(sorted(codes))


def _stabilizer_orbit(
    rs: RootSystem, nodes: Sequence[int], start: tuple[int, ...], budget: int
) -> set[tuple[int, ...]]:
    """Every state of the orbit of start under the parabolic subgroup W_nodes.

    W_nodes is generated by the simple reflections s_i, i in nodes; each acts
    on the codes of dominant_transport as a permutation.  The stabilizer of a
    dominant vector is the W_nodes of its zero coordinates (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12).  budget bounds the states
    visited (BudgetExceeded).
    """
    table = rs.root_index
    n_roots = len(table.roots)
    n_labels = start[-1] // n_roots + 1 if start else 1
    perms = [table.reflections[i] for i in nodes]
    if n_labels > 1:
        perms = [tuple(k * n_roots + j for k in range(n_labels) for j in p) for p in perms]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for perm in perms:
                image = tuple(sorted([perm[c] for c in state]))
                if image not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceeded(
                            f"stabilizer-orbit walk exceeded {budget} states"
                            f" for a labeled base of {rs.ctype}"
                        )
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


def _zero_nodes(vec: Sequence, nodes: Iterable[int]) -> list[int]:
    return [i for i in nodes if vec[i] == 0]


def _refine_start(
    rs: RootSystem, nodes: Sequence[int], start: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v_dom, moved): a start carried to the W_nodes-dominant form of its coweight.

    The coweight v of a start sums (label rank + 1) * coroot of its root over
    its codes.  It is W-equivariant, so starts in one W_nodes-orbit have
    equal v_dom, and two moved starts with equal v_dom are in one orbit iff
    they are in one orbit of v_dom's stabilizer in W_nodes, the parabolic
    subgroup of the nodes where v_dom vanishes.  v is reduced by
    to_dominant's rule restricted to nodes, and the start moved by the same
    word.
    """
    table = rs.root_index
    n_roots = len(table.roots)
    v = [0] * rs.rank
    for code in start:
        weight = code // n_roots + 1
        v = [a + weight * c for a, c in zip(v, table.coroots[code % n_roots])]
    word = _reflect_to_dominant(rs, v, nodes)
    moved = []
    for code in start:
        label, r = divmod(code, n_roots)
        for s in word:
            r = table.reflections[s][r]
        moved.append(label * n_roots + r)
    return tuple(v), tuple(sorted(moved))


def partition_orbits(
    rs: RootSystem,
    pairs: Sequence[tuple[CocharVec, tuple[int, ...]]],
    budget: int = DEFAULT_BUDGET,
) -> list[list[int]]:
    """Split (lam_dom, start) pairs of dominant_transport into Weyl orbits.

    Returns the positions of each orbit's members.  Starts under one lam_dom
    are conjugate iff they are under its stabilizer W_I, I the zero
    coordinates of lam_dom.  Every start is refined under W_I
    (_refine_start), so pairs are bucketed by the one key (lam_dom, v_dom)
    and, inside a bucket, by moved start; a bucket is split under the
    smaller stabilizer of v_dom in W_I.  One walk is made per orbit found:
    the orbit of the first unassigned start collects every member whose
    start lies in it, and a start left alone needs no walk.  budget bounds
    the states of each walk.
    """
    buckets: dict[tuple, dict[tuple[int, ...], list[int]]] = {}
    for pos, (lam_dom, start) in enumerate(pairs):
        v_dom, moved = _refine_start(rs, _zero_nodes(lam_dom, range(rs.rank)), start)
        buckets.setdefault((lam_dom, v_dom), {}).setdefault(moved, []).append(pos)
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


def canonical_labeled_set(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]], budget: int = DEFAULT_BUDGET
) -> tuple:
    """Canonical form (lam_dom, best) of a labeled base under the Weyl group.

    lam_dom is the dominant conjugate of the cocharacter solved from the
    labels; best is the decoded smallest state in the orbit of the transported
    base under the stabilizer of lam_dom (see dominant_transport), as a sorted
    labeled base.  Two labeled bases are Weyl-conjugate iff their canonical
    forms coincide.  A label that is not an int is an InputError.  budget
    bounds the states visited (BudgetExceeded).
    Nothing is memoized: every call walks the orbit.
    """
    items = _labeled_items(items)
    lam_dom, start = dominant_transport(rs, items)
    nodes = _zero_nodes(lam_dom, range(rs.rank))
    best = min(_stabilizer_orbit(rs, nodes, start, budget))
    roots = rs.root_index.roots
    labels = sorted({l for _, l in items})
    decoded = ((roots[c % len(roots)], labels[c // len(roots)]) for c in best)
    return (lam_dom, tuple(sorted(decoded)))
