"""Closed subsystems attached to subsets of the extended Dynkin diagram.

Node ids: 0..rank-1 are the simple roots (Bourbaki order), rank is the affine
node carrying minus the highest root with mark 1.  For a proper subset J of
the nodes, the subsystem is the set of roots in the integer span of J's roots;
enumeration groups these subsystems up to Weyl conjugacy and attaches the
torsion order d_J = gcd of the marks outside J.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation, WitnessSearchExhausted
from .rootsys import (
    DEFAULT_BUDGET,
    CartanType,
    CocharVec,
    RootSystem,
    RootVec,
    affine_node,
    all_roots,
    alcove_reduce,
    as_cochar,
    build_root_system,
    canonical_labeled_set,
    cartan_matrix,
    coroot,
    is_good_prime,
    solve_cochar_for_base,
    to_dominant,
    zero_cochar,
    _dot,
)


@dataclass(frozen=True)
class ExtendedDiagram:
    """The extended node set with each node's root vector and mark."""

    rs: RootSystem
    root_of: tuple[RootVec, ...]
    mark_of: tuple[int, ...]

    @property
    def nodes(self) -> range:
        return range(len(self.root_of))


@lru_cache(maxsize=None)
def extended_diagram(rs: RootSystem) -> ExtendedDiagram:
    n = rs.rank
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    root_of = tuple(simples) + (tuple(-c for c in rs.highest_root),)
    mark_of = rs.marks + (1,)
    total = [0] * n
    for r, m in zip(root_of, mark_of):
        for j in range(n):
            total[j] += m * r[j]
    if any(total):
        raise InvariantViolation("affine relation violated")
    return ExtendedDiagram(rs, root_of, mark_of)


def _check_subset(ext: ExtendedDiagram, J: Iterable[int]) -> tuple[int, ...]:
    J = tuple(sorted(set(J)))
    nodes = set(ext.nodes)
    if not set(J) <= nodes:
        raise InputError(f"J contains unknown nodes: {J}")
    if len(J) == len(nodes):
        raise InputError("J must be a proper subset of the extended node set")
    return J


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


def subsystem_closure(ext: ExtendedDiagram, J: Iterable[int]) -> frozenset[RootVec]:
    """R_J: the roots in the integer span of the node roots of J (J proper)."""
    J = _check_subset(ext, J)
    return lattice_root_closure(ext.rs, [ext.root_of[j] for j in J])


def subsystem_base(rs: RootSystem, subsystem: Iterable[RootVec]) -> tuple[RootVec, ...]:
    """The indecomposable positive elements: a base of the closed subsystem."""
    pos = sorted(g for g in subsystem if sum(g) > 0)
    posset = set(pos)
    base = []
    for g in pos:
        decomposable = any(
            tuple(a - b for a, b in zip(g, d)) in posset for d in pos if d != g
        )
        if not decomposable:
            base.append(g)
    return tuple(base)


def _component_split(rs: RootSystem, base: Sequence[RootVec]) -> list[list[int]]:
    k = len(base)
    cor = [coroot(rs, b) for b in base]
    adj = [[b for b in range(k) if b != a and _dot(base[a], cor[b]) != 0] for a in range(k)]
    seen = [False] * k
    comps = []
    for start in range(k):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _candidate_types(k: int) -> list[CartanType]:
    out = [CartanType("A", k)]
    if k >= 2:
        out.append(CartanType("B", k))
        out.append(CartanType("C", k))
    if k >= 4:
        out.append(CartanType("D", k))
    if k in (6, 7, 8):
        out.append(CartanType("E", k))
    if k == 4:
        out.append(CartanType("F", 4))
    if k == 2:
        out.append(CartanType("G", 2))
    return out


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
def _base_components_cached(
    rs: RootSystem, base: tuple[RootVec, ...]
) -> tuple[tuple[CartanType, tuple[RootVec, ...]], ...]:
    if not base:
        return ()
    cor = [coroot(rs, b) for b in base]
    # Same convention as cartan_matrix: M[a][b] = <base[b], base[a]^vee>.
    M = [[_dot(base[b], cor[a]) for b in range(len(base))] for a in range(len(base))]
    out = []
    for comp in _component_split(rs, base):
        sub = [[M[a][b] for b in comp] for a in comp]
        for ct in _candidate_types(len(comp)):
            order = _match_cartan(sub, cartan_matrix(ct))
            if order is not None:
                out.append((ct, tuple(base[comp[i]] for i in order)))
                break
        else:
            raise InvariantViolation("base is not of finite Cartan type")
    return tuple(sorted(out))


def base_components(
    rs: RootSystem, base: Sequence[RootVec]
) -> tuple[tuple[CartanType, tuple[RootVec, ...]], ...]:
    """Irreducible components of a base, each with roots in standard node order."""
    return _base_components_cached(rs, tuple(base))


def classify_factors(rs: RootSystem, subsystem: Iterable[RootVec]) -> tuple[CartanType, ...]:
    """The multiset of irreducible Cartan types of a closed subsystem."""
    base = subsystem_base(rs, subsystem)
    return tuple(sorted(ct for ct, _ in base_components(rs, base)))


def torsion_order(ext: ExtendedDiagram, J: Iterable[int]) -> int:
    """gcd of the marks over the complement of J in the extended node set."""
    J = _check_subset(ext, J)
    out = 0
    for node in ext.nodes:
        if node not in J:
            out = gcd(out, ext.mark_of[node])
    return out


@dataclass(frozen=True)
class PseudoLevi:
    """One Weyl-conjugacy class of subsystems, with a canonical subset representative."""

    J: tuple[int, ...]
    subsystem: frozenset[RootVec]
    factor_types: tuple[CartanType, ...]
    dJ: int


def canonical_subsystem(
    rs: RootSystem, subsystem: Iterable[RootVec], budget: int | None = None
) -> tuple:
    """Canonical form deciding Weyl conjugacy of closed subsystems (as root sets)."""
    base = subsystem_base(rs, frozenset(subsystem))
    return canonical_labeled_set(rs, tuple((r, 2) for r in base), budget=budget)


def _proper_subsets(n_nodes: int):
    for size in range(n_nodes):
        yield from itertools.combinations(range(n_nodes), size)


def _subset_info(rs: RootSystem, J: tuple[int, ...]):
    ext = extended_diagram(rs)
    base = tuple(ext.root_of[j] for j in J)
    types = tuple(sorted(ct for ct, _ in base_components(rs, base)))
    dJ = torsion_order(ext, J)
    if base:
        lam = solve_cochar_for_base(rs, base, [2] * len(base))
        lam_dom, _ = to_dominant(rs, lam)
    else:
        lam_dom = zero_cochar(rs)
    return types, dJ, lam_dom


def enumerate_pseudolevis(
    rs: RootSystem, budget: int = DEFAULT_BUDGET
) -> tuple[PseudoLevi, ...]:
    """All subsystem classes R_J for proper subsets J, one representative each.

    Representatives prefer subsets of the simple nodes, then the
    lexicographically smallest node tuple; output is sorted by (rank of
    subsystem, factor types, d_J, J).  budget bounds each canonical-form
    search (BudgetExceeded).
    """
    return _enumerate_pseudolevis_cached(rs, budget)


@lru_cache(maxsize=None)
def _enumerate_pseudolevis_cached(rs: RootSystem, budget: int) -> tuple[PseudoLevi, ...]:
    # The bucket key needs no closure: the factor types already fix the
    # subsystem's size.  Only each class's representative is closed.
    ext = extended_diagram(rs)
    buckets: dict[tuple, list] = {}
    for J in _proper_subsets(len(ext.root_of)):
        buckets.setdefault(_subset_info(rs, J), []).append(J)
    classes: dict[tuple, list] = {}
    for bucket_key, members in sorted(buckets.items()):
        if len(members) == 1:
            classes[(bucket_key, None)] = members
            continue
        for J in members:
            canon = canonical_labeled_set(
                rs, tuple((ext.root_of[j], 2) for j in J), budget=budget
            )
            classes.setdefault((bucket_key, canon[1]), []).append(J)
    out = []
    aff = affine_node(rs)
    for ((types, dJ, _), _), members in classes.items():
        levi = [J for J in members if aff not in J]
        rep = min(levi) if levi else min(members)
        out.append(PseudoLevi(rep, subsystem_closure(ext, rep), types, dJ))
    out.sort(key=lambda pl: (len(pl.J), pl.factor_types, pl.dJ, pl.J))
    return tuple(out)


def _primes_upto(n: int) -> list[int]:
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            for m in range(i * i, n + 1, i):
                sieve[m] = False
    return [i for i, v in enumerate(sieve) if v]


_WITNESS_PRIME_BOUND = 1000


def point_order(lam: Sequence) -> int:
    """Order of the point in the torus V / (coweight lattice)."""
    out = 1
    for c in as_cochar(lam):
        out = out * c.denominator // gcd(out, c.denominator)
    return out


def witness_element(rs: RootSystem, J: Iterable[int], p: int) -> CocharVec:
    """A rational point whose alcove wall set is exactly J, of order prime to p.

    Built from the fundamental coweights of the removed simple nodes and an
    auxiliary prime distinct from p; primes are tried in increasing order up
    to a fixed bound.
    """
    if not is_good_prime(rs, p):
        raise InputError(f"p={p} is not good for {rs.ctype}")
    ext = extended_diagram(rs)
    J = _check_subset(ext, J)
    n = rs.rank
    aff = affine_node(rs)
    removed = [i for i in range(n) if i not in J]
    if aff not in J:
        if not removed:
            vec = zero_cochar(rs)  # J = S: the identity element
            _, walls = alcove_reduce(rs, vec)
            if walls != frozenset(J):
                raise InvariantViolation("lattice point did not certify J = S")
            return vec
        candidates = _levi_witness_candidates(rs, removed)
    else:
        candidates = _affine_witness_candidates(rs, removed)
    tried = 0
    for vec in candidates:
        tried += 1
        _, walls = alcove_reduce(rs, vec)
        if walls != frozenset(J):
            continue
        if p > 0 and point_order(vec) % p == 0:
            continue
        return vec
    raise WitnessSearchExhausted(
        f"no auxiliary prime below {_WITNESS_PRIME_BOUND} certifies J={J} for"
        f" {rs.ctype} at p={p} ({tried} candidates tried)"
    )


def _levi_witness_candidates(rs: RootSystem, removed: list[int]):
    n = rs.rank
    for ell in _primes_upto(_WITNESS_PRIME_BOUND):
        yield tuple(
            Fraction(1, ell) if i in removed else Fraction(0) for i in range(n)
        )


def _affine_witness_candidates(rs: RootSystem, removed: list[int]):
    if not removed:
        raise InvariantViolation("affine witness requested with no removed simple node")
    n = rs.rank
    i1 = removed[0]
    a1 = rs.marks[i1]
    rest = removed[1:]
    tail = sum(rs.marks[i] for i in rest)
    for ell in _primes_upto(_WITNESS_PRIME_BOUND):
        if ell <= tail:
            continue
        vec = [Fraction(0)] * n
        vec[i1] = Fraction(ell - tail, a1 * ell)
        for i in rest:
            vec[i] = Fraction(1, ell)
        yield tuple(vec)


def good_inheritance_check(rs: RootSystem, pl: PseudoLevi, p: int) -> bool:
    """Whether p is good for every factor type of the pseudo-Levi."""
    if not is_good_prime(rs, p):
        raise InputError(f"p={p} is not good for {rs.ctype}")
    return all(is_good_prime(build_root_system(ct), p) for ct in pl.factor_types)
