"""Root construction, good primes, dominance, and alcove reduction."""
from fractions import Fraction

import math

import pytest
from hypothesis import given, settings, strategies as st

from unipcent import rootsys
from unipcent import (
    CartanType,
    InputError,
    InvariantViolation,
    alcove_reduce,
    alcove_reduce_map,
    all_roots,
    apply_word,
    bad_primes,
    build_root_system,
    canonical_labeled_set,
    cochar_for_labeled_base,
    coroot,
    extended_diagram,
    is_good_prime,
    pairing,
    to_dominant,
)
from unipcent.oracle import (
    _coroot_coords,
    _root_lengths,
    act_labeled_set,
    brute_orbit,
    reflect_cochar,
    reflect_root,
)
from unipcent.rootsys import (
    _opposition,
    _refine_start,
    as_cochar,
    dominant_transport,
    highest_coroot,
    partition_orbits,
    solve_cochar_for_base,
)

ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rs_of(name):
    return build_root_system(CartanType.parse(name))


def classical_positive_count(ct: CartanType) -> int:
    n = ct.rank
    if ct.family == "A":
        return n * (n + 1) // 2
    if ct.family in ("B", "C"):
        return n * n
    if ct.family == "D":
        return n * (n - 1)
    if ct.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if ct.family == "F" else 6


@pytest.mark.parametrize("bad", ["Q9", "E9", "E5", "D2", "F3", "G3", "A0", "B1"])
def test_inadmissible_types_rejected(bad):
    with pytest.raises(InputError):
        CartanType.parse(bad)


def test_parse_roundtrip():
    ct = CartanType.parse("b4")
    assert (ct.family, ct.rank) == ("B", 4)
    assert str(ct) == "B4"


def test_cartan_type_is_a_validated_tuple():
    types = [CartanType.parse(n) for n in ("G2", "A10", "E8", "A3", "E6")]
    assert [str(t) for t in sorted(types)] == ["A3", "A10", "E6", "E8", "G2"]
    assert hash(CartanType("E", 8)) == hash(("E", 8))
    assert repr(CartanType("E", 8)) == "CartanType(family='E', rank=8)"
    with pytest.raises(AttributeError):
        CartanType("E", 8).rank = 7
    for family, rank in [("Q", 2), ("E", 9), ("D", 2), ("A", True), ("A", 2.0)]:
        with pytest.raises(InputError):
            CartanType(family, rank)
    with pytest.raises(InputError):
        CartanType("E", 8)._replace(rank=9)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_counts(name):
    rs = rs_of(name)
    assert len(rs.positive_roots) == classical_positive_count(rs.ctype)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


BCD_RANKS_9_TO_12 = [f"{family}{r}" for family in "BCD" for r in range(9, 13)]


@pytest.mark.parametrize("name", ALL_TYPES + BCD_RANKS_9_TO_12)
def test_positive_roots_are_the_sorted_reflection_closure(name):
    """The string builder against the closure of the simple roots under
    reflect_root, order included: _root_masks' bit order and highest_root =
    positive_roots[-1] read it."""
    rs = rs_of(name)
    n = rs.rank
    roots = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        frontier = {reflect_root(rs, i, g) for g in frontier for i in range(n)} - roots
        roots |= frontier
    positive = sorted((g for g in roots if sum(g) > 0), key=lambda g: (sum(g), g))
    assert rs.positive_roots == tuple(positive)
    assert 2 * len(positive) == len(roots)
    assert rs.highest_root == positive[-1]


def test_a_decomposable_matrix_breaks_the_coxeter_count(monkeypatch):
    """2 |R+| = rank * (ht theta + 1) holds for irreducible types only: A1 x A2
    has 8 roots and a top root of height 2, and 8 != 3 * 3."""
    a1_a2 = ((2, 0, 0), (0, 2, -1), (0, -1, 2))
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda ctype: a1_a2)
    with pytest.raises(InvariantViolation, match="not rank"):
        build_root_system.__wrapped__(CartanType("A", 3))


@pytest.mark.parametrize(
    "name",
    [f"{f}{r}" for f, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for r in range(low, 13)]
    + ["E6", "E7", "E8", "F4", "G2"],
)
def test_root_lengths_symmetrize_the_cartan_matrix(name):
    """The reference's per-family d: d_i C[i][j] = d_j C[j][i], min(d) = 1."""
    rs = rs_of(name)
    C, d = rs.cartan, _root_lengths(rs)
    assert min(d) == 1
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert d[i] * C[i][j] == d[j] * C[j][i], (i, j)


@pytest.mark.parametrize("name", ALL_TYPES + ["B10", "C10", "D10"])
def test_sparse_tables_match_the_dense_reference(name):
    """The closure and root_index read sparse Cartan rows and take coroots from
    the reflections; reflect_root and _coroot_coords read the dense matrix and
    the family's root lengths."""
    rs = rs_of(name)  # test_positive_root_counts checks |R+| against its closed form
    table = rs.root_index
    for i in range(rs.rank):
        expected = tuple(table.index[reflect_root(rs, i, g)] for g in table.roots)
        assert table.reflections[i] == expected
    assert table.coroots == tuple(_coroot_coords(rs, g) for g in table.roots)
    # The affine node's reflection, the last one, is s_theta.
    theta, theta_vee = rs.highest_root, _coroot_coords(rs, rs.highest_root)
    s_theta = [tuple(c - pairing(g, theta_vee) * t for c, t in zip(g, theta)) for g in table.roots]
    assert table.reflections[rs.rank:] == (tuple(map(table.index.__getitem__, s_theta)),)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_reflection_closure_and_signs(name):
    rs = rs_of(name)
    roots = all_roots(rs)
    for gamma in roots:
        assert all(c >= 0 for c in gamma) or all(c <= 0 for c in gamma)
        for i in range(rs.rank):
            assert reflect_root(rs, i, gamma) in roots


@pytest.mark.parametrize("name", ALL_TYPES)
def test_highest_root_dominates_and_marks(name):
    rs = rs_of(name)
    for g in rs.positive_roots:
        assert all(h >= c for h, c in zip(rs.highest_root, g))
    assert rs.marks == rs.highest_root
    assert all(a >= 1 for a in rs.marks)
    from math import gcd

    assert gcd(*rs.marks) == 1


def test_small_examples():
    a2 = rs_of("A2")
    assert len(a2.positive_roots) == 3 and a2.marks == (1, 1)
    a1 = rs_of("A1")
    assert len(a1.positive_roots) == 1 and a1.highest_root == (1,)
    e8 = rs_of("E8")
    assert len(e8.positive_roots) == 120 and len(all_roots(e8)) == 240


def expected_bad_primes(ct: CartanType):
    if ct.family == "A" or (ct.family, ct.rank) == ("D", 3):
        return ()
    if ct.family in ("B", "C", "D"):
        return (2,)
    if (ct.family, ct.rank) == ("E", 8):
        return (2, 3, 5)
    return (2, 3)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_bad_primes_table(name):
    rs = rs_of(name)
    assert bad_primes(rs) == expected_bad_primes(rs.ctype)
    for p in (0, 2, 3, 5, 7):
        expected = p == 0 or p not in expected_bad_primes(rs.ctype)
        assert is_good_prime(rs, p) == expected


def test_good_prime_examples_and_errors():
    assert is_good_prime(rs_of("A5"), 2)
    assert not is_good_prime(rs_of("E8"), 5)
    assert is_good_prime(rs_of("G2"), 0)
    with pytest.raises(InputError):
        is_good_prime(rs_of("A2"), 4)
    with pytest.raises(InputError):
        is_good_prime(rs_of("A2"), 1)
    with pytest.raises(InputError):
        is_good_prime(rs_of("A2"), -3)


def test_pairing_basis_and_errors():
    a2 = rs_of("A2")
    zero = (Fraction(0), Fraction(0))
    assert pairing((1, 0), zero) == 0
    assert pairing((1, 0), (Fraction(2), Fraction(0))) == 2
    assert pairing(a2.highest_root, (Fraction(1), Fraction(1))) == 2
    with pytest.raises(InputError):
        pairing((1, 0, 0), zero)
    with pytest.raises(InputError):
        as_cochar((0.5, 1))


def test_coroot_values():
    b2 = rs_of("B2")
    # coords of gamma^vee are its pairings with the simples (Cartan row)
    assert coroot(b2, (1, 0)) == (2, -1)
    assert coroot(b2, (0, 1)) == (-2, 2)
    assert coroot(b2, b2.highest_root) == (0, 1)
    g2 = rs_of("G2")
    assert coroot(g2, g2.highest_root) == (0, 1)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_coroot_table_pairs_to_two_and_is_w_equivariant(name):
    rs = rs_of(name)
    for gamma in all_roots(rs):
        assert pairing(gamma, coroot(rs, gamma)) == 2
        for i in range(rs.rank):
            image = reflect_root(rs, i, gamma)
            assert coroot(rs, image) == reflect_cochar(rs, i, coroot(rs, gamma))


def test_coroot_of_a_non_root_is_an_input_error():
    a2 = rs_of("A2")
    # (1, 2) has an integral "coroot" and (2, 0) a non-integral one
    for bad in [(1, 2), (2, 0), (0, 0)]:
        with pytest.raises(InputError):
            coroot(a2, bad)
    with pytest.raises(InputError):
        cochar_for_labeled_base(a2, [((1, 2), 2)])


def test_to_dominant_trivial_cases():
    a2 = rs_of("A2")
    zero = (0, 0)
    dom, word = to_dominant(a2, zero)
    assert dom == (0, 0) and word == ()
    dom, word = to_dominant(a2, (2, 1))
    assert dom == (2, 1) and word == ()


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_to_dominant_matches_orbit_bfs(name):
    rs = rs_of(name)
    samples = [
        tuple(Fraction(v) for v in vec)
        for vec in [
            (-1,) * rs.rank,
            (-1, 1) + (0,) * (rs.rank - 2) if rs.rank >= 2 else (-1,),
            (2, -3) + (1,) * (rs.rank - 2) if rs.rank >= 2 else (2,),
            tuple(range(-rs.rank, 0)),
        ]
    ]
    for lam in samples:
        orbit = brute_orbit(rs, lam, reflect_cochar)
        dominants = [v for v in orbit if all(c >= 0 for c in v)]
        assert len(dominants) == 1
        dom, word = to_dominant(rs, lam)
        assert dom == dominants[0]
        assert apply_word(rs, word, lam) == dom
        again, word2 = to_dominant(rs, dom)
        assert again == dom and word2 == ()


@pytest.mark.parametrize("name", ALL_TYPES)
def test_opposition_is_minus_the_longest_element(name):
    """-w_0 carries each fundamental coweight to the one _opposition names.

    The dominant conjugate of -omega_i is -w_0(omega_i) = omega_sigma(i).
    """
    rs = rs_of(name)
    sigma = _opposition(rs.ctype)
    assert sorted(sigma) == list(range(rs.rank))
    for i in range(rs.rank):
        dom, _ = to_dominant(rs, tuple(-1 if j == i else 0 for j in range(rs.rank)))
        assert dom == tuple(1 if j == sigma[i] else 0 for j in range(rs.rank)), (name, i)


def test_word_involution():
    g2 = rs_of("G2")
    lam = (Fraction(-5, 3), Fraction(7, 2))
    _, word = to_dominant(rs_of("G2"), lam)
    forward = apply_word(g2, word, lam)
    assert apply_word(g2, tuple(reversed(word)), forward) == lam


def test_alcove_reduce_zero_and_lattice_points():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        vec, walls = alcove_reduce(rs, (0,) * rs.rank)
        assert vec == tuple(Fraction(0) for _ in range(rs.rank))
        assert walls == frozenset(range(rs.rank))
        vec, walls = alcove_reduce(rs, (3,) * rs.rank)
        assert walls == frozenset(range(rs.rank))


def test_alcove_reduce_a1_quarter_coroot():
    a1 = rs_of("A1")
    vec, walls = alcove_reduce(a1, (Fraction(1, 2),))  # alpha^vee / 4
    assert vec == (Fraction(1, 2),)
    assert walls == frozenset()


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "D4", "F4"])
def test_alcove_reduce_replay(name):
    rs = rs_of(name)
    samples = [
        tuple(Fraction(k + 7, 3) if i % 2 else Fraction(-5 - k, 4) for i in range(rs.rank))
        for k in range(3)
    ]
    samples.append(tuple(Fraction(1, 2) for _ in range(rs.rank)))
    for point in samples:
        vec, walls, (mat, shift) = alcove_reduce_map(rs, point)
        assert all(c >= 0 for c in vec)
        assert pairing(rs.highest_root, vec) <= 1
        replay = tuple(
            sum(mat[i][j] * vec[j] for j in range(rs.rank)) + shift[i]
            for i in range(rs.rank)
        )
        assert replay == as_cochar(point)
        for i in range(rs.rank):
            if vec[i].denominator == 1:
                assert i in walls
        assert alcove_reduce(rs, point) == (vec, walls)


def reference_alcove_reduce(rs, point):
    """The alcove walk on Fractions: reduce, then read the walls off the point."""
    n = rs.rank
    x = [c - math.floor(c) for c in as_cochar(point)]
    theta_vee = highest_coroot(rs)
    while True:
        i = next((k for k in range(n) if x[k] < 0), None)
        if i is not None:
            coef = x[i]
            x = [v - coef * c for v, c in zip(x, rs.cartan[i])]
            continue
        h = sum(m * v for m, v in zip(rs.marks, x))
        if h <= 1:
            break
        x = [v - (h - 1) * t for v, t in zip(x, theta_vee)]
    walls = {k for k in range(n) if x[k].denominator == 1}
    if h.denominator == 1:
        walls.add(n)
    if len(walls) == n + 1:
        walls = set(range(n))
    return tuple(x), frozenset(walls)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["B4", "F4", "E7"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=30),
                min_size=rs_of(name).rank,
                max_size=rs_of(name).rank,
            ),
        )
    )
)
def test_alcove_reduce_matches_a_fraction_walk(case):
    name, point = case
    rs = rs_of(name)
    reduced, walls = alcove_reduce(rs, point)
    assert (reduced, walls) == reference_alcove_reduce(rs, point)
    assert all(isinstance(c, Fraction) for c in reduced)
    vec, walls2, (mat, shift) = alcove_reduce_map(rs, point)
    assert (vec, walls2) == (reduced, walls)
    replay = tuple(
        sum(mat[i][j] * vec[j] for j in range(rs.rank)) + shift[i]
        for i in range(rs.rank)
    )
    assert replay == as_cochar(point)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "E8", "G2"])
def test_root_system_hash_follows_its_type(name):
    rs = rs_of(name)
    fresh = build_root_system.__wrapped__(rs.ctype)
    assert fresh is not rs and fresh == rs
    assert hash(rs) == hash(fresh) == hash(build_root_system(rs.ctype))
    assert hash(rs) == hash(rs.ctype)


def test_root_system_equals_only_a_root_system():
    rs = rs_of("B3")
    fields = tuple(rs)
    assert rs != fields and fields != rs and not rs == fields
    assert rs != rs_of("C3")
    with pytest.raises(AttributeError):
        rs.marks = (1, 1, 1)
    assert rs.root_index is rs.root_index  # a cached table, built once


@st.composite
def labeled_base_and_word(draw):
    rs = rs_of(draw(st.sampled_from(["B4", "F4", "E6"])))
    ext = extended_diagram(rs)
    nodes = draw(
        st.lists(st.sampled_from(list(ext.nodes)), unique=True, max_size=rs.rank)
    )
    items = [(ext.root_of[j], draw(st.sampled_from([0, 2]))) for j in nodes]
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=12))
    return rs, items, word


@settings(max_examples=60, deadline=None)
@given(labeled_base_and_word())
def test_weyl_word_keeps_canonical_form_and_orbit(case):
    rs, items, word = case
    moved = []
    for r, l in items:
        for i in word:
            r = reflect_root(rs, i, r)
        moved.append((r, l))
    assert canonical_labeled_set(rs, moved) == canonical_labeled_set(rs, items)
    pairs = [dominant_transport(rs, items), dominant_transport(rs, moved)]
    assert partition_orbits(rs, pairs) == [[0, 1]]


@st.composite
def labeled_base_and_long_word(draw):
    rs = rs_of(draw(st.sampled_from(["B4", "F4", "E6", "E7"])))
    ext = extended_diagram(rs)
    nodes = draw(
        st.lists(st.sampled_from(list(ext.nodes)), unique=True, max_size=rs.rank)
    )
    items = [(ext.root_of[j], draw(st.sampled_from([0, 1, 2]))) for j in nodes]
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=30))
    return rs, items, word


@settings(max_examples=80, deadline=None)
@given(labeled_base_and_long_word())
def test_weyl_word_keeps_the_refined_key(case):
    """(lam_dom, v_dom) is a Weyl-orbit invariant, and the refined walk still joins."""
    rs, items, word = case
    moved = []
    for r, l in items:
        for i in word:
            r = reflect_root(rs, i, r)
        moved.append((r, l))
    pairs = [dominant_transport(rs, items), dominant_transport(rs, moved)]
    (lam_dom, start), (lam_moved, start_moved) = pairs
    assert lam_moved == lam_dom
    stab = [i for i in range(rs.rank) if lam_dom[i] == 0]
    v_dom, _ = _refine_start(rs, stab, start)
    assert _refine_start(rs, stab, start_moved)[0] == v_dom
    assert all(v_dom[i] >= 0 for i in stab)
    assert partition_orbits(rs, pairs) == [[0, 1]]


@settings(max_examples=60, deadline=None)
@given(labeled_base_and_word(), st.data())
def test_solved_cochar_pairs_to_its_targets(case, data):
    rs, items, word = case
    base = [r for r, _ in items]
    for i in word:
        base = [reflect_root(rs, i, r) for r in base]
    targets = data.draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=len(base),
            max_size=len(base),
        )
    )
    lam = solve_cochar_for_base(rs, base, targets)
    assert [pairing(r, lam) for r in base] == targets
    # lam lies in the span of the coroots: it vanishes on their orthogonal roots
    span_zero = [g for g in all_roots(rs) if all(pairing(g, coroot(rs, r)) == 0 for r in base)]
    assert all(pairing(g, lam) == 0 for g in span_zero)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["G2", "B4", "F4", "E6"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=12),
                min_size=rs_of(name).rank,
                max_size=rs_of(name).rank,
            ),
        )
    )
)
def test_to_dominant_on_rational_points(case):
    name, lam = case
    rs = rs_of(name)
    dom, word = to_dominant(rs, lam)
    assert all(isinstance(c, Fraction) and c >= 0 for c in dom)
    assert apply_word(rs, word, lam) == dom


def _smallest_index_reduction(rs, lam):
    """to_dominant's rule on Fractions: reflect at the first negative coordinate."""
    lam = [Fraction(c) for c in lam]
    word = []
    while True:
        i = next((k for k, v in enumerate(lam) if v < 0), None)
        if i is None:
            return tuple(lam), tuple(word)
        coef = lam[i]
        lam = [v - coef * c for v, c in zip(lam, rs.cartan[i])]
        word.append(i)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALL_TYPES).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(
                st.one_of(
                    st.integers(-6, 6),
                    st.fractions(min_value=-5, max_value=5, max_denominator=12),
                ),
                min_size=rs_of(name).rank,
                max_size=rs_of(name).rank,
            ),
        )
    )
)
def test_to_dominant_word_is_the_smallest_index_rule(case):
    name, lam = case
    rs = rs_of(name)
    dom, word = to_dominant(rs, lam)
    assert (dom, word) == _smallest_index_reduction(rs, lam)
    assert all(type(c) is Fraction for c in dom)


def test_to_dominant_rejects_inexact_or_misshapen_input():
    a2 = rs_of("A2")
    for bad in [(0.5, 1), (True, 1)]:
        with pytest.raises(InputError):
            to_dominant(a2, bad)
    with pytest.raises(InputError):
        to_dominant(a2, (1, 2, 3))
    with pytest.raises(InputError, match="dimension mismatch"):
        to_dominant(a2, (0.5, 1, 2))


@pytest.mark.parametrize("name", ["B2", "G2", "A3", "B3", "C3"])
def test_partition_orbits_agrees_with_brute_orbit(name):
    """Labels 0 leave all of W to the walk, so roots of one length split apart."""
    rs = rs_of(name)
    roots = sorted(all_roots(rs))
    bases = [((r, l),) for r in roots for l in (0, 1, 2)]
    bases += [
        ((r, 0), (s, 0))
        for k, r in enumerate(roots)
        for s in roots[k + 1:]
        if s != tuple(-c for c in r)
    ]
    pairs = [dominant_transport(rs, items) for items in bases]
    found = {frozenset(orbit) for orbit in partition_orbits(rs, pairs)}
    orbit_of = [brute_orbit(rs, tuple(sorted(items)), act_labeled_set) for items in bases]
    expected = {
        frozenset(k for k, other in enumerate(orbit_of) if other == orbit)
        for orbit in orbit_of
    }
    assert found == expected
    assert len(expected) > 3
    canon = [canonical_labeled_set(rs, items) for items in bases]
    assert {frozenset(k for k, c in enumerate(canon) if c == c0) for c0 in canon} == expected


def test_labeled_base_outside_the_roots_is_rejected():
    # (1, -1) has an integral "coroot" in A2, so only the root lookup catches it
    with pytest.raises(InputError):
        canonical_labeled_set(rs_of("A2"), [((1, -1), 2)])
    # a label that is not an int is rejected, not truncated or read as 0 or 1
    for label in (2.7, 2.0, True, Fraction(2), "x", None):
        with pytest.raises(InputError):
            canonical_labeled_set(rs_of("A2"), [((1, 0), label)])


def test_solve_rejects_inexact_targets():
    a2 = rs_of("A2")
    for target in (2.5, 2.0, True, "2"):
        with pytest.raises(InputError):
            solve_cochar_for_base(a2, [(1, 0)], [target])
        with pytest.raises(InputError):
            cochar_for_labeled_base(a2, [((1, 0), target)])
    lam = solve_cochar_for_base(a2, [(1, 0)], [Fraction(5, 2)])
    assert lam == (Fraction(5, 2), Fraction(-5, 4))
