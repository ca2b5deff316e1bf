"""Ground-truth generators: alcove points, partitions, brute orbits."""
from fractions import Fraction

import pytest

from unipcent import (
    CartanType,
    InputError,
    build_root_system,
    canonical_subsystem,
    enumerate_pseudolevis,
    extended_diagram,
    subsystem_closure,
)
from unipcent.oracle import (
    Partition,
    _alcove_grid,
    _integral_masks,
    _mask_roots,
    _packing,
    alcove_pseudolevis,
    alcove_pseudolevis_by_denominator,
    brute_orbit,
    classical_group_name,
    classical_nilpotent_classes,
    classical_partitions,
    default_denominator_bound,
    distinguished_partitions,
    integrality_subsystem,
    reflect_cochar,
)
from unipcent.compgroup import component_group_report


def rs_of(name):
    return build_root_system(CartanType.parse(name))


def test_partition_validation():
    with pytest.raises(InputError):
        Partition((1, 2))
    with pytest.raises(InputError):
        Partition((2, 0))
    assert Partition((3, 1, 1)).total == 5
    assert hash(Partition((3, 1, 1))) == hash(((3, 1, 1),))
    with pytest.raises(AttributeError):
        Partition((3, 1, 1)).parts = (5,)
    with pytest.raises(InputError):
        Partition((3, 1, 1))._replace(parts=(1, 3))


def test_classical_partition_counts():
    assert len(classical_partitions("A", 1)) == 2
    assert len(classical_partitions("A", 2)) == 3
    assert len(classical_partitions("C", 2)) == 4
    assert len(classical_partitions("B", 2)) == 4
    parts = {p.parts for p in classical_partitions("B", 2)}
    assert parts == {(5,), (3, 1, 1), (2, 2, 1), (1, 1, 1, 1, 1)}


@pytest.mark.parametrize("family,rank", [("F", 4), ("E", 6)])
def test_classical_partitions_reject_an_exceptional_family(family, rank):
    with pytest.raises(InputError, match="no partition classification"):
        classical_partitions(family, rank)


def test_diagram_recipe_small():
    a1 = dict((p.parts, d) for p, d in classical_nilpotent_classes("A", 1))
    assert a1 == {(2,): (2,), (1, 1): (0,)}
    b2 = dict((p.parts, d) for p, d in classical_nilpotent_classes("B", 2))
    assert b2[(5,)] == (2, 2)
    assert b2[(3, 1, 1)] == (2, 0)
    assert b2[(2, 2, 1)] == (0, 1)
    assert b2[(1, 1, 1, 1, 1)] == (0, 0)
    # A2: three partitions, three distinct diagrams
    a2 = classical_nilpotent_classes("A", 2)
    assert len(a2) == 3 and len({d for _, d in a2}) == 3
    # D3 = A3 with the path's middle node as node 0: the D recipe needs no remap
    d3 = sorted(d for _, d in classical_nilpotent_classes("D", 3))
    a3 = sorted((d[1], d[0], d[2]) for _, d in classical_nilpotent_classes("A", 3))
    assert d3 == a3 and len(d3) == 5


def test_very_even_partitions_split():
    entries = classical_nilpotent_classes("D", 4)
    assert len(entries) == 12
    diagrams = [d for _, d in entries]
    assert len(set(diagrams)) == 12
    by_parts = {}
    for p, d in entries:
        by_parts.setdefault(p.parts, []).append(d)
    assert len(by_parts[(4, 4)]) == 2
    assert len(by_parts[(2, 2, 2, 2)]) == 2
    a, b = by_parts[(4, 4)]
    assert a[:2] == b[:2] and a[2:] == b[2:][::-1]
    assert len(by_parts[(5, 3)]) == 1


def test_distinguished_partitions():
    assert {p.parts for p in distinguished_partitions("B", 4)} == {(9,), (5, 3, 1)}
    assert {p.parts for p in distinguished_partitions("C", 3)} == {(6,), (4, 2)}
    assert {p.parts for p in distinguished_partitions("D", 4)} == {(7, 1), (5, 3)}


def test_alcove_points_a1():
    a1 = rs_of("A1")
    classes = alcove_pseudolevis(a1, 2)
    assert len(classes) == 2  # torus and the full system


@pytest.mark.parametrize(
    "name",
    ["A2", "B2", "G2", "A3", "C3", "B3", "D4", "F4",
     "A5", "B5", "C5", "D5", "B6", "C6", "D6", "E6", "E7", "E8"],
)
def test_alcove_oracle_matches_subset_enumeration(name):
    rs = rs_of(name)
    bound = default_denominator_bound(rs)
    point_side = alcove_pseudolevis(rs, bound)
    subset_side = {
        canonical_subsystem(rs, subsystem_closure(rs.extended_diagram, pl.J))
        for pl in enumerate_pseudolevis(rs)
    }
    assert point_side == subset_side
    assert len(point_side) == len(enumerate_pseudolevis(rs))


def test_alcove_oracle_monotone_and_stable():
    g2 = rs_of("G2")
    bound = default_denominator_bound(g2)
    sizes = [len(alcove_pseudolevis(g2, q)) for q in range(1, bound + 2)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[bound - 1] == sizes[bound]  # stabilized at the bound


@pytest.mark.parametrize("name", ["G2", "B3"])
def test_alcove_levels_add_up_to_the_bounded_oracle(name):
    rs = rs_of(name)
    bound = default_denominator_bound(rs)
    levels = alcove_pseudolevis_by_denominator(rs, bound + 1)
    assert len(levels) == bound + 1
    for q in (1, 2, bound, bound + 1):
        assert frozenset().union(*levels[:q]) == alcove_pseudolevis(rs, q)
    assert levels[bound] <= frozenset().union(*levels[:bound])  # stabilized


def test_oracle_rejects_a_denominator_bound_below_one():
    g2 = rs_of("G2")
    with pytest.raises(InputError):
        alcove_pseudolevis(g2, 0)
    with pytest.raises(InputError):
        alcove_pseudolevis_by_denominator(g2, -3)


def _packed_sets(rs, max_denominator, q):
    """(c, packed integrality set) for each grid vector c of denominator q."""
    pk = _packing(rs, max_denominator)
    masks = _integral_masks(rs, pk, q)
    points = zip(_alcove_grid(rs, q), masks, strict=True)
    return [(c, _mask_roots(rs, pk, m)) for c, m in points]


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4", "F4"])
def test_packed_integrality_sets_match_the_root_by_root_reference(name):
    rs = rs_of(name)
    bound = default_denominator_bound(rs)
    for q in range(1, bound + 1):
        for c, packed in _packed_sets(rs, bound, q):
            point = tuple(Fraction(v, q) for v in c)
            assert packed == integrality_subsystem(rs, point), (q, c)


def test_packed_field_width_follows_the_denominator_bound():
    """Pairings of 200 need 8 bits and a guard bit: a 7-bit field would carry."""
    g2 = rs_of("G2")
    q = 200
    for c, packed in _packed_sets(g2, q, q):
        point = tuple(Fraction(v, q) for v in c)
        assert packed == integrality_subsystem(g2, point), c


def _walls(rs, c, q):
    """The walls of the alcove point c / q, normalized as alcove_reduce does."""
    n = rs.rank
    if all(v % q == 0 for v in c):
        return tuple(range(n))  # a lattice point: its subsystem is all of R
    walls = tuple(i for i, v in enumerate(c) if v == 0)
    if sum(m * v for m, v in zip(rs.marks, c)) == q:
        walls += (n,)
    return walls


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4", "F4", "E6", "E7"])
def test_packed_integrality_sets_are_the_closures_of_their_walls(name):
    """Each point's integral roots are R_J for its wall set J, closed as an orbit."""
    rs = rs_of(name)
    ext = extended_diagram(rs)
    bound = default_denominator_bound(rs)
    pk = _packing(rs, bound)
    pairs = set()
    for q in range(1, bound + 1):
        masks = _integral_masks(rs, pk, q)
        points = zip(_alcove_grid(rs, q), masks, strict=True)
        pairs.update((_walls(rs, c, q), m) for c, m in points)
    closure = {}
    for walls, mask in pairs:
        if walls not in closure:
            closure[walls] = subsystem_closure(ext, walls)
        assert _mask_roots(rs, pk, mask) == closure[walls], walls
    # Every proper wall set occurs, but those of a lattice vertex (all nodes
    # but one of mark 1) are normalized to the simple nodes.
    lattice_vertices = sum(1 for m in rs.marks if m == 1)
    assert len(closure) == 2 ** (rs.rank + 1) - 1 - lattice_vertices


def test_integrality_subsystem_direct():
    g2 = rs_of("G2")
    full = integrality_subsystem(g2, (Fraction(0), Fraction(0)))
    assert len(full) == 12
    generic = integrality_subsystem(g2, (Fraction(1, 7), Fraction(1, 7)))
    assert generic == frozenset()


def test_brute_orbit_sizes():
    a1 = rs_of("A1")
    assert len(brute_orbit(a1, (Fraction(1),), reflect_cochar)) == 2
    assert len(brute_orbit(a1, (Fraction(0),), reflect_cochar)) == 1
    a2 = rs_of("A2")
    assert len(brute_orbit(a2, (Fraction(1), Fraction(1)), reflect_cochar)) == 6
    assert len(brute_orbit(a2, (Fraction(0), Fraction(0)), reflect_cochar)) == 1


def test_classical_group_name_formula():
    cases = [
        ("A", (3, 2, 1), "trivial"),
        ("B", (5, 3, 1), "ElemAb2(2)"),
        ("B", (3, 3, 1), "ElemAb2(1)"),
        ("B", (3, 3, 3), "trivial"),
        ("C", (4, 2), "ElemAb2(1)"),  # b = 2, less 1: an even part of odd multiplicity
        ("C", (2, 2), "ElemAb2(1)"),
        ("D", (5, 3), "trivial"),  # a = 2, less 2: odd parts of odd multiplicity
        ("D", (3, 3, 1, 1), "ElemAb2(1)"),
    ]
    for family, parts, name in cases:
        assert classical_group_name(family, Partition(parts)) == name, (family, parts)
    with pytest.raises(InputError):
        classical_group_name("F", Partition((2, 2)))


CLASSICAL_TYPES = [
    f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(low, 9)
]


@pytest.mark.parametrize("name", CLASSICAL_TYPES + ["B10", "C10", "D10"])
def test_classical_group_names_match_the_report(name):
    """Each classical row's A(u) is the group its partition's formula names."""
    ct = CartanType.parse(name)
    reports = component_group_report(build_root_system(ct))
    by_formula = {
        d: classical_group_name(ct.family, part)
        for part, d in classical_nilpotent_classes(ct.family, ct.rank)
    }
    assert {d: rep.group_name for d, rep in reports.items()} == by_formula
