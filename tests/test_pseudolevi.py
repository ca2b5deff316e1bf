"""Extended diagram, subsystem closure, enumeration, torsion, witnesses."""
import itertools
import sys
from fractions import Fraction

import pytest

from unipcent import (
    CartanType,
    InputError,
    alcove_reduce,
    build_root_system,
    build_triple_record,
    coroot,
    enumerate_pseudolevis,
    extended_diagram,
    is_good_prime,
    point_order,
    subsystem_closure,
    torsion_order,
    witness_element,
)
from unipcent.cli import EXIT_OK, main
from unipcent.conjugacy import partition_orbits, transport_start
from unipcent.oracle import (
    all_roots,
    canonical_subsystem,
    dominant_transport,
    lattice_root_closure,
    pairing,
    span_quotient_torsion,
    subsystem_base,
)
from unipcent.pseudolevi import (
    _labeled_records,
    _move_groups,
    _proper_subsets,
    base_components,
)
from unipcent.rootsys import canonical_labeled_set


def rs_of(name):
    return build_root_system(CartanType.parse(name))


def reflection_closure(rs, seeds):
    """Independent route: close the seed roots under their own reflections."""
    current = set(seeds)
    grew = True
    while grew:
        grew = False
        for g in list(current):
            for b in list(current):
                cb = coroot(rs, b)
                p = sum(x * y for x, y in zip(g, cb))
                image = tuple(gi - p * bi for gi, bi in zip(g, b))
                if image not in current:
                    current.add(image)
                    grew = True
    return frozenset(current)


def test_extended_diagram_basics():
    a1 = rs_of("A1")
    ext = extended_diagram(a1)
    assert len(ext.root_of) == 2
    assert ext.mark_of == (1, 1)
    assert ext.root_of[1] == (-1,)

    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    assert sorted(ext.mark_of) == [1, 2, 3]

    for name in ("A3", "B4", "E6"):
        rs = rs_of(name)
        ext = extended_diagram(rs)
        total = [0] * rs.rank
        for root, mark in zip(ext.root_of, ext.mark_of):
            total = [t + mark * c for t, c in zip(total, root)]
        assert not any(total)


def test_extended_a_n_is_a_cycle():
    for n in (2, 3, 5):
        rs = rs_of(f"A{n}")
        ext = extended_diagram(rs)
        nodes = list(ext.nodes)
        degree = {v: 0 for v in nodes}
        for a, b in itertools.combinations(nodes, 2):
            if pairing(ext.root_of[a], coroot(rs, ext.root_of[b])) != 0:
                degree[a] += 1
                degree[b] += 1
        assert all(d == 2 for d in degree.values())


def test_subsystem_closure_basics():
    a2 = rs_of("A2")
    ext = extended_diagram(a2)
    assert subsystem_closure(ext, ()) == frozenset()
    assert subsystem_closure(ext, (0, 1)) == all_roots(a2)
    assert subsystem_closure(ext, (0, 2)) == all_roots(a2)
    with pytest.raises(InputError):
        subsystem_closure(ext, (0, 1, 2))
    with pytest.raises(InputError):
        subsystem_closure(ext, (0, 5))


@pytest.mark.parametrize("node", [1.0, True, Fraction(1), "1"])
def test_node_ids_must_be_ints(node):
    # 1.0 == True == 1, so a set of nodes would read each of these as node 1.
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    calls = [
        lambda J: subsystem_closure(ext, J),
        lambda J: torsion_order(ext, J),
        lambda J: witness_element(g2, J, 0),
        lambda J: build_triple_record(g2, J, [(ext.root_of[1], 2)]),
    ]
    for call in calls:
        call([1])
        with pytest.raises(InputError, match="node ids must be integers"):
            call([node])
        with pytest.raises(InputError, match="node ids must be integers"):
            call([0, node])


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4"])
def test_span_closure_equals_reflection_closure(name):
    rs = rs_of(name)
    ext = extended_diagram(rs)
    for size in range(rs.rank + 1):
        for J in itertools.combinations(range(rs.rank + 1), size):
            seeds = [ext.root_of[j] for j in J]
            assert subsystem_closure(ext, J) == reflection_closure(rs, seeds)


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_orbit_closure_matches_lattice_closure():
    """The orbit closure equals the Hermite-normal-form closure on every proper subset."""
    checked = 0
    for name in ALL_TYPES:
        rs = rs_of(name)
        ext = extended_diagram(rs)
        for J in _proper_subsets(len(ext.root_of)):
            expect = lattice_root_closure(rs, [ext.root_of[j] for j in J])
            assert subsystem_closure(ext, J) == expect, (name, J)
            checked += 1
    assert len(ALL_TYPES) == 33 and checked == 4963


def test_subset_keys_match_the_fraction_transport():
    """The all-2 record's integer key and start are dominant_transport's on every proper subset."""
    checked = 0
    for name in ALL_TYPES:
        rs = rs_of(name)
        ext = extended_diagram(rs)
        for J in _proper_subsets(len(ext.root_of)):
            regular = tuple(sorted([(ext.root_of[j], 2) for j in J]))
            (rec,) = _labeled_records(rs, J, [regular])
            assert rec.J == J
            lam_dom = rec.induced
            v_dom, start = transport_start(rs, rec.labels, rec.word, lam_dom)
            base = [ext.root_of[j] for j in J]
            expect = dominant_transport(rs, [(r, 2) for r in base])
            assert (lam_dom, v_dom, start) == expect, (name, J)
            assert hash(lam_dom) == hash(expect[0])
            comps = base_components(rs, base)
            assert rec.factor_types == tuple(sorted(ct for ct, _ in comps))
            assert rec.order == torsion_order(ext, J)
            checked += 1
    assert checked == 4963


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_node_subset_is_base_of_its_closure(name):
    rs = rs_of(name)
    ext = extended_diagram(rs)
    for size in range(rs.rank + 1):
        for J in itertools.combinations(range(rs.rank + 1), size):
            sub = subsystem_closure(ext, J)
            jroots = sorted(ext.root_of[j] for j in J)
            comps_j = [t for t, _ in base_components(rs, tuple(jroots))]
            comps_base = [t for t, _ in base_components(rs, subsystem_base(rs, sub))]
            assert sorted(comps_j) == sorted(comps_base)
            assert len(sub) == 2 * sum(
                len(build_root_system(t).positive_roots) for t in comps_j
            )


def test_classify_factors_examples():
    def factor_types(rs, sub):
        return tuple(sorted(ct for ct, _ in base_components(rs, subsystem_base(rs, sub))))

    f4 = rs_of("F4")
    assert factor_types(f4, frozenset()) == ()
    assert factor_types(f4, all_roots(f4)) == (CartanType("F", 4),)
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    assert factor_types(g2, subsystem_closure(ext, (0, 2))) == (
        CartanType("A", 1),
        CartanType("A", 1),
    )
    assert factor_types(g2, subsystem_closure(ext, (1, 2))) == (CartanType("A", 2),)
    d4 = rs_of("D4")
    ext4 = extended_diagram(d4)
    assert factor_types(d4, subsystem_closure(ext4, (0, 2, 3, 4))) == (
        CartanType("A", 1),
    ) * 4


def test_torsion_order_examples():
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    assert torsion_order(ext, (0, 1)) == 1  # J = S, affine mark is 1
    assert torsion_order(ext, ()) == 1
    assert torsion_order(ext, (1, 2)) == 3  # removes the mark-3 node
    assert torsion_order(ext, (0, 2)) == 2
    with pytest.raises(InputError):
        torsion_order(ext, (0, 1, 2))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "C3"])
def test_torsion_constant_on_classes(name):
    rs = rs_of(name)
    ext = extended_diagram(rs)
    by_class = {}
    for size in range(rs.rank + 1):
        for J in itertools.combinations(range(rs.rank + 1), size):
            sub = subsystem_closure(ext, J)
            by_class.setdefault(canonical_subsystem(rs, sub), set()).add(
                torsion_order(ext, J)
            )
    for orders in by_class.values():
        assert len(orders) == 1


def test_enumerate_small_types():
    assert len(enumerate_pseudolevis(rs_of("A1"))) == 2
    a2 = enumerate_pseudolevis(rs_of("A2"))
    assert [pl.factor_types for pl in a2] == [
        (),
        (CartanType("A", 1),),
        (CartanType("A", 2),),
    ]
    g2 = enumerate_pseudolevis(rs_of("G2"))
    assert len(g2) == 6
    types = [pl.factor_types for pl in g2]
    assert types.count((CartanType("A", 1), CartanType("A", 1))) == 1
    assert types.count((CartanType("A", 2),)) == 1
    # Levi representatives preferred: the full system is represented by J = S.
    ext = extended_diagram(rs_of("G2"))
    full = [pl for pl in g2 if len(subsystem_closure(ext, pl.J)) == 12]
    assert full[0].J == (0, 1)


def test_e8_torsion_five_and_six_classes():
    e8 = rs_of("E8")
    pls = enumerate_pseudolevis(e8)
    a4a4 = [pl for pl in pls if pl.factor_types == (CartanType("A", 4),) * 2]
    assert len(a4a4) == 1 and a4a4[0].dJ == 5
    order6 = [pl for pl in pls if pl.dJ == 6]
    assert len(order6) == 1
    assert order6[0].factor_types == (
        CartanType("A", 1),
        CartanType("A", 2),
        CartanType("A", 5),
    )
    assert max(pl.dJ for pl in pls) == 6


def _count_closures(monkeypatch) -> list:
    """Patch subsystem_closure wherever a unipcent module binds it; the list
    collects the J of each call."""
    calls = []

    def counted(ext, J):
        calls.append(tuple(J))
        return subsystem_closure(ext, J)

    for name, module in list(sys.modules.items()):
        if name == "unipcent" or name.startswith("unipcent."):
            for attr, value in list(vars(module).items()):
                if value is subsystem_closure:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_only_the_rank_4_alcove_check_closes_root_sets(monkeypatch, capsys):
    calls = _count_closures(monkeypatch)
    enumerate_pseudolevis(rs_of("E8"))
    assert calls == []
    assert main(["component-groups", "E7", "--verify"]) == EXIT_OK
    assert calls == []
    f4 = enumerate_pseudolevis(rs_of("F4"))
    assert main(["component-groups", "F4", "--verify"]) == EXIT_OK
    assert sorted(calls) == sorted(pl.J for pl in f4)
    capsys.readouterr()


def test_representative_prefers_simple_nodes():
    for name in ("A3", "B3", "C3"):
        rs = rs_of(name)
        aff = rs.rank
        for pl in enumerate_pseudolevis(rs):
            if aff in pl.J:
                # no member of the class avoids the affine node
                ext = extended_diagram(rs)
                closure = subsystem_closure(ext, pl.J)
                canon = canonical_subsystem(rs, closure)
                for size in range(len(pl.J) + 1):
                    for K in itertools.combinations(range(rs.rank), size):
                        sub = subsystem_closure(ext, K)
                        if len(sub) != len(closure):
                            continue
                        assert canonical_subsystem(rs, sub) != canon


def test_witness_identity_case():
    a2 = rs_of("A2")
    vec = witness_element(a2, (0, 1), 0)
    assert vec == (Fraction(0), Fraction(0))
    _, walls = alcove_reduce(a2, vec)
    assert walls == frozenset((0, 1))


def test_witness_g2_order_three():
    g2 = rs_of("G2")
    vec = witness_element(g2, (1, 2), 5)  # removes the mark-3 node
    assert point_order(vec) == 3
    _, walls = alcove_reduce(g2, vec)
    assert walls == frozenset((1, 2))


def test_witness_f4_two_nodes_removed():
    f4 = rs_of("F4")
    J = (0, 1, 4)  # affine node kept, two simple nodes removed
    vec = witness_element(f4, J, 0)
    _, walls = alcove_reduce(f4, vec)
    assert walls == frozenset(J)
    order = point_order(vec)
    assert order > 1
    # the auxiliary prime divides the order (affine construction, >1 node removed)
    assert any(order % ell == 0 for ell in (2, 3, 5, 7, 11, 13))


def test_witness_rejects_bad_characteristic():
    g2 = rs_of("G2")
    with pytest.raises(InputError):
        witness_element(g2, (0, 1), 3)


def test_witness_unrealizable_wall_set():
    # J holds the affine node and leaves out a single simple node, of mark 1:
    # the only point on those walls is a lattice point, whose walls are S
    from unipcent import WitnessSearchExhausted

    a2 = rs_of("A2")
    with pytest.raises(WitnessSearchExhausted) as info:
        witness_element(a2, (1, 2), 0)
    assert "no point of A2 has alcove walls exactly J=(1, 2)" in str(info.value)


@pytest.mark.parametrize("name", ["G2", "F4", "A4", "B3", "C3", "D4", "E6"])
@pytest.mark.parametrize("p", [0, 7])
def test_witness_realizes_every_wall_set_but_the_mark_one_ones(name, p):
    from unipcent import WitnessSearchExhausted

    rs = rs_of(name)
    aff = rs.rank
    for J in _proper_subsets(rs.rank + 1):
        removed = [i for i in range(rs.rank) if i not in J]
        if aff in J and len(removed) == 1 and rs.marks[removed[0]] == 1:
            with pytest.raises(WitnessSearchExhausted):
                witness_element(rs, J, p)
            continue
        vec = witness_element(rs, J, p)
        _, walls = alcove_reduce(rs, vec)
        assert walls == frozenset(J)
        if p:
            assert point_order(vec) % p != 0


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "D4"])
@pytest.mark.parametrize("p", [0, 7])
def test_witness_round_trip_all_classes(name, p):
    rs = rs_of(name)
    for pl in enumerate_pseudolevis(rs):
        vec = witness_element(rs, pl.J, p)
        _, walls = alcove_reduce(rs, vec)
        assert walls == frozenset(pl.J)
        if p:
            assert point_order(vec) % p != 0


ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_good_inheritance_exhaustive(name):
    """A prime good for G is good for every factor of every pseudo-Levi."""
    rs = rs_of(name)
    for pl in enumerate_pseudolevis(rs):
        for p in (0, 2, 3, 5, 7):
            if is_good_prime(rs, p):
                for ct in pl.factor_types:
                    assert is_good_prime(build_root_system(ct), p), (pl.J, ct, p)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3", "D4", "F4"])
def test_center_torsion_matches_lattice_quotient(name):
    """d_J equals the torsion of the span quotient, which is cyclic, and every
    residue class is hit by a root."""
    rs = rs_of(name)
    ext = extended_diagram(rs)
    for size in range(rs.rank + 1):
        for J in itertools.combinations(range(rs.rank + 1), size):
            d = torsion_order(ext, J)
            vectors = [ext.root_of[j] for j in J]
            torsion, U = span_quotient_torsion(vectors, rs.rank)
            total = 1
            for _, f in torsion:
                total *= f
            assert total == d
            from math import gcd

            for (_, f1), (_, f2) in itertools.combinations(torsion, 2):
                assert gcd(f1, f2) == 1  # cyclic quotient
            if d > 1:
                seen = set()
                for g in all_roots(rs):
                    coords = tuple(
                        sum(U[i][k] * g[k] for k in range(rs.rank)) % f
                        for i, f in torsion
                    )
                    seen.add(coords)
                assert len(seen) == d


def test_lattice_closure_is_weyl_stable():
    from unipcent.oracle import reflect_root

    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    for J in [(0,), (0, 2), (1, 2)]:
        seeds = [ext.root_of[j] for j in J]
        closed = lattice_root_closure(g2, seeds)
        for word in [(0,), (1,), (0, 1), (1, 0, 1)]:
            moved = seeds
            for i in word:
                moved = [reflect_root(g2, i, g) for g in moved]
            image = lattice_root_closure(g2, moved)
            expect = closed
            for i in word:
                expect = frozenset(reflect_root(g2, i, g) for g in expect)
            assert image == expect


@pytest.mark.parametrize("name", ["F4", "E6", "E7"])
def test_orbit_partition_agrees_with_canonical_forms(name):
    """The canonical forms alone group the subsets as the orbit walks do."""
    rs = rs_of(name)
    ext = extended_diagram(rs)
    records = [
        rec
        for J in _proper_subsets(len(ext.root_of))
        for rec in _labeled_records(rs, J, [tuple(sorted([(ext.root_of[j], 2) for j in J]))])
    ]
    by_canon = {}
    for rec in records:
        canon = canonical_labeled_set(rs, [(ext.root_of[j], 2) for j in rec.J])
        by_canon.setdefault(canon, set()).add(rec.J)
    pairs = [(r.induced, *transport_start(rs, r.labels, r.word, r.induced)) for r in records]
    orbits = partition_orbits(rs, pairs)
    by_walk = {frozenset(records[k].J for k in orbit) for orbit in orbits}
    classes = {frozenset(v) for v in by_canon.values()}
    assert by_walk == classes
    reps = [pl.J for pl in enumerate_pseudolevis(rs)]
    assert sorted(sum(J in cls for J in reps) for cls in classes) == [1] * len(classes)


@pytest.mark.parametrize("name", ["G2", "F4", "A5", "B4", "C4", "D5", "D6", "E6", "E7"])
def test_move_groups_lie_in_one_canonical_class(name):
    """Each group of elementary moves lies in one Weyl class of all-2 bases."""
    rs = rs_of(name)
    ext = extended_diagram(rs)
    groups = _move_groups(ext)
    subsets = sorted(J for group in groups for J in group)
    assert subsets == sorted(_proper_subsets(len(ext.root_of)))
    for group in groups:
        canons = {
            canonical_labeled_set(rs, [(ext.root_of[j], 2) for j in J]) for J in group
        }
        assert len(canons) == 1, (name, group)


def test_move_group_counts():
    """Moves alone give E8's 67 classes; elsewhere partition_orbits merges more."""
    counts = {}
    for name in ["E8", "E7", "B8", "C8", "D8", "A8"]:
        rs = rs_of(name)
        counts[name] = (len(_move_groups(rs.extended_diagram)), len(enumerate_pseudolevis(rs)))
    assert counts == {
        "E8": (67, 67),
        "E7": (59, 44),
        "B8": (154, 142),
        "C8": (187, 114),
        "D8": (137, 74),
        "A8": (42, 30),
    }
