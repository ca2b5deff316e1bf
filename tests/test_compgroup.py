"""Record enumeration, pair conjugacy, grouping, and group recognition."""
import itertools
from math import gcd

import pytest

from unipcent import (
    BudgetExceeded,
    CartanType,
    FingerprintError,
    InputError,
    build_root_system,
    build_triple_record,
    canonical_labeled_set,
    component_group_report,
    count_pair_orbits,
    enumerate_triples,
    extended_diagram,
    pairs_conjugate,
    recognize_group,
    recognize_group_from_torsion,
)
from unipcent.oracle import act_labeled_set, brute_orbit, classical_nilpotent_classes


def rs_of(name):
    return build_root_system(CartanType.parse(name))


def sym_class_orders(n):
    """Brute force: conjugacy classes of S_n with element orders, via cycle types."""
    classes = {}
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycle_type = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            cycle_type.append(length)
        key = tuple(sorted(cycle_type))
        order = 1
        for c in key:
            order = order * c // gcd(order, c)
        classes[key] = order
    return tuple(sorted(classes.values()))


def test_symmetric_group_fingerprints_against_brute_force():
    assert sym_class_orders(3) == (1, 2, 3)
    assert sym_class_orders(4) == (1, 2, 2, 3, 4)
    assert sym_class_orders(5) == (1, 2, 2, 3, 4, 5, 6)


def test_recognize_group_table():
    assert recognize_group((1,)) == "trivial"
    assert recognize_group((1, 2)) == "ElemAb2(1)"
    assert recognize_group((1, 2, 2, 2)) == "ElemAb2(2)"
    assert recognize_group((2, 1, 3)) == "Sym(3)"
    assert recognize_group((1, 2, 2, 3, 4)) == "Sym(4)"
    assert recognize_group((1, 2, 2, 3, 4, 5, 6)) == "Sym(5)"
    assert recognize_group((1, 3, 3)) == "Cyc(3)"
    assert recognize_group((1, 2, 3, 3, 6, 6)) == "Cyc(6)"


def test_recognize_group_rejects():
    with pytest.raises(InputError):
        recognize_group(())
    with pytest.raises(InputError):
        recognize_group((2, 2))
    with pytest.raises(InputError):
        recognize_group((1, 1, 2))
    with pytest.raises(FingerprintError):
        recognize_group((1, 5))
    with pytest.raises(FingerprintError):
        recognize_group((1, 4))


def test_candidate_fingerprints_pairwise_distinct():
    from unipcent.compgroup import _cyclic_fingerprint

    fps = {
        "trivial": (1,),
        "Sym(3)": (1, 2, 3),
        "Sym(4)": (1, 2, 2, 3, 4),
        "Sym(5)": (1, 2, 2, 3, 4, 5, 6),
    }
    for d in (3, 4, 5, 6):
        fps[f"Cyc({d})"] = _cyclic_fingerprint(d)
    for k in (1, 2, 3):
        fps[f"ElemAb2({k})"] = (1,) + (2,) * (2**k - 1)
    values = list(fps.values())
    assert len(set(values)) == len(values)


def test_recognize_from_torsion():
    assert recognize_group_from_torsion((1,)) == ("trivial", (1,))
    assert recognize_group_from_torsion((1, 2)) == ("ElemAb2(1)", (1, 2))
    # a coset of order four whose image has order two: forced by class count
    assert recognize_group_from_torsion((1, 4)) == ("ElemAb2(1)", (1, 2))
    assert recognize_group_from_torsion((1, 2, 3)) == ("Sym(3)", (1, 2, 3))
    assert recognize_group_from_torsion((4, 2, 3, 2, 1)) == ("Sym(4)", (1, 2, 2, 3, 4))
    assert recognize_group_from_torsion((1, 2, 2, 3, 4, 5, 6)) == (
        "Sym(5)",
        (1, 2, 2, 3, 4, 5, 6),
    )
    assert recognize_group_from_torsion((1, 2, 2, 2)) == ("ElemAb2(2)", (1, 2, 2, 2))
    # cyclic groups of order >= 3 have irrational generator classes, so they
    # can never carry coset data (the normalizer fuses coprime powers)
    with pytest.raises(FingerprintError):
        recognize_group_from_torsion((1, 3, 3))
    with pytest.raises(FingerprintError):
        recognize_group_from_torsion((1, 2, 4))


def test_a1_records_and_reports():
    a1 = rs_of("A1")
    recs = enumerate_triples(a1)
    assert len(recs) == 2
    assert all(r.order == 1 for r in recs)
    reports = component_group_report(a1)
    assert len(reports) == 2
    assert all(rep.group_name == "trivial" for rep in reports.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_a_n_records_match_partition_count(n):
    from unipcent.oracle import classical_partitions

    classes = len(classical_partitions("A", n, rank_bound=8))
    rs = rs_of(f"A{n}")
    recs = enumerate_triples(rs)
    assert len(recs) == classes
    assert all(r.order == 1 for r in recs)
    assert len({r.induced for r in recs}) == classes


def test_g2_golden():
    g2 = rs_of("G2")
    recs = enumerate_triples(g2)
    assert len(recs) == 7
    reports = component_group_report(g2)
    assert len(reports) == 5
    sub = reports[(0, 2)]
    assert sub.group_name == "Sym(3)"
    assert sub.orders == (1, 2, 3)
    assembled = {
        (tuple(str(t) for t in rec.factor_types), rec.order) for rec in sub.classes
    }
    assert assembled == {(("G2",), 1), (("A1", "A1"), 2), (("A2",), 3)}
    assert sum(1 for rep in reports.values() if rep.group_name == "Sym(3)") == 1


def test_b2_reports():
    b2 = rs_of("B2")
    reports = component_group_report(b2)
    assert len(reports) == 4
    for rep in reports.values():
        assert set(rep.orders) <= {1, 2}
        assert rep.group_name in ("trivial", "ElemAb2(1)")
    nontrivial = [rep for rep in reports.values() if rep.group_name != "trivial"]
    assert len(nontrivial) == 1
    # the order-two class sits on the subregular diagram, partition (3,1,1)
    oracle = dict()
    for part, diag in classical_nilpotent_classes("B", 2):
        oracle[part.parts] = diag
    assert nontrivial[0].diagram == oracle[(3, 1, 1)]


def test_pairs_conjugate_reflexive_and_full_a2():
    a2 = rs_of("A2")
    ext = extended_diagram(a2)
    # single-node removals both give the full system with regular labels
    recs = []
    for J in [(0, 1), (0, 2), (1, 2)]:
        labels = tuple((ext.root_of[j], 2) for j in J)
        recs.append(build_triple_record(a2, J, labels))
    assert pairs_conjugate(a2, recs[0], recs[0])
    assert pairs_conjugate(a2, recs[0], recs[1])
    assert pairs_conjugate(a2, recs[1], recs[2])


def test_pairs_conjugate_g2_distinct_factors_same_diagram():
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    long_a2 = build_triple_record(
        g2, (1, 2), tuple((ext.root_of[j], 2) for j in (1, 2))
    )
    a1a1 = build_triple_record(
        g2, (0, 2), tuple((ext.root_of[j], 2) for j in (0, 2))
    )
    assert long_a2.induced == a1a1.induced
    assert not pairs_conjugate(g2, long_a2, a1a1)
    assert not pairs_conjugate(g2, a1a1, long_a2)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"])
def test_pairs_conjugate_agrees_with_brute_orbit(name):
    rs = rs_of(name)
    recs = enumerate_triples(rs)
    orbits = {rec.labels: brute_orbit(rs, rec.labels, act_labeled_set) for rec in recs}
    for t1, t2 in itertools.combinations_with_replacement(recs, 2):
        expected = t2.labels in orbits[t1.labels]
        assert pairs_conjugate(rs, t1, t2) == expected
        assert pairs_conjugate(rs, t2, t1) == expected


def test_count_pair_orbits_matches_enumeration():
    for name in ("A2", "B2", "G2", "B3", "C3"):
        rs = rs_of(name)
        assert count_pair_orbits(rs) == len(enumerate_triples(rs))


def test_exactly_one_identity_class_per_report():
    for name in ("A3", "B3", "C3", "G2", "F4"):
        reports = component_group_report(rs_of(name))
        for rep in reports.values():
            assert rep.torsion_orders.count(1) == 1
            assert rep.orders.count(1) == 1


def test_exceptional_report_census():
    # class counts and group distributions, frozen after derivation
    expected = {
        "G2": (5, {"trivial": 4, "Sym(3)": 1}),
        "F4": (16, {"trivial": 9, "ElemAb2(1)": 6, "Sym(4)": 1}),
        "E6": (21, {"trivial": 18, "ElemAb2(1)": 2, "Sym(3)": 1}),
        "E7": (45, {"trivial": 32, "ElemAb2(1)": 11, "Sym(3)": 2}),
        "E8": (70, {"trivial": 38, "ElemAb2(1)": 25, "Sym(3)": 6, "Sym(5)": 1}),
    }
    for name, (count, census) in expected.items():
        reports = component_group_report(rs_of(name))
        assert len(reports) == count, name
        got = {}
        for rep in reports.values():
            got[rep.group_name] = got.get(rep.group_name, 0) + 1
        assert got == census, name


def test_order_drop_census():
    # cosets of order four mapping to involutions: three in E8, one in E7,
    # nowhere else at rank <= 8
    drops = {}
    for name in ("A8", "B8", "C8", "D8", "E6", "E7", "E8", "F4", "G2"):
        reports = component_group_report(rs_of(name))
        drops[name] = sum(
            1 for rep in reports.values() if rep.torsion_orders != rep.orders
        )
        for rep in reports.values():
            if rep.torsion_orders != rep.orders:
                assert rep.torsion_orders == (1, 4)
                assert rep.orders == (1, 2)
                assert rep.group_name == "ElemAb2(1)"
    assert drops == {
        "A8": 0, "B8": 0, "C8": 0, "D8": 0,
        "E6": 0, "E7": 1, "E8": 3, "F4": 0, "G2": 0,
    }


def test_characteristic_independence_and_gating():
    for name in ("A3", "G2"):
        rs = rs_of(name)
        reference = component_group_report(rs, p=0)
        for p in (7, 11):
            assert component_group_report(rs, p=p) == reference
    with pytest.raises(InputError):
        component_group_report(rs_of("G2"), p=3)
    with pytest.raises(InputError):
        component_group_report(rs_of("G2"), p=4)


def test_budget_exhaustion_is_loud():
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    items = tuple((ext.root_of[j], 2) for j in (0, 2))
    with pytest.raises(BudgetExceeded):
        canonical_labeled_set(g2, items, budget=1)
