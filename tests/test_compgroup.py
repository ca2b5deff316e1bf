"""Record enumeration, pair conjugacy, grouping, and group recognition."""
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from unipcent import (
    BudgetExceeded,
    CartanType,
    FingerprintError,
    InputError,
    InvariantViolation,
    affine_node,
    build_root_system,
    build_triple_record,
    canonical_labeled_set,
    cochar_for_labeled_base,
    component_group_report,
    coroot,
    count_pair_orbits,
    distinguished_classes,
    enumerate_triples,
    extended_diagram,
    induced_diagram,
    recognize_group_from_torsion,
)
from unipcent.compgroup import _candidate
from unipcent.oracle import act_labeled_set, brute_orbit, classical_nilpotent_classes
from unipcent.pseudolevi import _labeled_records, _pair_orbits, _proper_subsets
from unipcent.rootsys import (
    DEFAULT_BUDGET,
    coroot_coefficients,
    coroot_combination,
    dominant_transport,
    transport_start,
)


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
    def name(torsions):
        return recognize_group_from_torsion(torsions)[0]

    assert name((1,)) == "trivial"
    assert name((1, 2)) == "ElemAb2(1)"
    assert name((1, 2, 2, 2)) == "ElemAb2(2)"
    assert name((2, 1, 3)) == "Sym(3)"
    assert name((1, 2, 2, 3, 4)) == "Sym(4)"
    assert name((1, 2, 2, 3, 4, 5, 6)) == "Sym(5)"
    # the class orders of Cyc(3) and Cyc(6) are no coset data: the normalizer
    # fuses the coprime powers of a generator
    for torsions in ((1, 3, 3), (1, 2, 3, 3, 6, 6)):
        with pytest.raises(FingerprintError):
            recognize_group_from_torsion(torsions)


def test_recognize_group_rejects():
    # no cosets, no trivial coset, or two of them
    for torsions in ((), (2, 2), (1, 1, 2)):
        with pytest.raises(InputError):
            recognize_group_from_torsion(torsions)
    # a coset order below 1: 0 and -2 divide by every order, -3 by 3
    for torsions in ((1, 0), (1, -2), (1, 2, -3)):
        with pytest.raises(InputError):
            recognize_group_from_torsion(torsions)
    # an order that is not an int is rejected, not truncated or parsed
    not_ints = ((1, 2.7), (1, 2.0), (True, "2"), (1, "2"), (True, 2), (1, Fraction(2)))
    for torsions in not_ints:
        with pytest.raises(InputError):
            recognize_group_from_torsion(torsions)
    # no two-class candidate has a class whose order divides 5
    with pytest.raises(FingerprintError):
        recognize_group_from_torsion((1, 5))


def test_candidate_fingerprints_pairwise_distinct():
    """The class count names at most one candidate, so recognition tries one."""
    expected = {
        1: "trivial",
        2: "ElemAb2(1)",
        3: "Sym(3)",
        4: "ElemAb2(2)",
        5: "Sym(4)",
        6: None,
        7: "Sym(5)",
        8: "ElemAb2(3)",
    }
    for n, name in expected.items():
        candidate = _candidate(n)
        if name is None:
            assert candidate is None, n
        else:
            assert candidate[0] == name and len(candidate[1]) == n, n
            assert list(candidate[1]) == sorted(candidate[1]), n


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

    classes = len(classical_partitions("A", n))
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
    canons = [canonical_labeled_set(a2, rec.labels) for rec in recs]
    assert canons[0] == canonical_labeled_set(a2, tuple(reversed(recs[0].labels)))
    assert canons[0] == canons[1] == canons[2]


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
    assert canonical_labeled_set(g2, long_a2.labels) != canonical_labeled_set(g2, a1a1.labels)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"])
def test_pairs_conjugate_agrees_with_brute_orbit(name):
    rs = rs_of(name)
    recs = enumerate_triples(rs)
    orbits = {rec.labels: brute_orbit(rs, rec.labels, act_labeled_set) for rec in recs}
    canons = {rec.labels: canonical_labeled_set(rs, rec.labels) for rec in recs}
    for t1, t2 in itertools.combinations_with_replacement(recs, 2):
        expected = t2.labels in orbits[t1.labels]
        assert (canons[t1.labels] == canons[t2.labels]) == expected
        assert (t1.labels in orbits[t2.labels]) == expected
    for rec in recs:  # another member of the orbit has the same canonical form
        assert canonical_labeled_set(rs, max(orbits[rec.labels])) == canons[rec.labels]


def test_count_pair_orbits_matches_enumeration():
    for name in ("A2", "B2", "G2", "B3", "C3"):
        rs = rs_of(name)
        assert count_pair_orbits(rs) == len(enumerate_triples(rs))


def test_record_orbits_agree_with_canonical_forms():
    """E6: every labeled record, grouped by its canonical form alone."""
    rs = rs_of("E6")
    ext = extended_diagram(rs)
    records = [
        rec
        for J in _proper_subsets(len(ext.root_of))
        for rec in _labeled_records(rs, J)
    ]
    classes = {}
    for rec in records:
        classes.setdefault(canonical_labeled_set(rs, rec.labels), []).append(rec)
    kept = _pair_orbits(rs, _proper_subsets(len(ext.root_of)), DEFAULT_BUDGET)
    aff = affine_node(rs)
    preferred = [
        min(cls, key=lambda r: (aff in r.J, r.J, r.labels)) for cls in classes.values()
    ]
    expected = {(r.labels, r.J) for r in preferred}
    assert len(kept) == len(classes)
    assert {(r.labels, r.J) for r in kept} == expected


ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def fraction_coefficients(C, labels):
    """c with sum_a c[a] * C[a][b] = labels[b], by Gauss-Jordan over Fractions."""
    k = len(C)
    A = [[Fraction(C[a][b]) for a in range(k)] + [Fraction(labels[b])] for b in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        A[col] = [v / A[col][col] for v in A[col]]
        for r in range(k):
            if r != col and A[r][col]:
                A[r] = [v - A[r][col] * w for v, w in zip(A[r], A[col])]
    return tuple(row[k] for row in A)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_coefficient_table_matches_the_fraction_solve(name):
    """Every distinguished labeling's coroot coefficients, the all-2 row among them."""
    rs = rs_of(name)
    ct, C = rs.ctype, rs.cartan
    regular = (2,) * ct.rank
    assert regular in distinguished_classes(ct)
    for labels in distinguished_classes(ct):
        assert coroot_coefficients(ct, labels) == fraction_coefficients(C, labels)
    # The all-2 row is 2 rho^vee: the sum of the positive coroots.  Row a of
    # the Cartan matrix is the coweight coordinates of alpha_a^vee; the
    # extended diagram's coroot_rows hold it sparse.
    rows = extended_diagram(rs).coroot_rows
    two_rho = coroot_combination(ct.rank, zip(coroot_coefficients(ct, regular), rows))
    assert two_rho == [sum(col) for col in zip(*(coroot(rs, g) for g in rs.positive_roots))]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_coefficients_of_any_labels_match_the_fraction_solve(name):
    """build_triple_record passes arbitrary labels, not only distinguished ones."""
    rs = rs_of(name)
    ct, C = rs.ctype, rs.cartan
    rng = random.Random(f"coroot-coefficients-{name}")
    for _ in range(40):
        labels = tuple(rng.choice((0, 1, 2)) for _ in range(ct.rank))
        expected = fraction_coefficients(C, labels)
        if all(c.denominator == 1 for c in expected):
            assert coroot_coefficients(ct, labels) == expected
        else:
            with pytest.raises(InvariantViolation):
                coroot_coefficients(ct, labels)


def test_coefficients_outside_the_coroot_lattice_are_an_invariant_violation():
    with pytest.raises(InvariantViolation):  # half the coroot of A1
        coroot_coefficients(CartanType("A", 1), (1,))
    with pytest.raises(InvariantViolation):  # rho^vee of A3
        coroot_coefficients(CartanType("A", 3), (1, 1, 1))


def test_record_cocharacters_match_the_fraction_solve():
    for name in ALL_TYPES:
        rs = rs_of(name)
        for rec in enumerate_triples(rs):
            assert rec.lam == cochar_for_labeled_base(rs, rec.labels), (name, rec)


@pytest.mark.parametrize("name", ["G2", "B4", "F4", "E6", "E7"])
def test_one_solve_records_match_the_two_solve_path(name):
    """Each record's stored reduction gives what solving its labels again gives."""
    rs = rs_of(name)
    ext = extended_diagram(rs)
    count = 0
    for J in _proper_subsets(len(ext.root_of)):
        for rec in _labeled_records(rs, J):
            pair = (rec.induced, transport_start(rs, rec.labels, rec.word))
            assert pair == dominant_transport(rs, rec.labels)
            assert rec.induced == induced_diagram(rs, cochar_for_labeled_base(rs, rec.labels))
            count += 1
    assert count >= 2 ** (rs.rank + 1) - 1  # every proper subset has a record


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


def test_build_triple_record_rejects():
    a2 = rs_of("A2")
    with pytest.raises(InputError):  # labels must cover exactly the roots of J
        build_triple_record(a2, (0, 1), [((1, 0), 2)])
    # a label that is not an int is rejected, not truncated or read as 0 or 1
    for label in (2.9, 2.0, True, Fraction(2), "x", None):
        with pytest.raises(InputError):
            build_triple_record(a2, (0,), [((1, 0), label)])
    assert build_triple_record(a2, (0,), [((1, 0), 2)]).labels == (((1, 0), 2),)


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


# The smallest --budget each report needs, as README gives it: the states its
# largest walk visits (1 when it makes no walk of more than one state).
SMALLEST_BUDGETS = {
    **dict.fromkeys(["A1", "A2", "A4", "A6", "B2", "B3", "C2", "E8", "F4"], 1),
    "G2": 2,
    "B5": 4,
    "D5": 4,
    "E6": 16,
    "B7": 18,
    "E7": 60,
    **dict.fromkeys(["B8", "C7", "C8", "D8"], 105),
}


@pytest.mark.parametrize("name, budget", SMALLEST_BUDGETS.items())
def test_smallest_report_budgets(name, budget):
    rs = rs_of(name)
    component_group_report(rs, budget=budget)
    if budget > 1:
        with pytest.raises(BudgetExceeded):
            component_group_report(rs, budget=budget - 1)


def test_e8_report_walks_visit_few_states(monkeypatch):
    """Elementary moves leave an E8 report no walk; the recount still walks.

    The moves alone merge E8's 511 subsets into its 67 subsystem classes,
    so the report builds records for 67 subsets, and the distinguished
    labelings of those split without a walk.  count_pair_orbits reduces
    every subset, so it still walks, much as the pseudo-Levi stage did
    before the moves (35 walks over 3,159 states; 19,253 states without
    refining the starts).
    """
    import unipcent.pseudolevi as pseudolevi
    import unipcent.rootsys as rootsys

    visited, subsets = [], set()
    original = rootsys._stabilizer_orbit
    original_records = pseudolevi._labeled_records

    def counting(*args):
        orbit = original(*args)
        visited.append(len(orbit))
        return orbit

    def counting_records(rs, J, labelings=None):
        subsets.add(J)
        yield from original_records(rs, J, labelings)

    monkeypatch.setattr(rootsys, "_stabilizer_orbit", counting)
    monkeypatch.setattr(pseudolevi, "_labeled_records", counting_records)
    rs = rs_of("E8")
    rs.results.clear()
    reports = component_group_report(rs)
    assert sum(len(rep.classes) for rep in reports.values()) == 113
    assert len(subsets) == 67
    assert visited == []
    assert count_pair_orbits(rs) == 113
    assert (len(visited), sum(visited)) == (37, 3223)
