"""End-to-end acceptance checks, one per advertised guarantee.

Each check prints a single PASS line with its wall time; the numbered caps
are asserted, not just logged.
"""
import itertools
import json
import time
from math import gcd

from unipcent import (
    CartanType,
    alcove_reduce,
    build_root_system,
    component_group_report,
    count_pair_orbits,
    enumerate_pseudolevis,
    enumerate_triples,
    extended_diagram,
    is_good_prime,
    point_order,
    subsystem_closure,
    witness_element,
)
from unipcent.oracle import (
    alcove_pseudolevis,
    all_roots,
    canonical_subsystem,
    classical_nilpotent_classes,
    default_denominator_bound,
    reflect_root,
)
from unipcent.cli import build_report_document, main, serialize_document

ALL_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
RANK_LE_4 = [t for t in ALL_TYPES if CartanType.parse(t).rank <= 4]
CLASSICAL = [t for t in ALL_TYPES if t[0] in "ABCD"]


def rs_of(name):
    return build_root_system(CartanType.parse(name))


def _report(n, label, started):
    elapsed = time.monotonic() - started
    print(f"[ACCEPTANCE {n:02d}] {label}: PASS ({elapsed:.2f}s)")
    return elapsed


def test_criterion_01_good_prime_table():
    started = time.monotonic()
    for name in ALL_TYPES:
        ct = CartanType.parse(name)
        rs = build_root_system(ct)
        if ct.family == "A" or (ct.family, ct.rank) == ("D", 3):
            bad = set()
        elif ct.family in ("B", "C", "D"):
            bad = {2}
        elif (ct.family, ct.rank) == ("E", 8):
            bad = {2, 3, 5}
        else:
            bad = {2, 3}
        for p in (0, 2, 3, 5, 7):
            assert is_good_prime(rs, p) == (p == 0 or p not in bad), (name, p)
    elapsed = _report(1, "good-prime table for all types of rank <= 8", started)
    assert elapsed < 1.0


def test_criterion_02_root_counts_and_closure():
    started = time.monotonic()
    closed_form = {
        "A": lambda n: n * (n + 1) // 2,
        "B": lambda n: n * n,
        "C": lambda n: n * n,
        "D": lambda n: n * (n - 1),
        "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
        "F": lambda n: 24,
        "G": lambda n: 6,
    }
    for name in ALL_TYPES:
        rs = rs_of(name)
        assert len(rs.positive_roots) == closed_form[rs.ctype.family](rs.rank), name
        roots = all_roots(rs)
        for gamma in roots:
            assert all(c >= 0 for c in gamma) or all(c <= 0 for c in gamma)
            for i in range(rs.rank):
                assert reflect_root(rs, i, gamma) in roots
    elapsed = _report(2, "root counts and reflection closure, exhaustively", started)
    assert elapsed < 5.0


def test_criterion_03_pseudolevi_oracle_equivalence():
    started = time.monotonic()
    for name in RANK_LE_4:
        rs = rs_of(name)
        bound = default_denominator_bound(rs)
        point_side = alcove_pseudolevis(rs, bound)
        assert point_side == alcove_pseudolevis(rs, bound + 1), name
        subset_side = {
            canonical_subsystem(rs, subsystem_closure(rs.extended_diagram, pl.J))
            for pl in enumerate_pseudolevis(rs)
        }
        assert point_side == subset_side, name
    elapsed = _report(3, "alcove-point oracle equals subset enumeration, rank <= 4", started)
    assert elapsed < 30.0


def test_criterion_04_class_oracle_equivalence():
    started = time.monotonic()
    for name in CLASSICAL:
        ct = CartanType.parse(name)
        rs = build_root_system(ct)
        records = enumerate_triples(rs)
        levi_diagrams = sorted(r.induced for r in records if r.order == 1)
        assert len(set(levi_diagrams)) == len(levi_diagrams), name
        oracle = sorted(d for _, d in classical_nilpotent_classes(ct.family, ct.rank))
        assert len(set(oracle)) == len(oracle), name
        assert levi_diagrams == oracle, name
    elapsed = _report(4, "order-1 data biject with the partition classification", started)
    assert elapsed < 60.0


def test_criterion_05_type_a_trivial():
    started = time.monotonic()
    for n in range(1, 9):
        reports = component_group_report(rs_of(f"A{n}"))
        for rep in reports.values():
            assert rep.group_name == "trivial"
            assert len(rep.classes) == 1
    _report(5, "type A reports are all trivial with one class", started)


def test_criterion_06_classical_two_groups():
    started = time.monotonic()
    for name in ("B2", "B3", "B4", "C2", "C3", "C4", "D4"):
        reports = component_group_report(rs_of(name))
        for rep in reports.values():
            assert set(rep.orders) <= {1, 2}, (name, rep.diagram)
            assert set(rep.torsion_orders) <= {1, 2}, (name, rep.diagram)
            assert rep.group_name == "trivial" or rep.group_name.startswith("ElemAb2(")
    _report(6, "classical types carry only elementary 2-groups", started)


def test_criterion_07_g2_golden():
    started = time.monotonic()
    reports = component_group_report(rs_of("G2"))
    assert len(reports) == 5
    sym3 = [rep for rep in reports.values() if rep.group_name == "Sym(3)"]
    assert len(sym3) == 1
    rep = sym3[0]
    assert rep.orders == (1, 2, 3)
    assembled = {
        (tuple(str(t) for t in rec.factor_types), rec.order) for rec in rep.classes
    }
    assert assembled == {(("G2",), 1), (("A1", "A1"), 2), (("A2",), 3)}
    elapsed = _report(7, "G2 table: five classes, Sym(3) on the subregular", started)
    assert elapsed < 5.0


def test_criterion_08_f4_golden():
    started = time.monotonic()
    rs = rs_of("F4")
    reports = component_group_report(rs)
    sym4 = [rep for rep in reports.values() if rep.group_name == "Sym(4)"]
    assert len(sym4) == 1
    assert sym4[0].orders == (1, 2, 2, 3, 4)
    for rep in reports.values():
        for d in rep.torsion_orders:
            assert d <= 4
            assert any(a % d == 0 for a in rs.marks + (1,)), (rep.diagram, d)
    elapsed = _report(8, "F4 table: one Sym(4), torsion bounded by the marks", started)
    assert elapsed < 60.0


def test_criterion_09_e8_scale(tmp_path):
    started = time.monotonic()
    out = tmp_path / "e8.json"
    assert main(["component-groups", "E8", "--jobs", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    sym5 = [rep for rep in doc["reports"] if rep["group_name"] == "Sym(5)"]
    assert len(sym5) == 1
    assert sorted(c["order"] for c in sym5[0]["classes"]) == [1, 2, 2, 3, 4, 5, 6]
    marks = rs_of("E8").marks
    for rep in doc["reports"]:
        for cls in rep["classes"]:
            d = cls["order"]
            assert d <= 6
            assert any(a % d == 0 for a in marks + (1,))
    elapsed = _report(9, "E8 full report with --jobs 8, one Sym(5)", started)
    assert elapsed < 600.0


def test_criterion_10_bijection_counting():
    started = time.monotonic()
    for name in ALL_TYPES:
        rs = rs_of(name)
        reports = component_group_report(rs)
        total = sum(len(rep.classes) for rep in reports.values())
        assert total == count_pair_orbits(rs), name
        for rep in reports.values():
            ones = [rec for rec in rep.classes if rec.order == 1]
            assert len(ones) == 1, (name, rep.diagram)
            assert all(j < rs.rank for j in ones[0].J), (name, rep.diagram)
        if rs.rank <= 4:
            ext = extended_diagram(rs)
            levi_canons = set()
            for size in range(rs.rank + 1):
                for K in itertools.combinations(range(rs.rank), size):
                    levi_canons.add(
                        canonical_subsystem(rs, subsystem_closure(ext, K))
                    )
            for rep in reports.values():
                rec = next(r for r in rep.classes if r.order == 1)
                sub = subsystem_closure(ext, rec.J)
                assert canonical_subsystem(rs, sub) in levi_canons
    _report(10, "class counts equal pair-orbit counts; order-1 data are Levi", started)


def test_criterion_11_characteristic_independence():
    started = time.monotonic()
    for name in ALL_TYPES:
        ct = CartanType.parse(name)
        blobs = {
            p: serialize_document(build_report_document(ct, p=p)) for p in (0, 7, 11)
        }
        assert blobs[0] == blobs[7] == blobs[11], name
    _report(11, "reports byte-identical across characteristics 0, 7, 11", started)


def test_criterion_12_witness_round_trip():
    started = time.monotonic()
    for name in ALL_TYPES:
        rs = rs_of(name)
        for p in (0, 7):
            for pl in enumerate_pseudolevis(rs):
                vec = witness_element(rs, pl.J, p)
                _, walls = alcove_reduce(rs, vec)
                assert walls == frozenset(pl.J), (name, pl.J, p)
                if p:
                    assert gcd(point_order(vec), p) == 1, (name, pl.J, p)
    elapsed = _report(12, "witness points certify every subsystem class", started)
    assert elapsed < 120.0
