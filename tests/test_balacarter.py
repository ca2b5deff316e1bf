"""Distinguished labelings: dimension criterion, sweeps, partition cross-checks."""
import itertools
import random

import pytest

from unipcent import (
    CartanType,
    InputError,
    build_root_system,
    cochar_for_labeled_base,
    distinguished_classes,
    distinguished_labelings_for_base,
    extended_diagram,
    is_distinguished,
    pairing,
    subsystem_closure,
)
from unipcent.balacarter import _root_masks
from unipcent.oracle import _grading_counts, _twos_mask
from unipcent.oracle import all_roots, distinguished_partitions, partition_diagrams
from unipcent.pseudolevi import base_components

TYPES_UP_TO_RANK_6 = (
    [f"A{r}" for r in range(1, 7)]
    + [f"B{r}" for r in range(2, 7)]
    + [f"C{r}" for r in range(2, 7)]
    + [f"D{r}" for r in range(3, 7)]
    + ["E6", "F4", "G2"]
)
TYPES_OF_RANK_7_AND_8 = ["A7", "A8", "B7", "B8", "C7", "C8", "D7", "D8", "E7", "E8"]


def ct(name):
    return CartanType.parse(name)


def test_is_distinguished_examples():
    assert is_distinguished(build_root_system(ct("A1")), (2,))
    assert not is_distinguished(build_root_system(ct("A2")), (0, 2))
    assert not is_distinguished(build_root_system(ct("D4")), (0, 0, 0, 0))


def test_a1_and_a_n_unique():
    assert distinguished_classes(ct("A1")) == ((2,),)
    for n in range(1, 9):
        classes = distinguished_classes(ct(f"A{n}"))
        assert classes == ((2,) * n,)
        assert len(distinguished_partitions("A", n)) == 1


def test_g2_two_classes():
    assert distinguished_classes(ct("G2")) == ((0, 2), (2, 2))


@pytest.mark.parametrize(
    "family,rank",
    [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4)],
)
def test_classical_sweep_matches_partition_oracle(family, rank):
    swept = set(distinguished_classes(ct(f"{family}{rank}")))
    from_partitions = set()
    for part in distinguished_partitions(family, rank):
        for diag in partition_diagrams(family, rank, part):
            from_partitions.add(diag)
    assert swept == from_partitions


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_sweep_matches_partition_oracle_up_to_rank_8(family):
    for rank in range(5, 9):
        swept = set(distinguished_classes(ct(f"{family}{rank}")))
        from_partitions = {
            diag
            for part in distinguished_partitions(family, rank)
            for diag in partition_diagrams(family, rank, part)
        }
        assert swept == from_partitions, f"{family}{rank}"


def reference_grading_counts(rsf, labels):
    """The roots at pairing 0 and at pairing 2, by one dot product per root."""
    pairings = [sum(c * l for c, l in zip(gamma, labels)) for gamma in all_roots(rsf)]
    return pairings.count(0), pairings.count(2)


def test_grading_counts_match_dot_products():
    rng = random.Random(5)
    for name in TYPES_UP_TO_RANK_6 + TYPES_OF_RANK_7_AND_8:
        rsf = build_root_system(ct(name))
        masks = _root_masks(rsf)
        if rsf.rank <= 6:
            labelings = list(itertools.product((0, 2), repeat=rsf.rank))
        else:
            labelings = [tuple(rng.choice((0, 2)) for _ in range(rsf.rank)) for _ in range(40)]
        for labels in labelings:
            expected = reference_grading_counts(rsf, labels)
            assert _grading_counts(masks, _twos_mask(labels)) == expected, (name, labels)


def test_labels_outside_0_2_rejected():
    b3 = build_root_system(ct("B3"))
    for labels in [(2, 2), (2, 1, 2), (2, 2, 4)]:
        with pytest.raises(InputError):
            is_distinguished(b3, labels)


def test_exceptional_counts():
    # golden counts, derived from the sweep itself and frozen
    expected = {"G2": 2, "F4": 4, "E6": 3, "E7": 6, "E8": 11}
    for name, count in expected.items():
        assert len(distinguished_classes(ct(name))) == count


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_exceptional_classes_are_what_the_dimension_criterion_accepts(name):
    """The one-step scan against is_distinguished, labeling by labeling."""
    rs = build_root_system(ct(name))
    accepted = [
        labels
        for labels in itertools.product((0, 2), repeat=rs.rank)
        if is_distinguished(rs, labels)
    ]
    assert distinguished_classes(ct(name)) == tuple(accepted)


def test_all_labelings_even_valued():
    for name in ("B4", "F4", "E6"):
        for labels in distinguished_classes(ct(name)):
            assert all(v in (0, 2) for v in labels)


def test_product_classes():
    """Labelings of product bases: one distinguished choice per factor.

    Each labeling must balance on the whole pseudo-Levi: |J| plus the roots
    of R_J at pairing 0 equals the roots of R_J at pairing 2.
    """
    cases = [
        ("G2", (), (), 1),
        ("G2", (0, 2), ("A1", "A1"), 1),
        ("A4", (0, 1, 3), ("A1", "A2"), 1),
        ("C6", (0, 1, 3, 4, 5, 6), ("C3", "C3"), 4),
    ]
    for name, J, factors, count in cases:
        rs = build_root_system(ct(name))
        ext = extended_diagram(rs)
        base = tuple(ext.root_of[j] for j in J)
        assert tuple(str(t) for t, _ in base_components(rs, base)) == factors
        labelings = distinguished_labelings_for_base(base_components(rs, base))
        assert len(labelings) == count, name
        closure = subsystem_closure(ext, J)
        for items in labelings:
            lam = cochar_for_labeled_base(rs, items)
            pairings = [pairing(g, lam) for g in closure]
            assert len(J) + pairings.count(0) == pairings.count(2), (name, items)
    # the product of regular classes is the all-2 labeling
    g2 = build_root_system(ct("G2"))
    ext = extended_diagram(g2)
    base = (ext.root_of[0], ext.root_of[2])
    assert distinguished_labelings_for_base(base_components(g2, base)) == (
        tuple(sorted((r, 2) for r in base)),
    )


def test_labelings_for_base_pullback():
    rs = build_root_system(ct("G2"))
    from unipcent import extended_diagram

    ext = extended_diagram(rs)
    base = tuple(sorted((ext.root_of[0], ext.root_of[1])))
    labelings = distinguished_labelings_for_base(base_components(rs, base))
    assert len(labelings) == 2
    for items in labelings:
        assert {r for r, _ in items} == set(base)
        assert all(l in (0, 2) for _, l in items)
    # the empty base carries exactly the empty labeling
    assert distinguished_labelings_for_base(base_components(rs, ())) == ((),)
