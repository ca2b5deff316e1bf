"""Cocharacters of labeled bases and induced ambient diagrams."""
from fractions import Fraction

import pytest

from unipcent import (
    CartanType,
    InputError,
    InvariantViolation,
    build_root_system,
    extended_diagram,
    induced_diagram,
)
from unipcent.induce import cochar_for_labeled_base
from unipcent.oracle import all_roots, apply_word, pairing


def rs_of(name):
    return build_root_system(CartanType.parse(name))


def labeled(ext, labels):
    """(root, label) items of a {node: label} map on the extended diagram."""
    return tuple((ext.root_of[j], label) for j, label in labels.items())


def test_empty_base_gives_zero():
    a2 = rs_of("A2")
    assert cochar_for_labeled_base(a2, ()) == (Fraction(0), Fraction(0))


def test_a1_single_label():
    a1 = rs_of("A1")
    lam = cochar_for_labeled_base(a1, labeled(extended_diagram(a1), {0: 2}))
    assert lam == (Fraction(2),)  # alpha^vee
    assert induced_diagram(a1, lam) == (2,)


def test_g2_long_a2_integral_and_subregular():
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    # long-root A2 subsystem: affine node plus the long simple root
    lam = cochar_for_labeled_base(g2, labeled(ext, {1: 2, 2: 2}))
    for gamma in all_roots(g2):
        assert pairing(gamma, lam).denominator == 1
    diagram = induced_diagram(g2, lam)

    # the short A1 x long A1 pair with regular labels induces the same diagram
    lam2 = cochar_for_labeled_base(g2, labeled(ext, {0: 2, 2: 2}))
    assert induced_diagram(g2, lam2) == diagram
    assert diagram == (0, 2)
    assert lam != lam2


def test_regular_and_trivial_cases():
    for name in ("A3", "B3", "G2"):
        rs = rs_of(name)
        zero = tuple(Fraction(0) for _ in range(rs.rank))
        assert induced_diagram(rs, zero) == (0,) * rs.rank
        ext = extended_diagram(rs)
        lam = cochar_for_labeled_base(rs, labeled(ext, {j: 2 for j in range(rs.rank)}))
        assert induced_diagram(rs, lam) == (2,) * rs.rank


def test_weyl_invariance_of_induced_diagram():
    g2 = rs_of("G2")
    ext = extended_diagram(g2)
    lam = cochar_for_labeled_base(g2, labeled(ext, {0: 2, 2: 2}))
    base = induced_diagram(g2, lam)
    for word in [(0,), (1,), (0, 1), (1, 0), (0, 1, 0, 1)]:
        assert induced_diagram(g2, apply_word(g2, word, lam)) == base


def test_labels_outside_alphabet_fault():
    a2 = rs_of("A2")
    with pytest.raises(InvariantViolation):
        induced_diagram(a2, (Fraction(3), Fraction(0)))
    # a label 1 on a single root of A2 solves to half its coroot
    with pytest.raises(InvariantViolation, match="not integral"):
        cochar_for_labeled_base(a2, [((1, 0), 1)])
    with pytest.raises(InputError, match="not integral"):
        induced_diagram(a2, (Fraction(1, 2), 0))


def test_all_pipeline_cochars_integral():
    from unipcent import enumerate_pseudolevis, distinguished_labelings_for_base
    from unipcent.pseudolevi import base_components

    for name in ("A3", "B3", "C3", "G2"):
        rs = rs_of(name)
        ext = extended_diagram(rs)
        for pl in enumerate_pseudolevis(rs):
            base = tuple(ext.root_of[j] for j in pl.J)
            for items in distinguished_labelings_for_base(base_components(rs, base)):
                lam = cochar_for_labeled_base(rs, items)
                assert all(c.denominator == 1 for c in lam)
