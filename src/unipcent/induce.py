"""From a labeled subsystem base to the ambient labeled diagram.

The cocharacter of a {0,2}-labeled base is the unique solution of the pairing
equations inside the span of the base's coroots; its dominant form read on the
simple roots is the labeled (weighted) diagram of the induced unipotent class.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation
from .pseudolevi import diagram_of_dominant
from .rootsys import (
    CocharVec,
    LabeledDiagram,
    RootSystem,
    RootVec,
    as_cochar,
    solve_cochar_for_base,
    to_dominant,
)


def cochar_for_labeled_base(
    rs: RootSystem, items: Iterable[tuple[RootVec, int]]
) -> CocharVec:
    """Solve for the cocharacter of a labeled base; must come out integral.

    The pipeline builds each record's cocharacter from coroot_coefficients
    instead; this Fraction solve is the reference tests compare it against.
    """
    items = tuple(items)
    lam = solve_cochar_for_base(rs, [r for r, _ in items], [l for _, l in items])
    if any(c.denominator != 1 for c in lam):
        raise InvariantViolation(
            f"cocharacter of labeled base {items} is not integral: {lam}"
        )
    return lam


def induced_diagram(rs: RootSystem, lam: Sequence) -> LabeledDiagram:
    """Dominant pairings with the simple roots; must land in {0, 1, 2}."""
    lam = as_cochar(lam)
    if any(c.denominator != 1 for c in lam):
        raise InputError(f"cocharacter {lam} is not integral on the roots")
    dom, _ = to_dominant(rs, lam)
    return diagram_of_dominant([int(c) for c in dom])

