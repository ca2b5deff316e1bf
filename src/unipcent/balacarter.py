"""Distinguished unipotent classes of irreducible types and their products.

A distinguished class is encoded by its {0,2}-labeling of the simple roots.
The per-type scan is RootSystem.distinguished_labelings, which
distinguished_classes reads and distinguished_labelings_for_base pulls back.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from .rootsys import CartanType, RootVec, build_root_system

LabeledSubDiagram = tuple[tuple[RootVec, int], ...]


def distinguished_classes(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """The type's distinguished {0,2}-labelings (RootSystem.distinguished_labelings)."""
    return build_root_system(ctype).distinguished_labelings


def distinguished_labelings_for_base(
    components: Sequence[tuple[CartanType, tuple[RootVec, ...]]],
) -> tuple[LabeledSubDiagram, ...]:
    """Distinguished labelings of an ambient base, as (root, label) item tuples.

    components are the base's irreducible components, each with its
    standard type and its roots in the type's node order, as
    RootSystem.subset_components or pseudolevi.base_components give them.
    The per-type labelings are pulled back along that order.  The resulting
    set is independent of the order chosen, since diagram automorphisms
    permute the distinguished labelings of a type.
    """
    per = [distinguished_classes(ct) for ct, _ in components]
    out = []
    for combo in itertools.product(*per):
        items = []
        for (_, roots), labels in zip(components, combo):
            items.extend(zip(roots, labels))
        out.append(tuple(sorted(items)))
    return tuple(sorted(out))
