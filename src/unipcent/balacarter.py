"""Distinguished unipotent classes of irreducible types and their products.

A distinguished class is encoded by its {0,2}-labeling of the simple roots;
the labeling is kept iff the centralizer dimension count balances:
#roots at pairing 0 plus the rank equals #roots at pairing 2, that is
dim g_0 = dim g_2 (Bala and Carter, Classes of unipotent elements in simple
algebraic groups I, 1976).  distinguished_classes tests every labeling of a
type in one scan over the node masks, each mask's counts one step from those
of the mask without its top node.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .rootsys import CartanType, RootSystem, RootVec, build_root_system

LabeledSubDiagram = tuple[tuple[RootVec, int], ...]


RootMasks = tuple[int, tuple[tuple[int, int], ...]]


def _root_masks(rsf: RootSystem) -> RootMasks:
    """|R+|, and for each node the positive roots whose support holds it and
    those with coefficient 1 there, as bitmasks over the positive roots."""
    supp = [0] * rsf.rank
    ones = [0] * rsf.rank
    for k, gamma in enumerate(rsf.positive_roots):
        for i, c in enumerate(gamma):
            if c:
                supp[i] |= 1 << k
                if c == 1:
                    ones[i] |= 1 << k
    return len(rsf.positive_roots), tuple(zip(supp, ones))


@lru_cache(maxsize=None)
def distinguished_classes(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """All distinguished {0,2}-labelings of an irreducible type, sorted.

    Every node mask of twos is tested.  oracle._grading_counts meets the
    nodes in increasing order, so its state (hit, once) for a mask is one
    step from its state for the mask without the top node, found earlier:
    the scan makes 2^rank steps, not rank * 2^rank.
    """
    n_pos, per_node = _root_masks(build_root_system(ctype))
    n = ctype.rank
    hits, onces = [0], [0]  # indexed by mask
    out = []
    for top, (supp, ones) in enumerate(per_node):
        for prev in range(1 << top):
            hit = hits[prev] | supp
            once = (onces[prev] & ~supp) | (ones & ~hits[prev])
            hits.append(hit)
            onces.append(once)
            if 2 * (n_pos - hit.bit_count()) + n == once.bit_count():
                twos = prev | 1 << top
                out.append(tuple(2 if twos >> i & 1 else 0 for i in range(n)))
    return tuple(sorted(out))


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
