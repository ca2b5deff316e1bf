"""Enumerate the closed subsystems attached to proper subsets of the extended
Dynkin diagram, with their torsion orders and certifying points.

Node ids 0..rank-1 are the simple roots in Bourbaki order; node `rank` is the
affine node, carrying minus the highest root with mark 1.
"""
from unipcent import (
    CartanType,
    alcove_reduce,
    build_root_system,
    enumerate_pseudolevis,
    extended_diagram,
    point_order,
    subsystem_closure,
    torsion_order,
    witness_element,
)

rs = build_root_system(CartanType.parse("F4"))
ext = extended_diagram(rs)
print("extended F4 node roots and marks:")
for node in ext.nodes:
    print(f"  node {node}: root {ext.root_of[node]}, mark {ext.mark_of[node]}")

print()
print("subsystem classes of F4 up to Weyl conjugacy:")
for pl in enumerate_pseudolevis(rs):
    factors = "+".join(str(t) for t in pl.factor_types) or "torus"
    n_roots = len(subsystem_closure(ext, pl.J))
    print(f"  J={list(pl.J)}: {factors}, |roots|={n_roots}, d_J={pl.dJ}")

# d_J is the gcd of the marks outside J: removing the mark-3 node of F4
# leaves a subsystem centralizing an order-3 element
J = (0, 2, 3, 4)
print()
print("removing node 1 (mark 3):", torsion_order(ext, J) == 3)

# the witness point pairs integrally with exactly the walls in J, and its
# order in the compact torus avoids the characteristic
vec = witness_element(rs, J, p=7)
_, walls = alcove_reduce(rs, vec)
print(f"witness {vec} has order {point_order(vec)}, walls {sorted(walls)}")
assert walls == frozenset(J)

# closures are exact integer-span intersections, not diagram guesses:
# in G2 the two long simple-ish nodes span the 6 long roots only
g2 = build_root_system(CartanType.parse("G2"))
ext2 = extended_diagram(g2)
long_a2 = subsystem_closure(ext2, (1, 2))
print()
print(f"long-root A2 inside G2 has {len(long_a2)} roots (of 12)")
