"""The full G2 story: how Sym(3) appears on the subregular unipotent class.

Three different pseudo-Levi data induce the same labeled diagram; their
torsion orders 1, 2, 3 are exactly the class orders of Sym(3).
"""
from unipcent import (
    CartanType,
    build_root_system,
    build_triple_record,
    component_group_report,
    enumerate_triples,
    extended_diagram,
    induced_diagram,
)

rs = build_root_system(CartanType.parse("G2"))

print("records: one per Weyl orbit of (subsystem, distinguished labeling)")
for rec in enumerate_triples(rs):
    factors = "+".join(str(t) for t in rec.factor_types) or "torus"
    print(f"  J={list(rec.J)} ({factors}), diagram {rec.induced}, d_J={rec.order}")

print()
reports = component_group_report(rs)
for diagram, rep in reports.items():
    print(f"diagram {diagram}: A(u) = {rep.group_name}, class orders {rep.orders}")

sub = reports[(0, 2)]
print()
print("the subregular class collects:")
for rec in sub.classes:
    factors = "+".join(str(t) for t in rec.factor_types)
    print(f"  {factors} with torsion order {rec.order}")
print("-> conjugacy classes of orders 1, 2, 3: the symmetric group on 3 letters")

print()
print("one record by hand: the long A2 on nodes 1 and 2 (2 is the affine node), labeled 2, 2")
ext = extended_diagram(rs)
rec = build_triple_record(rs, (1, 2), [(ext.root_of[j], 2) for j in (1, 2)])
lam = ", ".join(str(c) for c in rec.lam)
print(f"  cocharacter ({lam}), dominant form {induced_diagram(rs, rec.lam)}, d_J={rec.order}")
