"""Component-group tables for the exceptional types.

F4 has a Sym(4), E8 a Sym(5); E8 also shows cosets of order 4 whose image in
the component group only has order 2 (the report tracks both numbers).
"""
import collections

from unipcent import CartanType, build_root_system, component_group_report

for name in ("G2", "F4", "E6", "E7", "E8"):
    rs = build_root_system(CartanType.parse(name))
    reports = component_group_report(rs)
    census = collections.Counter(rep.group_name for rep in reports.values())
    print(f"{name}: {len(reports)} unipotent classes; groups {dict(census)}")
    for rep in reports.values():
        if rep.group_name.startswith("Sym"):
            print(f"    {rep.group_name} on diagram {rep.diagram}:")
            for rec in rep.classes:
                factors = "+".join(str(t) for t in rec.factor_types)
                print(f"      {factors}, torsion order {rec.order}")
        if rep.torsion_orders != rep.orders:
            print(
                f"    diagram {rep.diagram}: coset orders {rep.torsion_orders}"
                f" give element orders {rep.orders} ({rep.group_name})"
            )
