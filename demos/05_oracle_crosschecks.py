"""Independent cross-checks: rational alcove points and partition combinatorics.

The subsystem classes found by subset enumeration must match the ones hit by
rational points of the fundamental alcove, and for classical types the
labeled diagrams must biject with the admissible-partition classification.
"""
from unipcent import (
    CartanType,
    build_root_system,
    canonical_subsystem,
    component_group_report,
    enumerate_pseudolevis,
    subsystem_closure,
)
from unipcent.oracle import (
    alcove_pseudolevis,
    classical_nilpotent_classes,
    default_denominator_bound,
)

for name in ("A3", "B3", "G2", "F4"):
    rs = build_root_system(CartanType.parse(name))
    bound = default_denominator_bound(rs)
    point_side = alcove_pseudolevis(rs, bound)
    ext = rs.extended_diagram
    subset_side = {
        canonical_subsystem(rs, subsystem_closure(ext, pl.J))
        for pl in enumerate_pseudolevis(rs)
    }
    print(f"{name}: {len(point_side)} classes from alcove points "
          f"(denominators <= {bound}), subset route agrees: {point_side == subset_side}")

print()
print("classical cross-check for so(9) = B4:")
rs = build_root_system(CartanType.parse("B4"))
reports = component_group_report(rs)
oracle = classical_nilpotent_classes("B", 4)
print(f"  {len(oracle)} admissible partitions of 9, {len(reports)} reports")
for part, diagram in oracle:
    rep = reports[diagram]
    print(f"  partition {part.parts!s:18} diagram {diagram} A(u)={rep.group_name}")
