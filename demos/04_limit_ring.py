"""The algebra at the limit point, two ways.

The ring C[x_1..x_r]/(x_i x_j, a_i x_i^{a_i} - a_j x_j^{a_j}) is built
from its presentation alone; the quantum product specialises to it at the
limit.  Comparing the two tables cross-validates the seed layer of the
potential against an independent encoding.

Run from the repository root:  python demos/04_limit_ring.py
"""

from orbifrob import (
    LimitRing,
    POINT,
    build_geometry,
    check_limit_product,
    format_label,
    format_rational,
    reconstruct,
)

geom = build_geometry("2,3,4")
ring = LimitRing(geom)
print(f"limit ring of (2,3,4): dimension {ring.dimension} (= mu)")
print(f"associative: {ring.is_associative()}")
print()

print("multiplication of the twisted classes (rows * columns):")
twisted = list(geom.twisted)
for u in twisted:
    cells = []
    for v in twisted:
        vec = ring.product(u, v)
        if not vec:
            cells.append("0")
        else:
            lab, c = next(iter(vec.items()))
            prefix = "" if c == 1 else f"{format_rational(c)}*"
            name = "top" if lab is POINT else f"x{format_label(lab)}"
            cells.append(prefix + name)
    print(f"  x{format_label(u)}: " + "  ".join(f"{cell:>9}" for cell in cells))

print()
pot, _ = reconstruct("2,3,4", 1)
print("against the product computed from the potential's seeds:")
print(" ", check_limit_product(pot).line())
