"""Reconstructing the full potential of (2,3,4) from the WDVV equations.

The seeds are the cubic limit products, the sector-purity zeros and the
single degree-one coefficient; every other coefficient is forced by one
WDVV extraction.  The trace records which equation determined what.

Run from the repository root:  python demos/02_reconstruction.py
"""

from orbifrob import format_key, format_rational, reconstruct

pot, trace = reconstruct("2,3,4", m_max=2)
geom = pot.geometry

print(f"reconstructed ({geom.multiplet}) up to order {pot.max_order}")
print(f"  seeds: {len(trace.seeds)}   solved: {len(trace.steps)}")
print()

print("nonzero coefficients up to order 1:")
for key, value in pot.items_sorted():
    if key.m <= 1:
        print(f"  c[{format_key(geom, key)}] = {format_rational(value)}")

print()
print("first solved equations (target | value | equation and extraction):")
for step in trace.steps[:8]:
    print(f"  {format_key(geom, step.target):30} = {format_rational(step.value):>8}"
          f"   from WDVV{step.quad.a},{step.quad.b},{step.quad.c},{step.quad.d}"
          f" at {format_key(geom, step.xkey)}")

print()
print("the quartic sector coefficients carry the familiar closed forms:")
print("  a = 2 sector: -1/96;  a >= 3 sector: -1/(4 a^2):")
for key, value in pot.items_sorted():
    if key.m == 0 and sum(key.alpha) == 4:
        print(f"  c[{format_key(geom, key)}] = {format_rational(value)}")
