"""Sweeping every WDVV equation of a reconstructed potential.

The scan is exact: denominators are cleared once and all convolutions run
in integer arithmetic, so a zero residual is a proof, not an approximation.
A deliberately corrupted coefficient is caught immediately.

Run from the repository root:  python demos/03_wdvv_residuals.py
"""

from orbifrob import Potential, QQ, reconstruct, residual_scan
from orbifrob.series import alpha_from_pairs, SeriesKey

for orders, m_max in (("2,2,2", 4), ("2,3,4", 3), ("3,3,3", 4)):
    pot, _ = reconstruct(orders, m_max)
    scan = residual_scan(pot, m_max)
    total = sum(scan.targets_checked.values())
    print(f"({orders}) m <= {m_max}:  {scan.quads_checked} equations, "
          f"{total} monomials compared, nonzero residuals: {len(scan.nonzero)}")

print()
print("corrupting one coefficient of (2,2,2) by +1/1000:")
pot, _ = reconstruct("2,2,2", 4)
broken = Potential(pot.geometry, pot.seed_mode)
for key, value in pot.coeffs.items():
    broken.set_coefficient(key, value)
victim = SeriesKey(alpha_from_pairs(pot.geometry, {(1, 1): 4}), 0)
broken.set_coefficient(victim, pot.get_coefficient(victim) + QQ(1, 1000))
broken.seal(4)
scan = residual_scan(broken, 4)
print(f"  nonzero residuals: {len(scan.nonzero)}; the first three lines:")
residual_lines = [
    line for line in scan.to_text().splitlines() if line.startswith("residual |")
]
for line in residual_lines[:3]:
    print("   ", line)
