"""Alternative seedings: rescaled and vanishing degree-one coefficients.

Rescaling the degree-one seed by a multiplies every order-m coefficient
by a^m (a coordinate shift of the exponential variable).  Setting it to
zero instead kills every positive order: with the quartic seeds supplied
this holds for any multiplet, and for chi >= 0 even without them, at the
price of genuinely undetermined quartics.

Run from the repository root:  python demos/05_vanishing_and_rescaling.py
"""

from orbifrob import (
    QQ,
    VANISHING,
    VANISHING_NO_QUARTIC,
    check_vanishing,
    diff_potentials,
    format_key,
    reconstruct,
    rescale_novikov,
    rescaled_mode,
    residual_scan,
)

standard, _ = reconstruct("2,2,3", 3)
scaled = rescale_novikov(standard, QQ(7, 3))
direct, _ = reconstruct("2,2,3", 3, rescaled_mode(QQ(7, 3)))
print("rescaling (2,2,3) by 7/3:")
print("  rescale_novikov == rescaled seeding:", diff_potentials(scaled, direct) is None)
print("  rescaled potential passes the scan:", residual_scan(scaled, 3).ok)
print()

vanishing, trace = reconstruct("2,3,7", 2, VANISHING)
print("(2,3,7) with zero degree-one seed and quartic seeds:")
print(" ", check_vanishing(vanishing).line())
nonzero_m0 = sum(1 for key in vanishing.coeffs if key.m == 0)
print(f"  order-0 part survives with {nonzero_m0} nonzero coefficients")
print()

bare, trace = reconstruct("2,2,2", 4, VANISHING_NO_QUARTIC)
print("(2,2,2) with zero degree-one seed and no quartic seeds (chi = 1/2 >= 0):")
print(" ", check_vanishing(bare).line())
print("  coefficients the equations do not determine (free initial data):")
for key in trace.free:
    print(f"    c[{format_key(bare.geometry, key)}]")
