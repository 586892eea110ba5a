"""Property tests over small multiplets, orders and seed modes."""

import itertools

from hypothesis import given, settings, strategies as st

import orbifrob as of
from orbifrob.rationals import QQ

# r in {3, 4}, a_i <= 4 and sum(a_i - 1) <= 6: ten multiplets small enough
# for the exhaustive strategy at m = 2.
MULTIPLETS = [
    ",".join(map(str, orders))
    for r in (3, 4)
    for orders in itertools.combinations_with_replacement(range(2, 5), r)
    if sum(a - 1 for a in orders) <= 6
]

MODES = st.one_of(
    st.just(of.STANDARD),
    st.builds(
        lambda p, q: of.rescaled_mode(QQ(p, q)),
        st.integers(-3, 3).filter(bool),
        st.integers(1, 3),
    ),
)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(multiplet=st.sampled_from(MULTIPLETS), m_max=st.integers(1, 2), mode=MODES)
def test_reconstruction_properties(multiplet, m_max, mode):
    geom = of.build_geometry(multiplet)
    assert all(of.seed(geom, mode, m_max).coeffs.values())
    pot, _ = of.reconstruct(multiplet, m_max, mode)
    # The store holds nonzero values only, so a file round trip restores
    # the coefficient map exactly.
    assert all(pot.coeffs.values())
    assert all(of.rescale_novikov(pot, QQ(-2, 3)).coeffs.values())
    text = of.serialize_potential(pot)
    assert of.parse_potential(text).coeffs == pot.coeffs
    # Uniqueness in operational form: both strategies write the same file.
    exhaustive, _ = of.reconstruct(multiplet, m_max, mode, strategy="exhaustive")
    assert of.serialize_potential(exhaustive) == text
    assert of.residual_scan(pot, m_max).ok
