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


# A 2,3,4 m=2 file, mutated by the parser fuzz below with characters drawn
# from its own alphabet.
FUZZ_FILE = of.serialize_potential(of.reconstruct("2,3,4", 2)[0])
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "insert", "replace")),
        st.integers(0, len(FUZZ_FILE)),
        st.sampled_from(sorted(set(FUZZ_FILE))),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(edits=EDITS)
def test_parse_potential_fails_only_with_value_error(edits):
    text = FUZZ_FILE
    for op, pos, char in edits:
        pos = min(pos, len(text) - (op != "insert"))
        tail = text[pos + (op != "insert"):]
        text = text[:pos] + ("" if op == "delete" else char) + tail
    try:
        of.parse_potential(text)
    except ValueError:
        pass


# Fragments of key queries, valid and not, with a non-ASCII digit among them.
QUERY_FRAGMENTS = (
    "(", ")", ",", "^", " ", "\t", "m=", "0", "1", "2", "3", "9", "-", "/", "|", "x",
    "\u0661", "(1,1)", "(3,2)^", "(4,1)", "m=1", " m=0",
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=st.lists(st.sampled_from(QUERY_FRAGMENTS), max_size=10).map("".join))
def test_parse_key_query_fails_only_with_value_error(text):
    try:
        of.parse_key_query(of.build_geometry("2,3,4"), text)
    except ValueError:
        pass
