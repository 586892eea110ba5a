import hashlib
import itertools
import math
import sys

import pytest

import orbifrob as of
from orbifrob import (
    POINT,
    SeedMode,
    SeriesKey,
    Twisted,
    UNIT,
    WdvvQuad,
)
from orbifrob.formats import serialize_trace
from orbifrob.rationals import QQ
from orbifrob.series import key_layout
from orbifrob.reconstruct import TARGET, contract_at

from helpers import (
    copy_potential,
    key_of,
    leave_only_blocked_candidates,
    leave_only_useless_candidates,
    obeys_selection_rule,
    product_key,
)


# -- seeds ----------------------------------------------------------------


def test_seed_values_234():
    geom = of.build_geometry("2,3,4")
    pot = of.seed(geom, of.STANDARD, 1)
    assert pot.get_coefficient(key_of(geom, {(2, 1): 3}, 0)) == QQ(1, 18)
    assert pot.get_coefficient(key_of(geom, {(3, 1): 2, (3, 2): 1}, 0)) == QQ(1, 8)
    assert pot.get_coefficient(product_key(geom)) == 1


def test_seed_values_other_modes():
    geom = of.build_geometry("2,2,3")
    vanish = of.seed(geom, of.VANISHING, 1)
    assert vanish.get_coefficient(product_key(geom)) == 0
    assert vanish.get_coefficient(key_of(geom, {(1, 1): 4}, 0)) == QQ(-1, 96)
    assert vanish.get_coefficient(key_of(geom, {(3, 1): 2, (3, 2): 2}, 0)) == QQ(-1, 36)
    bare = of.seed(geom, of.VANISHING_NO_QUARTIC, 1)
    assert key_of(geom, {(1, 1): 4}, 0) in bare.unknown
    scaled = of.seed(geom, of.rescaled_mode(QQ(7, 3)), 1)
    assert scaled.get_coefficient(product_key(geom)) == QQ(7, 3)


def test_seed_imposes_sector_purity():
    geom = of.build_geometry("2,2,2")
    pot = of.seed(geom, of.STANDARD, 1)
    mixed = key_of(geom, {(1, 1): 2, (2, 1): 2}, 0)
    assert mixed not in pot.unknown
    assert pot.get_coefficient(mixed) == 0


SEED_FAMILIES = ("limit-cubic", "sector-purity", "degree-one", "degree-one-support", "quartic")


def test_seeds_obey_the_selection_rule():
    # The orbifold group fixes every seed family, so every nonzero seed of
    # every mode obeys sum_j j alpha_{i,j} == m (mod a_i) in every sector;
    # zero seeds are zero whatever their charge.  Each family's entries
    # also come as one run, the runs in SEED_FAMILIES order.
    modes = (of.STANDARD, of.rescaled_mode(QQ(-2, 3)), of.VANISHING, of.VANISHING_NO_QUARTIC)
    checked = set()
    for name in ("2,2,2", "2,2,3", "2,3,4", "3,3,3", "4,4,4", "3,4,5", "2,3,7", "2,2,2,2,2"):
        geom = of.build_geometry(name)
        for mode in modes:
            entries = list(of.seed_entries(geom, mode))
            for key, value, family in entries:
                if value:
                    assert obeys_selection_rule(geom, key), (name, mode, key)
                    checked.add(family)
            runs = [family for family, _ in itertools.groupby(e[2] for e in entries)]
            assert runs == [f for f in SEED_FAMILIES if f in runs], (name, mode, runs)
            assert ("quartic" in runs) == mode.quartic
    assert checked == {"limit-cubic", "degree-one", "quartic"}


@pytest.mark.parametrize("multiplet", ["2,2,2", "2,3,4", "4,4,4", "2,3,6"])
def test_pairing_lines_are_f_triv(reconstructed, multiplet):
    # One "| pairing" line per unordered label pair with eta != 0, spelling
    # the monomial t1 t_sigma t_tau; its coefficient times the product of
    # the factorials of the monomial's exponents is eta(sigma, tau).
    _, trace = reconstructed(multiplet, 1)
    geom = trace.geometry
    index = geom.label_index
    by_name = {of.format_label(lab): lab for lab in geom.labels}
    seen = []
    for line in serialize_trace(trace).splitlines():
        if not line.endswith(" | pairing"):
            continue
        _, monomial, value, _ = line.split(" | ")
        labels = []
        for factor in monomial.split():
            name, _, exponent = factor.partition("^")
            labels += [by_name[name]] * int(exponent)
        factorials = math.prod(math.factorial(labels.count(lab)) for lab in set(labels))
        labels.remove(of.UNIT)
        sigma, tau = sorted(labels, key=index.get)
        assert of.parse_rational(value) * factorials == geom.pairing(sigma, tau), line
        seen.append((index[sigma], index[tau]))
    n = len(geom.labels)
    assert sorted(seen) == [
        (k, l) for k in range(n) for l in range(k, n)
        if geom.pairing(geom.labels[k], geom.labels[l])
    ]


def test_reconstruct_generates_the_seeds_once(monkeypatch):
    # One stream feeds both the store and the trace's seed lines.
    module = sys.modules["orbifrob.reconstruct"]
    every = module.seed_entries
    calls = []

    def counting(geom, mode):
        calls.append(mode)
        return every(geom, mode)

    monkeypatch.setattr(module, "seed_entries", counting)
    pot, trace = of.reconstruct("2,2,3", 2, of.VANISHING)
    assert calls == [of.VANISHING]
    assert trace.seeds == list(every(pot.geometry, of.VANISHING))


def test_seed_mode_tokens(reconstructed):
    assert SeedMode.from_token("standard") is of.STANDARD
    assert SeedMode.from_token("vanishing-no-quartic") is of.VANISHING_NO_QUARTIC
    assert SeedMode.from_token("rescaled:7/3").token() == "rescaled:7/3"
    for token in ("standard", "vanishing", "vanishing-no-quartic", "rescaled:-2/3"):
        assert SeedMode.from_token(token).token() == token
    # rescaled:1 names the standard seeds.
    assert SeedMode.from_token("rescaled:1") is of.STANDARD
    assert of.rescaled_mode(1) is of.STANDARD
    for retired in ("bogus", "vanishing-no-vii"):
        with pytest.raises(ValueError):
            SeedMode.from_token(retired)
    with pytest.raises(ValueError):
        of.rescaled_mode(0)
    # The quartic seeds go with a vanishing degree-one value only.
    with pytest.raises(ValueError):
        SeedMode(QQ(2), quartic=True)
    vanishing, _ = reconstructed("2,2,3", 2, of.VANISHING)
    assert of.rescale_novikov(vanishing, QQ(7, 3)).seed_mode is of.VANISHING


# -- schedule -------------------------------------------------------------


def test_schedule_covers_exactly_the_unseeded_keys(reconstructed):
    geom = of.build_geometry("2,2,3")
    mode = of.STANDARD
    targets = of.build_schedule(of.seed(geom, mode, 3))
    assert len(set(targets)) == len(targets)
    seeded = {key for key, _, _ in reconstructed("2,2,3", 3)[1].seeds}
    assert not (set(targets) & seeded)
    expected = set()
    for m in range(4):
        for alpha in of.admissible_keys(geom, m):
            key = SeriesKey(alpha, m)
            if key not in seeded:
                expected.add(key)
    assert set(targets) == expected


def test_schedule_covers_every_unknown_key():
    # The one degree-one-support seed of 2,3,4 (length 3 = r, below the
    # first order-1 level), put back into unknown, is scheduled too.
    geom = of.build_geometry("2,3,4")
    pot = of.seed(geom, of.STANDARD, 3)
    support = [
        SeriesKey(alpha, 1)
        for alpha in of.admissible_keys(geom, 1)
        if sum(alpha) <= geom.r and SeriesKey(alpha, 1) != product_key(geom)
    ]
    assert len(support) == 1
    pot.unknown.update(support)
    targets = of.build_schedule(pot)
    assert len(targets) == len(set(targets))
    assert set(targets) == pot.unknown


def test_schedule_entry_for_top_order_222():
    # chi = 1/2 caps the order at 4; c(0,4) is scheduled and guided to the
    # quads ((i,1),(i,1),P,P).
    geom = of.build_geometry("2,2,2")
    origin = SeriesKey(of.zero_alpha(geom), 4)
    assert origin in of.build_schedule(of.seed(geom, of.STANDARD, 4))
    assert (
        WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT),
        origin,
    ) in of.guided_candidates(geom, origin)


def test_schedule_rejects_bad_arguments():
    geom = of.build_geometry("2,2,2")
    with pytest.raises(ValueError):
        of.seed(geom, of.STANDARD, 0)
    with pytest.raises(ValueError):
        of.reconstruct("2,2,2", 2, strategy="sideways")


# -- single-target solving -------------------------------------------------


def test_probe_solves_quartic_from_seeds_234():
    geom = of.build_geometry("2,3,4")
    pot = of.seed(geom, of.STANDARD, 1)
    target = key_of(geom, {(3, 1): 2, (3, 3): 2}, 0)
    quad = WdvvQuad(Twisted(3, 1), Twisted(3, 3), POINT, POINT)
    result = of.probe_candidate(pot, quad, product_key(geom), target)
    assert result.status == "solved"
    assert result.value == QQ(-1, 64)


def test_probe_solves_quartic_from_seeds_222():
    geom = of.build_geometry("2,2,2")
    pot = of.seed(geom, of.STANDARD, 1)
    target = key_of(geom, {(1, 1): 4}, 0)
    quad = WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT)
    result = of.probe_candidate(pot, quad, product_key(geom), target)
    assert result.status == "solved"
    assert result.value == QQ(-1, 96)


def test_probe_reports_blocked_on_missing_prerequisites():
    geom = of.build_geometry("2,2,2")
    pot = of.seed(geom, of.STANDARD, 4)
    origin = SeriesKey(of.zero_alpha(geom), 4)
    quad = WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT)
    result = of.probe_candidate(pot, quad, origin, origin)
    assert result.status == "blocked"
    # The kernel looks keys up as packed integers; the blocker is still the
    # SeriesKey of the first unknown prerequisite, t_{1,1}^2 e^{2 tmu}.
    assert type(result.blocker) is SeriesKey
    assert result.blocker == key_of(geom, {(1, 1): 2}, 2)


def test_probe_reports_self_pair_useless(reconstructed):
    # In WDVV((3,1),(3,2),(3,1),(3,2)) at (3,3)^2 the target multiplies
    # itself.  Dropping that x^2 term would leave 0 + 1/2 x and "solve"
    # the target as 0, but its value is -1/32.
    pot, _ = reconstructed("2,3,4", 2)
    geom = pot.geometry
    quad = WdvvQuad(Twisted(3, 1), Twisted(3, 2), Twisted(3, 1), Twisted(3, 2))
    xkey = key_of(geom, {(3, 3): 2}, 0)
    target = key_of(geom, {(3, 1): 1, (3, 2): 2, (3, 3): 1}, 0)

    layout = pot.packed().layout

    def lookup(packed):
        key = layout.unpack(packed)
        return TARGET if key == target else pot.coeffs.get(key, 0)

    assert contract_at(layout, quad, xkey, lookup) == (0, QQ(1, 2), 16)
    assert pot.coeffs[target] == QQ(-1, 32)
    assert of.probe_candidate(pot, quad, xkey, target).status == "useless"


def test_inconsistent_seed_detected(reconstructed):
    complete, _ = reconstructed("2,2,2", 4)
    geom = complete.geometry
    origin = SeriesKey(of.zero_alpha(geom), 4)
    # Zeroing the quartic violates the fully-known equation that tied it
    # to the degree-one seed; the probe of an unrelated target sees a
    # nonzero constant with zero slope.
    quartic = key_of(geom, {(1, 1): 4}, 0)
    broken = copy_potential(complete, {origin: 0, quartic: 0}, seal=False)
    quad = WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT)
    with pytest.raises(of.InconsistentSeed):
        of.probe_candidate(broken, quad, product_key(geom), origin)


# -- full reconstruction -----------------------------------------------------


def test_reconstruct_completes_all_admissible_keys(reconstructed):
    pot, trace = reconstructed("2,2,2", 4)
    geom = pot.geometry
    assert pot.sealed and pot.max_order == 4
    known = {key for key, _, _ in trace.seeds} | {step.target for step in trace.steps}
    for m in range(5):
        for alpha in of.admissible_keys(geom, m):
            assert SeriesKey(alpha, m) in known
    assert not trace.free
    assert len(trace.steps) + len(trace.seeds) == len(known)


def test_reconstruct_chi_cap_applies():
    pot, _ = of.reconstruct("2,2,2", 9)
    assert pot.max_order == 4  # floor(2 / (1/2))


def test_reconstruct_negative_chi_terminates(reconstructed):
    pot, trace = reconstructed("2,3,7", 2)
    geom = pot.geometry
    known = {key for key, _, _ in trace.seeds} | {step.target for step in trace.steps}
    for m in range(3):
        for alpha in of.admissible_keys(geom, m):
            assert SeriesKey(alpha, m) in known


def test_reconstruct_rejects_bad_order():
    with pytest.raises(ValueError):
        of.reconstruct("2,2,2", 0)


def test_reconstruct_raises_solver_stuck_when_every_candidate_is_useless(monkeypatch):
    # No blocked candidate and no solved one: the worklist's last pass,
    # with the fallback, ends in SolverStuck, not NoProgress, and names
    # the first six targets.
    leave_only_useless_candidates(monkeypatch)
    with pytest.raises(of.SolverStuck) as info:
        of.reconstruct("2,2,3", 1)
    assert len(info.value.targets) > 6
    assert str(info.value).startswith("no candidate determines: ")
    assert str(info.value).endswith(f" (+{len(info.value.targets) - 6} more)")


def test_reconstruct_names_only_the_undetermined_quartics():
    # No seed fixes the quartics here, and every probe of theirs is
    # useless; the order-2 keys wait on them, blocked, and are not named.
    with pytest.raises(of.SolverStuck) as info:
        of.reconstruct("2,2,2,2,2", 2, of.VANISHING_NO_QUARTIC)
    assert str(info.value) == "no candidate determines: " + ", ".join(
        f"({i},1)^4 | m=0" for i in range(1, 6)
    )


def test_reconstruct_raises_no_progress_when_every_candidate_is_blocked(monkeypatch):
    # Every candidate left is blocked, so no target is stuck in the
    # SolverStuck sense: the pass ends in NoProgress on all of them.
    leave_only_blocked_candidates(monkeypatch)
    with pytest.raises(of.NoProgress) as info:
        of.reconstruct("2,3,4", 1)
    assert len(info.value.targets) > 6
    assert str(info.value).startswith("worklist deadlock on: ")


def test_geometry_is_not_written_by_reconstruct_or_scan():
    # The tables derived from a geometry live in memoised functions, not
    # on the shared object.
    geom = of.build_geometry("2,2,3")
    before = dict(vars(geom))
    pot, _ = of.reconstruct("2,2,3", 2, strategy="exhaustive")
    assert pot.geometry is geom
    of.residual_scan(pot, 2)
    after = vars(geom)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    assert not any(name.startswith("_") for name in after)


def test_fallback_socket_table_is_built_once_per_layout():
    from orbifrob.reconstruct import _fallback_sockets

    geom = of.build_geometry("2,2,3")
    table = _fallback_sockets(key_layout(geom, 2))
    assert _fallback_sockets(key_layout(geom, 2)) is table
    assert _fallback_sockets(key_layout(geom, 3)) is not table



def _kronecker3(d):
    return (0, 1, -1)[d % 3]


def _chi_minus4(d):
    return (0, 1, 0, -1)[d % 4]


def _divisor_sum(character, m):
    return sum(character(d) for d in range(1, m + 1) if m % d == 0)


@pytest.mark.parametrize(
    "multiplet, m_max, closed_form",
    [
        # Sum over d | m of the character (d/3), supported on m = 1 mod 3.
        ("3,3,3", 10,
         lambda m: _divisor_sum(_kronecker3, m) if m % 3 == 1 else 0),
        # sigma(m), the sum of the divisors of m, supported on odd m.
        ("2,2,2,2", 9,
         lambda m: sum(d for d in range(1, m + 1) if m % d == 0) if m % 2 else 0),
        # Sum over d | m of chi_{-4}(d), supported on m = 1 mod 4.
        ("2,4,4", 9,
         lambda m: _divisor_sum(_chi_minus4, m) if m % 4 == 1 else 0),
        # Sum over d | m of (d/3), supported on m = 1 mod 6.
        ("2,3,6", 7,
         lambda m: _divisor_sum(_kronecker3, m) if m % 6 == 1 else 0),
    ],
    ids=["333-kronecker3", "2222-sigma", "244-chi4", "236-kronecker3"],
)
def test_elliptic_product_coefficients_are_divisor_sums(
    reconstructed, multiplet, m_max, closed_form
):
    # chi = 0: the product monomial t_{1,1}...t_{r,1} e^{m tmu} is admissible
    # at every order, and its coefficient is a modular divisor sum
    # (Satake-Takahashi, arXiv:1103.0951).  The closed forms share no code
    # with the solver.
    pot, _ = reconstructed(multiplet, m_max)
    geom = pot.geometry
    assert pot.max_order == m_max
    alpha = product_key(geom).alpha
    got = [pot.get_coefficient(SeriesKey(alpha, m)) for m in range(1, m_max + 1)]
    assert got == [closed_form(m) for m in range(1, m_max + 1)]
    assert any(value != 1 for value in got if value)  # not just the seed

def test_degree_one_stratum_matches_uniqueness_statement(reconstructed):
    # c(alpha, 1) with |alpha| <= r is nonzero exactly at the product key.
    pot, _ = reconstructed("2,2,5", 2)
    geom = pot.geometry
    product = product_key(geom)
    for alpha in of.admissible_keys(geom, 1):
        if sum(alpha) > geom.r:
            continue
        value = pot.get_coefficient(SeriesKey(alpha, 1))
        assert (value != 0) == (SeriesKey(alpha, 1) == product)


def test_no_constant_terms_for_nonpositive_chi(reconstructed):
    pot, _ = reconstructed("2,3,7", 2)
    geom = pot.geometry
    for key, value in pot.coeffs.items():
        if not any(key.alpha):
            assert value == 0  # never stored, in fact
    assert not any(not any(k.alpha) for k in pot.coeffs)


def test_lemma_style_degree_one_values(reconstructed):
    # c(e_{i,j+1} + e_{i,a_i-j} + prod-others, 1) = 1/a_i, halved when the
    # two indices coincide.
    pot, _ = reconstructed("2,3,4", 1)
    geom = pot.geometry
    for i, a in enumerate(geom.orders, start=1):
        if a < 3:
            continue
        for j in range(1, a - 1):
            pairs = {(k, 1): 1 for k in range(1, geom.r + 1) if k != i}
            for idx in (j + 1, a - j):
                pairs[(i, idx)] = pairs.get((i, idx), 0) + 1
            expected = QQ(1, 2 * a) if a - j == j + 1 else QQ(1, a)
            assert pot.get_coefficient(key_of(geom, pairs, 1)) == expected


def test_cross_equation_consistency(reconstructed):
    # Any other nonzero-slope candidate for a solved target reproduces the
    # stored value.
    pot, trace = reconstructed("2,2,3", 2)
    checked = 0
    for step in trace.steps:
        if step.target.m == 0:
            continue
        probe = copy_potential(pot, {step.target: 0}, seal=False)
        count = 0
        for quad, xkey in of.exhaustive_candidates(probe, step.target):
            result = of.probe_candidate(probe, quad, xkey, step.target)
            if result.status == "solved":
                assert result.value == pot.get_coefficient(step.target)
                count += 1
            if count >= 4:
                break
        checked += count
    assert checked > 0


def test_guided_and_exhaustive_strategies_agree(reconstructed):
    pa, _ = reconstructed("2,2,3", 2, of.STANDARD, "guided")
    pb, _ = reconstructed("2,2,3", 2, of.STANDARD, "exhaustive")
    assert of.diff_potentials(pa, pb) is None
    assert of.serialize_potential(pa) == of.serialize_potential(pb)


@pytest.mark.parametrize(
    "multiplet, m_max, exhaustive, digest",
    [
        ("2,2,2,3", 6, True, "7f870c3835e571ed31b786e3a973f5d70f7daa39d686881f4137c018390f8e6c"),
        ("2,2,3,3", 3, True, "932737ef8727b51bdc595055aa4f02db8b169c22d60537eb50b2d872d2b58c90"),
        ("2,2,2,2,2", 4, True, "05c049eb60cd4d3b9e97fa7c702735165cce480bc441af9283d9a3dbdd5412bb"),
        # Its exhaustive run takes 3-5 s, too long for this suite.
        ("3,3,3,3", 2, False, "390ba5e1ad323bed5cf2b700586c9639c702612e846aef3f81a5f992f37efd6c"),
    ],
    ids=["2223-m6", "2233-m3", "22222-m4", "3333-m2"],
)
def test_potential_files_of_lines_with_four_or_five_points_pinned(
    reconstructed, multiplet, m_max, exhaustive, digest
):
    # sha256 of the standard-mode potential file of hyperbolic lines with
    # r = 4 and r = 5 orbifold points; where the exhaustive strategy runs,
    # it must write the same file byte for byte.
    pot, _ = reconstructed(multiplet, m_max)
    text = of.serialize_potential(pot)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if exhaustive:
        searched, _ = reconstructed(multiplet, m_max, of.STANDARD, "exhaustive")
        assert of.serialize_potential(searched) == text


# -- rescaling ---------------------------------------------------------------


def test_rescale_identity(reconstructed):
    pot, _ = reconstructed("2,2,3", 2)
    again = of.rescale_novikov(pot, 1)
    assert of.diff_potentials(pot, again) is None
    with pytest.raises(ValueError):
        of.rescale_novikov(pot, 0)


def test_rescale_matches_rescaled_mode(reconstructed):
    pot, _ = reconstructed("2,2,3", 3)
    scaled = of.rescale_novikov(pot, QQ(7, 3))
    direct, _ = reconstructed("2,2,3", 3, of.rescaled_mode(QQ(7, 3)))
    assert of.diff_potentials(scaled, direct) is None
    assert of.serialize_potential(scaled) == of.serialize_potential(direct)
    assert of.residual_scan(scaled, 3).ok


# -- vanishing modes ----------------------------------------------------------


def test_vanishing_mode_small(reconstructed):
    pot, trace = reconstructed("2,2,3", 2, of.VANISHING)
    assert not trace.free
    assert of.check_vanishing(pot).passed
    # The order-0 part agrees with the standard one.
    std, _ = reconstructed("2,2,3", 2)
    for key, value in std.coeffs.items():
        if key.m == 0:
            assert pot.get_coefficient(key) == value


def test_vanishing_no_quartic_frees_the_quartics(reconstructed):
    pot, trace = reconstructed("2,2,2", 4, of.VANISHING_NO_QUARTIC)
    geom = pot.geometry
    quartics = {key_of(geom, {(i, 1): 4}, 0) for i in range(1, 4)}
    assert set(trace.free) == quartics
    assert not any(k in pot.coeffs for k in quartics)
    assert of.check_vanishing(pot).passed
    for key, value in pot.coeffs.items():
        if key.m >= 1:
            assert value == 0


def test_trace_text_is_auditable(reconstructed):
    pot, trace = reconstructed("2,2,3", 2)
    text = serialize_trace(trace)
    assert "seed | (1,1)^1 (2,1)^1 (3,1)^1 | m=1 | 1 | degree-one" in text
    assert text.count("solve | ") == len(trace.steps)
    assert "| pairing" in text
    for step in trace.steps:
        assert step.slope != 0


def test_reconstruct_is_the_same_under_a_second_rational_type(
    reconstructed, bind_second_rational_type
):
    # Under PythonMPQ, the kernel's numerator sums, the solve and the
    # fallback (2,2,3 without quartics escalates to it) must store and
    # trace PythonMPQ values and write the files the Fraction backend
    # writes, byte for byte.
    cases = [
        ("2,3,4", 3, lambda: of.STANDARD, "guided"),
        ("3,4,5", 2, lambda: of.STANDARD, "exhaustive"),
        ("2,3,7", 4, lambda: of.rescaled_mode(of.QQ(-1, 2)), "guided"),
        ("2,2,3", 4, lambda: of.VANISHING_NO_QUARTIC, "guided"),
    ]
    expected = []
    for multiplet, m_max, mode, strategy in cases:
        pot, trace = reconstructed(multiplet, m_max, mode(), strategy)
        expected.append((of.serialize_potential(pot), serialize_trace(trace)))

    mpq = bind_second_rational_type()
    for (multiplet, m_max, mode, strategy), (text, trace_text) in zip(cases, expected):
        pot, trace = of.reconstruct(multiplet, m_max, mode(), strategy=strategy)
        assert {type(value) for value in pot.coeffs.values()} == {mpq}
        assert trace.steps and {type(step.value) for step in trace.steps} == {mpq}
        assert of.serialize_potential(pot) == text
        assert serialize_trace(trace) == trace_text


# -- pinned traces -------------------------------------------------------------


@pytest.mark.parametrize(
    "multiplet, m_max, mode, strategy, digest",
    [
        # Fires every guided family except the origin one.
        ("2,3,6", 2, of.STANDARD, "guided",
         "b5cf06669b8195aa134c0a93a2572f47d453cf532603539bda5fdd19a54ce3db"),
        # The origin family and free keys.
        ("2,2,2", 4, of.VANISHING_NO_QUARTIC, "guided",
         "c70899bb3d6127050d06bd4e058b79ae772a02ee918a04041c600d9f5e90a12a"),
        # Escalation from the guided candidates to the fallback.
        ("2,2,3", 4, of.VANISHING_NO_QUARTIC, "guided",
         "fbab26089cf900423e5f279e19f5de525da98c22350690fb4ec5dd5badf99dbb"),
        ("2,2,3", 2, of.STANDARD, "exhaustive",
         "c7aac55b58b86b184db39176caa602e7d0fdd523394fce8b05e0e53df6fa9607"),
        # Seed lines: 5 limit cubics and 3 quartics.
        ("2,3,7", 1, of.VANISHING, "guided",
         "9f92dfbd7364d8546f6a6d2ea8cd1b94ba198fa227f6fba0d8d2e97891c856ad"),
        # Seed lines: 16 degree-one-support seeds and 4 quartics.
        ("2,2,3,3", 1, of.VANISHING, "guided",
         "9966c6d0661f48a3919863e7136b6c85fc2b23f2a0aafecca347100f4ce2c343"),
    ],
    ids=["236-m2-standard", "222-m4-no-quartic", "223-m4-no-quartic", "223-m2-exhaustive",
         "237-m1-vanishing-seeds", "2233-m1-vanishing-seeds"],
)
def test_trace_digests_pinned(reconstructed, multiplet, m_max, mode, strategy, digest):
    # The trace records which equation solved each coefficient, in order:
    # a change in candidate order or family shows up here even when the
    # potential itself is unchanged.
    _, trace = reconstructed(multiplet, m_max, mode, strategy)
    assert hashlib.sha256(serialize_trace(trace).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "multiplet, digest",
    [
        ("2,2,3", "19407fd9eba7e8ce953ac5ec2b1383356f68c31c8fe83e3dbc22805e6e04bc5e"),
        ("2,3,4", "eee0a79ed47388f61f41330e54f0475f2fa222d4a8b98742ec15063980e3f0ee"),
    ],
    ids=["223-m2", "234-m2"],
)
def test_fallback_stream_pinned(reconstructed, multiplet, digest):
    # The exhaustive fallback's full candidate stream, element for element,
    # for every stored key of a sealed m=2 potential: order-0 keys exercise
    # the stored-partner phase alone, m >= 1 keys the analytic phase too.
    pot, _ = reconstructed(multiplet, 2)
    h = hashlib.sha256()
    for m in range(3):
        for alpha in of.admissible_keys(pot.geometry, m):
            target = SeriesKey(alpha, m)
            h.update(repr(list(of.exhaustive_candidates(pot, target))).encode())
    assert h.hexdigest() == digest


def test_fallback_proposes_no_identically_zero_equation(reconstructed):
    # WDVV(a, b, b, d) subtracts one product from itself, so a candidate in
    # a quad with b == c can never solve.  The socket table holds every
    # other canonical quad, in canonical order, and no candidate of any
    # admissible target up to order 2 sits in such a quad (on 3,4,5 every
    # 20th target, 62,243 candidates of both phases, to keep it fast).
    from orbifrob.reconstruct import _fallback_sockets

    for multiplet, stride, candidates in (
        ("2,2,3", 1, 2955), ("2,3,4", 1, 55869), ("3,4,5", 20, 62243)
    ):
        pot, _ = reconstructed(multiplet, 2)
        geom = pot.geometry
        # Canonical quads p1 + p2: pairs p1 <= p2 of sorted UNIT-free labels.
        series = [k for k, lab in enumerate(geom.labels) if lab is not UNIT]
        pairs = list(itertools.combinations_with_replacement(series, 2))
        assert _fallback_sockets(pot.packed().layout)[0] == tuple(
            WdvvQuad(*(geom.labels[k] for k in p1 + p2))
            for p1, p2 in itertools.combinations_with_replacement(pairs, 2)
            if p1[1] != p2[0]
        )
        targets = [SeriesKey(alpha, m) for m in range(3) for alpha in of.admissible_keys(geom, m)]
        count = 0
        for target in targets[::stride]:
            for quad, _ in of.exhaustive_candidates(pot, target):
                assert quad.b != quad.c, (multiplet, target, quad)
                count += 1
        assert count == candidates


def test_guided_stream_pinned():
    # The guided candidates of every admissible key up to order 2, element
    # for element, including the many the worklist never probes because an
    # earlier candidate already solved the target.
    h = hashlib.sha256()
    count = 0
    for multiplet in ("2,2,3", "2,3,7", "3,4,5", "4,4,4", "2,2,2,2"):
        geom = of.build_geometry(multiplet)
        for m in range(3):
            for alpha in of.admissible_keys(geom, m):
                candidates = list(of.guided_candidates(geom, SeriesKey(alpha, m)))
                count += len(candidates)
                h.update(repr(candidates).encode())
    # The parent stream of 10,063 candidates minus its 376 in quads with
    # b == c or a == d.
    assert (count, h.hexdigest()) == (
        9687, "d8c869e056946b5e14895ef4f48b2aaf7f0f402aa3e1975b86faa051b0c6f5cf"
    )


def test_guided_stream_proposes_no_identically_zero_equation():
    # WDVV(a, b, b, d) and WDVV(a, b, c, a) vanish whatever the store
    # holds, so a probe in such a quad can never solve.
    for multiplet in ("2,2,3", "2,3,7", "3,4,5", "4,4,4", "2,2,2,2"):
        geom = of.build_geometry(multiplet)
        for m in range(3):
            for alpha in of.admissible_keys(geom, m):
                for quad, _ in of.guided_candidates(geom, SeriesKey(alpha, m)):
                    assert quad.b != quad.c and quad.a != quad.d, (multiplet, alpha, m, quad)


@pytest.mark.parametrize(
    "multiplet, m_max, mode, strategy, calls, digest",
    [
        # Escalates to the fallback.
        # The 162 probes of a stream that still proposed quads with b == c
        # or a == d, less the 16 in those quads.
        ("2,2,3", 4, of.VANISHING_NO_QUARTIC, "guided", 146,
         "22e679c5f34f8a701446bb2b7dc2dc18011351eac1c7573d5b9128f6bf764db6"),
        ("2,3,4", 2, of.STANDARD, "exhaustive", 282,
         "4285524ac62ff2135c98b05074a2bcbc1df5c9d2019ddb5bdd9685089d1d1735"),
        ("2,2,2", 4, of.STANDARD, "guided", 13,
         "f9d406df8ef0cd445394030b7ebe60fe7b291ff3b936bce2029ead01c66afe0c"),
    ],
    ids=["223-m4-no-quartic", "234-m2-exhaustive", "222-m4"],
)
def test_probe_decisions_pinned(monkeypatch, multiplet, m_max, mode, strategy, calls, digest):
    # Every probe the solver makes, with its outcome: which candidates are
    # solved, blocked (and on which key) or useless must not depend on how
    # the store represents known zeros.
    module = sys.modules["orbifrob.reconstruct"]
    probe = module.probe_candidate
    h = hashlib.sha256()
    statuses = []

    def recording(pot, quad, xkey, target):
        r = probe(pot, quad, xkey, target)
        # Rationals enter as text, so the digest holds for either backend.
        value, slope = (None if v is None else of.format_rational(v) for v in (r.value, r.slope))
        h.update(repr((quad, xkey, target, r.status, value, slope, r.blocker)).encode())
        statuses.append(r.status)
        return r

    monkeypatch.setattr(module, "probe_candidate", recording)
    of.reconstruct(multiplet, m_max, mode, strategy=strategy)
    assert len(statuses) == calls
    assert h.hexdigest() == digest
