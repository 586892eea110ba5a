import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbifrob as of
from orbifrob import POINT, SeriesKey, Twisted, WdvvQuad
from orbifrob.cli import main
from orbifrob.formats import serialize_trace
from orbifrob.geometry import partition_counts
from orbifrob.rationals import QQ

from helpers import leave_only_blocked_candidates, leave_only_useless_candidates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reconstruct_writes_potential_and_trace(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    trace = tmp_path / "trace.txt"
    code, out, _ = run(
        capsys, "reconstruct", "-A", "2,2,3", "-m", "3", "-o", str(pot), "--trace", str(trace)
    )
    assert code == 0
    text = pot.read_text()
    assert "(1,1)^1 (2,1)^1 (3,1)^1 | m=1 | 1" in text
    assert trace.read_text().count("solve | ") > 0


def test_reconstruct_to_stdout(capsys):
    code, out, _ = run(capsys, "reconstruct", "-A", "2,2,2", "-m", "1")
    assert code == 0
    assert out.startswith("frobenius-potential v1")


def test_reconstruct_stdout_is_the_potential_file(tmp_path, capsys):
    # The note on free coefficients goes to stderr: stdout is exactly the
    # file -o writes, so it can be piped into a file and verified.
    args = ("reconstruct", "-A", "2,2,3", "-m", "4", "--mode", "vanishing-no-quartic")
    code, out, err = run(capsys, *args)
    assert code == 0
    assert "5 coefficients left free" in err
    pot = tmp_path / "pot.txt"
    assert run(capsys, *args, "-o", str(pot))[0] == 0
    assert out == pot.read_text()
    piped = tmp_path / "piped.txt"
    piped.write_text(out)
    assert run(capsys, "verify", str(piped))[0] == 0


def test_non_ascii_and_non_canonical_numerals_are_rejected(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,3,4", "-m", "2", "-o", str(pot))
    good = pot.read_text()
    record = "(2,1)^3 | m=0 | 1/18"
    assert "max-order: 2\n" in good and record in good
    for bad in (
        good.replace("max-order: 2\n", "max-order: 0_2\n"),
        good.replace(record, "(\u0662,\u0661)^\u0663 | m=0 | 1/18"),  # Arabic-Indic digits
        good.replace(record, "(2,1)^3 | m=0 | 1/-3"),
    ):
        pot.write_text(bad)
        code, out, err = run(capsys, "verify", str(pot))
        assert code == 1 and out == "" and err.startswith("error:")
    pot.write_text(good)
    assert run(capsys, "show", str(pot), "(\u0662,\u0661)^3 m=0")[0] == 1
    assert run(capsys, "show", str(pot), "(2,1)^3 m=\u0660")[0] == 1
    assert run(capsys, "show", str(pot), "(2,1)^3 m=0")[1] == "1/18\n"
    for order in ("\u0662", "0_2"):
        assert run(capsys, "reconstruct", "-A", "2,2,3", "-m", order)[0] == 1
        assert run(capsys, "verify", str(pot), "--max-order", order)[0] == 1
    rescaled = ("reconstruct", "-A", "2,2,3", "-m", "1", "--mode")
    assert run(capsys, *rescaled, "rescaled:\u0663")[0] == 1
    assert run(capsys, *rescaled, "rescaled:-2/3")[0] == 0


def test_reconstruct_usage_errors(capsys):
    assert run(capsys, "reconstruct", "-A", "2", "-m", "1")[0] == 1
    assert run(capsys, "reconstruct", "-A", "2,2,3")[0] == 1
    assert run(capsys, "reconstruct", "-A", "2,2,3", "-m", "1", "--mode", "weird")[0] == 1


def test_verify_fresh_output_passes(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    assert run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))[0] == 0
    code, out, _ = run(capsys, "verify", str(pot))
    assert code == 0
    assert "CHECK euler: PASS" in out
    assert "CHECK symmetry(1,2): PASS" in out
    assert "nonzero-residuals: 0" in out


def test_verify_detects_hand_edit(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    text = pot.read_text()
    assert "-1/96" in text
    pot.write_text(text.replace("-1/96", "-1/97"))
    code, out, _ = run(capsys, "verify", str(pot))
    assert code == 4
    assert "residual |" in out


def test_verify_checks_selection(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    code, out, _ = run(capsys, "verify", str(pot), "--checks", "euler,separation")
    assert code == 0
    assert out.count("CHECK ") == 2
    assert "residual-scan" not in out
    assert run(capsys, "verify", str(pot), "--checks", "bogus")[0] == 1


def test_verify_checks_naming_no_check_is_usage_error(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,2", "-m", "1", "-o", str(pot))
    for value in ("", ",", " ", " , "):
        code, out, err = run(capsys, "verify", str(pot), "--checks", value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


def test_verify_accepts_rescaled_one_header(tmp_path, capsys):
    # Files written before rescaled:1 was spelled standard still verify.
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    text = pot.read_text()
    assert "\nmode: standard\n" in text
    pot.write_text(text.replace("\nmode: standard\n", "\nmode: rescaled:1\n"))
    code, out, _ = run(capsys, "verify", str(pot))
    assert code == 0
    assert "CHECK vanishing" not in out


def test_verify_vanishing_mode_runs_vanishing_check(tmp_path, capsys):
    pot = tmp_path / "van.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "--mode", "vanishing", "-o", str(pot))
    code, out, _ = run(capsys, "verify", str(pot))
    assert code == 0
    assert "CHECK vanishing: PASS" in out


def test_verify_checks_the_selection_rule_by_default(tmp_path, capsys):
    path = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "3,3,3", "-m", "2", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--checks", "selection")
    assert (code, out) == (0, "CHECK selection: PASS\n")
    assert "CHECK selection: PASS" in run(capsys, "verify", str(path))[1]
    # A nonzero value at an admissible key of charge 1 != m = 0 in
    # sector 1 (and 2 in sector 2): the check fails and names the key.
    pot = of.read_potential(path)
    bad = SeriesKey(of.alpha_from_pairs(pot.geometry, {(1, 1): 1, (2, 2): 1, (3, 2): 3}), 0)
    assert of.is_admissible(pot.geometry, bad) and bad not in pot.coeffs
    broken = of.Potential(pot.geometry, pot.seed_mode)
    for key, value in {**pot.coeffs, bad: QQ(3, 7)}.items():
        broken.set_coefficient(key, value)
    broken.seal(pot.max_order)
    of.write_potential(broken, path)
    code, out, _ = run(capsys, "verify", str(path), "--checks", "selection")
    assert code == 4
    assert out == "CHECK selection: FAIL [(1,1)^1 (2,2)^1 (3,2)^3 | m=0]\n"


def test_verify_checks_the_seeds_against_the_mode_header(tmp_path, capsys):
    path = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,3,4", "-m", "3", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--checks", "seeds")
    assert (code, out) == (0, "CHECK seeds: PASS\n")
    assert "CHECK seeds: PASS" in run(capsys, "verify", str(path))[1]
    # Rescaling keeps every WDVV equation, so only the seeds tell that the
    # degree-one value 2 contradicts a standard header.
    of.write_potential(of.rescale_novikov(of.read_potential(path), 2), path)
    text = path.read_text()
    assert "\nmode: rescaled:2\n" in text
    path.write_text(text.replace("\nmode: rescaled:2\n", "\nmode: standard\n"))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 4
    assert "CHECK seeds: FAIL [(1,1)^1 (2,1)^1 (3,1)^1 | m=1 | degree-one]" in out.splitlines()
    code, out, _ = run(capsys, "verify", str(path), "--checks", "seeds,wdvv")
    assert code == 4
    assert out.splitlines()[0] == "CHECK seeds: FAIL [(1,1)^1 (2,1)^1 (3,1)^1 | m=1 | degree-one]"
    assert "nonzero-residuals: 0" in out


def test_a_potential_built_without_a_mode_rescales_to_a_file_that_verifies(tmp_path, capsys):
    # A potential made without a seed mode has the standard one, so its
    # rescaling is written as rescaled:2 and agrees with its seeds.
    pot, _ = of.reconstruct("2,3,4", 3)
    bare = of.Potential(pot.geometry)
    for key, value in pot.coeffs.items():
        bare.set_coefficient(key, value)
    bare.seal(pot.max_order)
    path = tmp_path / "pot.txt"
    of.write_potential(of.rescale_novikov(bare, 2), path)
    assert "\nmode: rescaled:2\n" in path.read_text()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0, out
    assert "CHECK seeds: PASS" in out.splitlines()


def test_show(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    code, out, _ = run(capsys, "show", str(pot), "(1,1)^4 m=0")
    assert code == 0 and out.strip() == "-1/96"
    code, out, _ = run(capsys, "show", str(pot), "(3,1)^2 (3,2)^2 m=0")
    assert code == 0 and out.strip() == "-1/36"
    code, out, _ = run(capsys, "show", str(pot), "(1,1)^2 (2,1)^1 (3,1)^1 m=1")
    assert code == 0 and out.strip() == "0"
    assert run(capsys, "show", str(pot), "gibberish")[0] == 1


def test_show_refuses_orders_beyond_max_order(tmp_path, capsys):
    # (1,1)^2 m=3 is admissible on 2,2,3, but a file complete to m=2 does
    # not know it: an unknown must not be reported as zero.
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    code, out, err = run(capsys, "show", str(pot), "(1,1)^2 m=3")
    assert code == 1
    assert out == ""
    assert "max-order 2" in err
    assert run(capsys, "show", str(pot), "(1,1)^2 (2,1)^2 m=2")[0] == 0


def test_verify_rejects_negative_max_order(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    code, out, err = run(capsys, "verify", str(pot), "--max-order", "-1")
    assert code == 1
    assert "targets-checked" not in out
    assert "error:" in err
    text = pot.read_text()
    assert "max-order: 2\n" in text
    pot.write_text(text.replace("max-order: 2\n", "max-order: -1\n"))
    assert run(capsys, "verify", str(pot))[0] == 1
    assert run(capsys, "show", str(pot), "(1,1)^4 m=0")[0] == 1



def _add_record(text, record):
    head, _, body = text.partition("coefficients: ")
    count, _, records = body.partition("\n")
    return f"{head}coefficients: {int(count) + 1}\n{records}{record}\n"


def test_records_outside_the_order_range_are_rejected(tmp_path, capsys):
    # On 2,3,7 (chi < 0) a record of order -1 obeys the Euler constraint;
    # it must be refused on load, not crash the scan.
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,3,7", "-m", "1", "-o", str(pot))
    good = pot.read_text()
    pot.write_text(_add_record(good, "(1,1)^1 (2,2)^1 (3,3)^2 | m=-1 | 5"))
    code, out, err = run(capsys, "verify", str(pot))
    assert code == 1
    assert out == "" and err.startswith("error:") and "m=-1" in err
    assert run(capsys, "show", str(pot), "(1,1)^1 (2,1)^1 (3,1)^1 m=1")[0] == 1
    # A record above the header's max-order is refused too, also with a
    # zero value (files never hold zeros, but a hand edit may).
    for record in ("(1,1)^1 (2,1)^1 (3,1)^1 | m=2 | 1", "(3,1)^1 | m=9 | 0"):
        pot.write_text(_add_record(good, record))
        code, out, err = run(capsys, "verify", str(pot), "--checks", "wdvv")
        assert code == 1
        assert out == "" and "max-order 1" in err
    # A zero record is checked against the Euler constraint as well.
    pot.write_text(_add_record(good, "(3,1)^1 | m=1 | 0"))
    code, out, err = run(capsys, "verify", str(pot))
    assert code == 1
    assert out == "" and "Euler constraint" in err


def test_verify_refuses_a_scan_order_above_the_file_before_any_report(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,3,4", "-m", "3", "-o", str(pot))
    code, out, err = run(capsys, "verify", str(pot), "--max-order", "9")
    assert code == 1
    assert out == ""
    assert err == "error: potential is complete up to order 3, cannot scan to 9\n"


def test_verify_caps_the_scan_at_two_over_chi(tmp_path, capsys):
    # chi(2,3,4) = 1/12: no key is admissible above m = 24, so a huge
    # max-order header must not make the scan or its output grow.
    pot = tmp_path / "pot.txt"
    pot.write_text(
        "frobenius-potential v1\nmultiplet: 2,3,4\nmode: standard\n"
        "max-order: 1000000\ncoefficients: 0\n"
    )
    code, out, _ = run(capsys, "verify", str(pot), "--checks", "wdvv")
    assert code == 0
    assert len(out.encode()) < 2048
    counted = out.split("targets-checked: ")[1].splitlines()[0]
    assert counted.split(", ")[-1].startswith("m=24: ")
    assert "nonzero-residuals: 0" in out
    # reconstruct -m 9 on 2,2,2 (chi = 1/2) writes max-order 4, which is
    # complete: a scan to 9 checks the same equations.
    run(capsys, "reconstruct", "-A", "2,2,2", "-m", "9", "-o", str(pot))
    code, out, _ = run(capsys, "verify", str(pot), "--checks", "wdvv", "--max-order", "9")
    assert code == 0
    assert "m-max=4" in out

def test_runaway_sizes_exit_1_before_any_work(tmp_path, capsys, monkeypatch):
    # 3,4,5 has 2,729,795 admissible keys up to m=40 and 13,14,15 has
    # 1,114,438 up to m=1, above MAX_KEYS: reconstruct refuses before
    # seeding, whose stream lists every key of orders 0 and 1, and verify
    # before printing any report.  One large order fails on its own sector's
    # order-0 keys from order 31 on, before the geometry lists its labels,
    # in every subcommand.  Listing a key, in the solver or in the seed
    # stream, fails the test, so a missing guard cannot start the run.
    def refuse(*args):
        raise AssertionError("keys listed past the guard")

    for module in ("orbifrob.reconstruct", "orbifrob.series"):
        monkeypatch.setattr(importlib.import_module(module), "admissible_keys", refuse)
    code, out, err = run(capsys, "reconstruct", "-A", "3,4,5", "-m", "40")
    assert (code, out) == (1, "")
    assert err == (
        "error: 3,4,5 has more than 1000000 admissible keys up to order 40"
        " (2729795 up to order 40)\n"
    )
    # The keys of orders 0 and 1 that obey the selection rule, counted
    # without the lcm of the orders, refuse 13,14,15 and the orders with a
    # huge lcm before the whole count, a DP over 2 lcm, which took 7-9 s
    # on the next two and ran past 40 s on the last.  It must not run.
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("orbifrob.series"), "admissible_key_count", refuse)
        for multiplet, count in (
            ("13,14,15", 1114438),
            ("23,25,27,29", 14293422163590),
            ("2,3,5,7,11,13,17", 82251925),
            ("2,3,5,7,11,13,17,19", 31638068599),
        ):
            code, out, err = run(capsys, "reconstruct", "-A", multiplet, "-m", "1")
            assert (code, out) == (1, "")
            assert err == (
                f"error: {multiplet} has more than 1000000 admissible keys up to order 1"
                f" (at least {count} up to order 1)\n"
            )
    # Many small sectors: the count's cost grows with r only linearly.
    # 3000 twos have 4,501,501 keys of orders 0 and 1 that obey the rule,
    # refused without the DP; 300 twos only 45,151, so the DP over
    # 2 lcm = 4 refuses them, with its own count.
    twos = ",".join(["2"] * 3000)
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("orbifrob.series"), "admissible_key_count", refuse)
        code, out, err = run(capsys, "reconstruct", "-A", twos, "-m", "1")
    assert (code, out) == (1, "")
    assert err.endswith(" up to order 1 (at least 4501501 up to order 1)\n")
    code, out, err = run(capsys, "reconstruct", "-A", twos[:599], "-m", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {twos[:599]} has more than 1000000 admissible keys")
    assert "at least" not in err
    for multiplet, count in (
        ("2,3,31", 1044986),
        ("17,19,1723", 285412031),
        ("2,3,20000", 133353334),
        ("2,3,100000000", 3333333433333334),
    ):
        code, out, err = run(capsys, "reconstruct", "-A", multiplet, "-m", "1")
        assert (code, out) == (1, "")
        assert err == (
            f"error: {multiplet} has more than 1000000 admissible keys of order 0"
            f" (at least {count} on one sector)\n"
        )
    pot = tmp_path / "pot.txt"
    for multiplet, m_max in (
        ("3,4,5", 40), ("2,3,7", 200000), ("2,3,31", 1), ("2,3,100000000", 1)
    ):
        pot.write_text(
            f"frobenius-potential v1\nmultiplet: {multiplet}\nmode: standard\n"
            f"max-order: {m_max}\ncoefficients: 0\n"
        )
        argvs = [("verify", str(pot))]
        if multiplet in ("2,3,31", "2,3,100000000"):  # no geometry for show or diff
            argvs += [("show", str(pot), "(1,1)^1 m=0"), ("diff", str(pot), str(pot))]
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {multiplet} has more than 1000000 admissible keys")


def test_orders_with_a_huge_lcm_are_counted_on_short_tables(tmp_path, capsys, monkeypatch):
    # 2,3,5,...,19 has 331,699 keys of order 0 and 2,2,3,5,...,19 has
    # 333,627, within MAX_KEYS, so the guard counts them whole.  A count
    # over the degrees scaled by the lcm (9,699,690) held 19,399,381
    # entries and ran past 10 s; the count by the coprime parts of the
    # orders reads no table longer than 2 * 19 + 1.
    series = importlib.import_module("orbifrob.series")
    sizes = []

    def recorded(*args, **kwargs):
        ways = partition_counts(*args, **kwargs)
        sizes.append(len(ways))
        return ways

    monkeypatch.setattr(series, "partition_counts", recorded)
    pot = tmp_path / "pot.txt"
    for multiplet, count in (("2,3,5,7,11,13,17,19", 331699), ("2,2,3,5,7,11,13,17,19", 333627)):
        assert series.admissible_key_count(of.build_geometry(multiplet), 0) == count
        pot.write_text(
            f"frobenius-potential v1\nmultiplet: {multiplet}\nmode: standard\n"
            "max-order: 0\ncoefficients: 0\n"
        )
        assert run(capsys, "verify", str(pot), "--checks", "euler") == (0, "CHECK euler: PASS\n", "")
    assert sizes and max(sizes) <= 2 * 19 + 1


def test_seeds_check_lists_no_order1_key_past_the_length_bound(tmp_path, capsys, monkeypatch):
    # 13,14,15 has 1,049,895 keys of order 1, of which the seeds need only
    # those of length <= 3 (degree-one-support; here the product key
    # alone): a walk bounded by length lists them, so the seeds check of a
    # max-order 0 file lists no key of order 1.  The file holds the limit
    # cubics alone, and every other seed of order 0 is a zero.
    series = importlib.import_module("orbifrob.series")
    listed = series.admissible_keys

    def order0_only(geom, m):
        assert m != 1, "keys of order 1 listed"
        return listed(geom, m)

    monkeypatch.setattr(series, "admissible_keys", order0_only)
    geom = of.build_geometry("13,14,15")
    seeds = list(of.seed_entries(geom, of.STANDARD))
    assert [family for key, _, family in seeds if key.m == 1] == ["degree-one"]
    pot = of.Potential(geom)
    for key, value, family in seeds:
        if family == "limit-cubic":
            pot.set_coefficient(key, value)
    pot.seal(0)
    path = tmp_path / "pot.txt"
    of.write_potential(pot, path)
    assert run(capsys, "verify", str(path), "--checks", "seeds") == (0, "CHECK seeds: PASS\n", "")


def test_reconstruct_trace_file_is_the_library_trace(tmp_path, capsys):
    # The escalating no-quartic run: its trace has pairing, seed, solve and
    # free lines, and the CLI writes formats.serialize_trace of it.
    path = tmp_path / "trace.txt"
    argv = ("-A", "2,2,3", "-m", "4", "--mode", "vanishing-no-quartic", "--trace", str(path))
    assert run(capsys, "reconstruct", *argv)[0] == 0
    _, trace = of.reconstruct("2,2,3", 4, of.VANISHING_NO_QUARTIC)
    text = serialize_trace(trace)
    assert path.read_text() == text
    heads = {line.split(" | ")[0] for line in text.splitlines()[1:]}
    assert heads == {"seed", "solve", "free"} and text.count(" | pairing\n") > 0


def test_diff(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(a))
    assert run(capsys, "diff", str(a), str(a))[0] == 0
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "--mode", "vanishing", "-o", str(b))
    code, out, _ = run(capsys, "diff", str(a), str(b))
    assert code == 4
    assert "(1,1)^1 (2,1)^1 (3,1)^1 | m=1" in out


def test_diff_compares_up_to_the_smaller_max_order(tmp_path, capsys):
    # The m=2 file knows nothing at m=3, so the m=3 records of the m=4
    # file are not differences.
    low = tmp_path / "low.txt"
    high = tmp_path / "high.txt"
    run(capsys, "reconstruct", "-A", "2,3,7", "-m", "2", "-o", str(low))
    run(capsys, "reconstruct", "-A", "2,3,7", "-m", "4", "-o", str(high))
    for pair in ((low, high), (high, low)):
        assert run(capsys, "diff", *map(str, pair)) == (
            0, "potentials agree up to order 2\n", ""
        )
    edited = high.read_text().replace("| m=2 | 1/7\n", "| m=2 | 2/7\n", 1)
    assert edited != high.read_text()
    high.write_text(edited)
    code, out, _ = run(capsys, "diff", str(low), str(high))
    assert code == 4
    assert out.startswith("first difference: ") and "| m=2: 1/7 vs 2/7" in out


def test_diff_standard_vs_rescaled_one(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(a))
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "--mode", "rescaled:1", "-o", str(b))
    assert run(capsys, "diff", str(a), str(b))[0] == 0
    # The two tokens name the same seeds, so the files are identical.
    assert a.read_text() == b.read_text()


def test_strategy_flag_produces_identical_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(a))
    run(
        capsys,
        "reconstruct", "-A", "2,2,3", "-m", "2", "--strategy", "exhaustive", "-o", str(b),
    )
    assert a.read_text() == b.read_text()


def test_missing_file_is_usage_error(capsys):
    assert run(capsys, "verify", "/nonexistent/path.txt")[0] == 1
    assert run(capsys, "show", "/nonexistent/path.txt", "1 m=0")[0] == 1


def test_verify_rejects_a_duplicate_record(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    good = pot.read_text()
    pot.write_text(_add_record(good, good.splitlines()[5]))
    code, out, err = run(capsys, "verify", str(pot))
    assert code == 1
    assert out == "" and err.startswith("error: duplicate record for ")


def test_verify_runs_each_named_check_once(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    code, out, _ = run(capsys, "verify", str(pot), "--checks", "euler,euler,wdvv,wdvv")
    assert code == 0
    assert out.count("CHECK euler: PASS") == 1
    assert out.count("residual-scan:") == 1
    code, out, _ = run(capsys, "verify", str(pot), "--checks", "symmetry,symmetry")
    assert code == 0
    assert out == "CHECK symmetry(1,2): PASS\n"
    # Order of first mention.
    code, out, _ = run(capsys, "verify", str(pot), "--checks", "separation,euler,separation")
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "CHECK separation", "CHECK euler",
    ]


@pytest.mark.parametrize(
    "multiplet, m_max, mode, digest",
    [
        ("2,3,4", "3", "standard", "518dc850721279aa1bcd722a770887a2e89220e6aadfe6c2067791a724346a89"),
        (
            "2,2,3",
            "4",
            "vanishing-no-quartic",
            "fced60df621b1a522af971fb43338f28a8e449c898b0b19b5c1ce94d97a7689e",
        ),
        ("3,3,3", "2", "vanishing", "11fe43cbe2f30940010ca6a28e7b5a71f6d36e5142f4fb0f0f1cd76e9fd008f5"),
        # r = 4 with equal orders: six S_4 symmetry lines.
        ("3,3,3,3", "2", "standard", "0a070f4ba0b964f9986a8419a93c9d32587c6217322291211fc2051a30bced34"),
    ],
)
def test_verify_stdout_pinned(tmp_path, capsys, multiplet, m_max, mode, digest):
    # sha256 of the whole verify report: every check line, the scan's
    # counts and the residual total.
    pot = tmp_path / "pot.txt"
    args = ("reconstruct", "-A", multiplet, "-m", m_max, "--mode", mode, "-o", str(pot))
    assert run(capsys, *args)[0] == 0
    code, out, _ = run(capsys, "verify", str(pot))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_reconstruct_undetermined_quartics_exit_2(capsys):
    code, out, err = run(
        capsys,
        "reconstruct", "-A", "2,2,2,2,2", "-m", "2", "--mode", "vanishing-no-quartic",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "solver stuck: no candidate determines: (1,1)^4 | m=0, (2,1)^4 | m=0,"
        " (3,1)^4 | m=0, (4,1)^4 | m=0, (5,1)^4 | m=0\n"
    )


def test_reconstruct_no_progress_exits_2(monkeypatch, capsys):
    leave_only_blocked_candidates(monkeypatch)
    code, out, err = run(capsys, "reconstruct", "-A", "2,3,4", "-m", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("solver stuck: worklist deadlock on: ")


def test_reconstruct_solver_stuck_exits_2(monkeypatch, capsys):
    leave_only_useless_candidates(monkeypatch)
    code, out, err = run(capsys, "reconstruct", "-A", "2,2,3", "-m", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("solver stuck: no candidate determines: ")


@pytest.mark.parametrize("module", ["orbifrob", "orbifrob.cli"])
def test_module_run_as_a_program_exits_with_the_code(tmp_path, capsys, module):
    # The other tests call main() in-process; this one runs the module, so
    # the exit status comes from sys.exit(main()).
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,2,3", "-m", "2", "-o", str(pot))
    pot.write_text(pot.read_text().replace("-1/96", "-1/97"))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", str(pot)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 4
    assert "residual |" in done.stdout and done.stderr == ""


def test_inconsistent_seeds_exit_3(monkeypatch, capsys):
    # No CLI input is known to reach an inconsistent system, so the
    # solver is replaced by one that reports a contradiction.
    geom = of.build_geometry("2,2,2")
    quad = WdvvQuad(Twisted(1, 1), Twisted(1, 1), POINT, POINT)
    xkey = SeriesKey(of.zero_alpha(geom), 1)

    def contradiction(*args, **kwargs):
        raise of.InconsistentSeed(geom, quad, xkey, QQ(1, 2))

    # The CLI imports the solver when reconstruct runs: patch its module.
    solver = importlib.import_module("orbifrob.reconstruct")
    monkeypatch.setattr(solver, "reconstruct", contradiction)
    code, out, err = run(capsys, "reconstruct", "-A", "2,2,2", "-m", "1")
    assert code == 3
    assert out == ""
    assert err == (
        "inconsistent seeds: equation ((1,1),(1,1),tmu,tmu) at 1 | m=1 "
        "evaluates to 1/2 != 0\n"
    )


# Runs main(argv) in a fresh interpreter (none when argv is empty), then
# prints its exit code and the orbifrob modules loaded by then.
_LOADED_BY = (
    "import sys, orbifrob.cli\n"
    "argv = sys.argv[1:]\n"
    "code = orbifrob.cli.main(argv) if argv else 0\n"
    "print(code, *sorted(name for name in sys.modules if name.startswith('orbifrob.')))\n"
)


def _loaded_by(*argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), {name.removeprefix("orbifrob.") for name in modules}


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, capsys):
    pot = tmp_path / "pot.txt"
    run(capsys, "reconstruct", "-A", "2,3,4", "-m", "2", "-o", str(pot))
    assert _loaded_by() == (0, {"cli", "rationals"})
    code, loaded = _loaded_by("verify", str(pot))
    assert code == 0 and "reconstruct" not in loaded, loaded
    out = str(tmp_path / "out.txt")
    code, loaded = _loaded_by("reconstruct", "-A", "2,2,2", "-m", "1", "-o", out)
    assert code == 0 and "verify" not in loaded, loaded
    assert "wdvv" not in loaded, loaded
    for argv in (("show", str(pot), "(1,1)^1 (2,1)^1 (3,1)^1 m=1"), ("diff", str(pot), str(pot))):
        code, loaded = _loaded_by(*argv)
        assert code == 0 and not loaded & {"reconstruct", "verify", "wdvv"}, (argv, loaded)
