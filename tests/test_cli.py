"""Command line round trips, exit codes, and output formats."""

import copy
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cli_runner
import treeball
from child_rss import _run_child
from random_balls import random_ball_aut
from recursive_balls import RecursiveBallAut
from treeball import errors
from treeball.balls import BallAut, ball_points
from treeball.cli import _fmt_count, main
from treeball.constructions import build_full_lift, radius_one
from treeball.documents import (GroupDocument, document_from_group,
                                group_from_document, parse_document,
                                save_document, serialize_document)
from treeball.errors import CapacityError, DocumentError
from treeball.permcore import Perm

GOLDEN = pathlib.Path(__file__).parent / "golden" / "s3_table.txt"
DIGESTS = pathlib.Path(__file__).parent / "golden" / "stdout_sha256.txt"


@pytest.fixture()
def runner():
    return cli_runner


@pytest.fixture()
def diagonal_doc(tmp_path, gamma_s3):
    path = tmp_path / "diagonal.json"
    save_document(document_from_group(gamma_s3), path)
    return str(path)


@pytest.fixture()
def parity_doc(tmp_path, pi_one):
    path = tmp_path / "parity.json"
    save_document(document_from_group(pi_one), path)
    return str(path)


@pytest.fixture()
def full_doc(tmp_path, phi_s3):
    path = tmp_path / "full.json"
    save_document(document_from_group(phi_s3), path)
    return str(path)


def test_construct_writes_a_loadable_document(runner, tmp_path, gamma_s3):
    out = tmp_path / "gamma.json"
    res = runner.invoke(main, ["construct", "diagonal", "S3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = parse_document(out.read_text())
    assert doc.degree == 3
    assert doc.radius == 2
    res = runner.invoke(main, ["check-c", "--in", str(out)])
    assert res.exit_code == 0
    assert "C: yes" in res.output


def test_construct_parity_matches_library_builder(runner, tmp_path, pi_one):
    out = tmp_path / "pi.json"
    res = runner.invoke(main, ["construct", "parity", "S3",
                               "--spheres", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    group = group_from_document(parse_document(out.read_text()))
    assert set(group.elements) == set(pi_one.elements)


def test_construct_wreath(runner, tmp_path):
    out = tmp_path / "w.json"
    res = runner.invoke(main, ["construct", "wreath", "C2", "--top", "C2",
                               "--out", str(out), "--format", "json"])
    assert res.exit_code == 0, res.output
    group = group_from_document(parse_document(out.read_text()))
    assert group.order == 32
    assert group.degree == 4


def test_construct_rejects_unknown_groups(runner):
    res = runner.invoke(main, ["construct", "diagonal", "Q8"])
    assert res.exit_code == 2
    assert "unknown group" in res.output


@pytest.mark.parametrize("args", [
    ["census", "--degree", "x", "--radius", "1"],
    ["census", "--degree", "3"],
    ["--format", "xml"],
    ["bogus"],
    [],
    ["construct", "diagonal", "Q8"],
    ["construct", "diagonal", "S1"],
    ["construct", "wreath", "S3"],
    ["tower", "pinned-orbit", "--steps", "0"],
    ["census", "--deg", "3", "--radius", "2"],
], ids=lambda args: " ".join(args) or "no command")
def test_unusable_command_lines_exit_two_with_one_error_line(runner, args):
    # option errors from the parser end at the same boundary as the
    # library's own: no usage block
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (2, "")
    [line] = res.stderr.splitlines()
    assert line.startswith("Error: ")


@pytest.mark.parametrize("args, path", [
    (["construct", "diagonal", "S3", "--out"], "missing/x.json"),
    (["construct", "diagonal", "S3", "--out"], "."),
    (["check-c", "--in"], "missing.json"),
    (["check-c", "--in"], "."),
], ids=["out-in-missing-dir", "out-dir", "in-missing", "in-dir"])
def test_unusable_paths_exit_two_naming_the_path(runner, tmp_path, args,
                                                 path):
    path = str(tmp_path / path)
    res = runner.invoke(main, args + [path])
    assert (res.exit_code, res.stdout) == (2, "")
    [line] = res.stderr.splitlines()
    assert line.startswith("Error: ") and repr(path) in line


def test_a_closed_pipe_ends_a_command_quietly_with_exit_one():
    src = str(pathlib.Path(treeball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-m", "treeball.cli",
                              "s3-table"], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    child.stdout.close()    # before the table is computed, let alone written
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (1, b"")


def test_expect_flag_turns_disagreement_into_exit_one(runner, diagonal_doc,
                                                      full_doc):
    assert runner.invoke(main, ["check-d", "--in", diagonal_doc,
                                "--expect", "yes"]).exit_code == 0
    assert runner.invoke(main, ["check-d", "--in", diagonal_doc,
                                "--expect", "no"]).exit_code == 1
    assert runner.invoke(main, ["check-d", "--in", full_doc,
                                "--expect", "no"]).exit_code == 0
    assert runner.invoke(main, ["discrete", "--in", full_doc,
                                "--expect", "yes"]).exit_code == 1


def test_malformed_documents_exit_two(runner, tmp_path):
    empty = tmp_path / "empty-group.json"
    empty.write_text(json.dumps({
        "degree": 3, "radius": 2, "encoding": "flat-word-map",
        "elements": [], "metadata": {}}))
    res = runner.invoke(main, ["check-c", "--in", str(empty)])
    assert res.exit_code == 2
    assert "empty" in res.output
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert runner.invoke(main, ["classify", "--in",
                                str(garbage)]).exit_code == 2
    missing = tmp_path / "nope.json"
    assert runner.invoke(main, ["check-c", "--in",
                                str(missing)]).exit_code == 2


@pytest.mark.parametrize("where", ["bare", "metadata"])
def test_deeply_nested_json_exits_two_with_one_line(runner, tmp_path,
                                                    gamma_s3, where):
    # past the decoder's recursion limit: a bare nest of lists, and one in
    # the metadata of a document that reads as canonical up to it
    if where == "bare":
        text = "[" * 100000 + "]" * 100000
    else:
        text = serialize_document(document_from_group(gamma_s3)).replace(
            '"metadata": {}',
            '"metadata": {"nest": %s}' % ("[" * 50000 + "]" * 50000), 1)
    path = tmp_path / "deep.json"
    path.write_text(text)
    res = runner.invoke(main, ["check-c", "--in", str(path)])
    assert res.exit_code == 2 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("Error: not valid JSON: ")


def test_non_group_element_list_exits_two_with_one_line(runner, tmp_path):
    lone = tmp_path / "transposition.json"
    lone.write_text(json.dumps({
        "degree": 3, "radius": 1, "encoding": "flat-word-map",
        "elements": [{"0": "1", "1": "0", "2": "2"}], "metadata": {}}))
    res = runner.invoke(main, ["check-c", "--in", str(lone)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == ["Error: element set is not a group"]
    assert "Traceback" not in res.output


def _counted(mul, products):
    def counted(a, b):
        products.append(1)
        return mul(a, b)
    return counted


def test_non_group_radius_four_document_fails_fast(runner, tmp_path,
                                                   monkeypatch):
    rng = random.Random(7)
    auts = [random_ball_aut(3, 4, rng) for _ in range(2)]
    path = tmp_path / "two-random.json"
    path.write_text(serialize_document(GroupDocument(
        3, 4, elements=tuple([auts[0].identity(3, 4)] + auts))))
    products = []
    for kind in (BallAut, Perm):
        monkeypatch.setattr(kind, "__mul__", _counted(kind.__mul__, products))
    res = runner.invoke(main, ["check-c", "--in", str(path)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == ["Error: element set is not a group"]
    # the two generate a group of order 24576; rejecting the list must not
    # build it first, as automorphisms or as permutations
    assert len(products) < 300


def test_capacity_error_while_loading_exits_two(runner, monkeypatch,
                                                diagonal_doc):
    def too_large(doc):
        raise CapacityError("closure exceeded cap of 500000")

    monkeypatch.setattr("treeball.cli.group_from_document", too_large)
    res = runner.invoke(main, ["check-c", "--in", diagonal_doc])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        "Error: closure exceeded cap of 500000"]


@pytest.mark.parametrize("args, closing", [
    (["construct", "diagonal", "S5"],
     "closing 2 generators, permutations of degree 5"),
    (["construct", "wreath", "S3", "--top", "C2"],
     "closing 9 generators, automorphisms of the radius-2 ball of degree 6"),
])
def test_closure_refusal_names_what_was_closed(runner, monkeypatch, args,
                                               closing):
    monkeypatch.setattr(errors, "CLOSURE_CAP", 100)
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (2, "")
    assert len(res.stderr.splitlines()) == 1
    assert re.fullmatch(r"Error: closure exceeded cap of 100 after reaching "
                        r"\d+ elements, %s\n" % closing, res.stderr)


def test_pk_local_refusal_names_the_order(runner, full_doc):
    # the radius-4 full lift of full-lift(S_3) has 3072 * 16^3 elements
    res = runner.invoke(main, ["pk-local", "--in", full_doc,
                               "--target", "4"])
    assert res.exit_code == 2
    assert "12582912" in res.stderr
    assert "Traceback" not in res.output


def test_construct_summary_does_not_build_the_document(runner, monkeypatch):
    def refuse(doc):
        raise AssertionError("the text summary serialized a document")

    monkeypatch.setattr("treeball.cli.serialize_document", refuse)
    res = runner.invoke(main, ["construct", "full-lift", "S3"])
    assert res.exit_code == 0, res.output
    assert res.output == "full-lift(S3): degree 3 radius 2 order 48\n"


def test_fmt_count_at_the_int64_edge():
    assert _fmt_count(2 ** 63 - 1) == "9223372036854775807"
    assert _fmt_count(2 ** 63) == "2^63"


@given(st.lists(st.integers(min_value=0, max_value=120), min_size=4,
                max_size=4))
def test_fmt_count_matches_sympy(exponents):
    n = 1
    for prime, exp in zip((2, 3, 5, 7), exponents):
        n *= prime ** exp
    assume(n >= 2 ** 63)
    expected = " * ".join("%d^%d" % (p, e) if e > 1 else str(p)
                          for p, e in sorted(sympy.factorint(n).items()))
    assert _fmt_count(n) == expected


def test_classify_json(runner, parity_doc):
    res = runner.invoke(main, ["classify", "--in", parity_doc,
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["transitive"] is True
    assert report["primitive"] is True
    assert report["degree"] == 3


def test_ccore_json_is_a_document(runner, full_doc):
    res = runner.invoke(main, ["ccore", "--in", full_doc,
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    doc = parse_document(res.output)
    assert doc.metadata["construction"] == "compatibility core"
    res_text = runner.invoke(main, ["ccore", "--in", full_doc])
    assert "core order: 48" in res_text.output


def test_cocycles_counts_and_expectations(runner, parity_doc, full_doc):
    res = runner.invoke(main, ["cocycles", "--in", parity_doc])
    assert res.exit_code == 0
    assert "involutive cocycles: 8" in res.output
    assert runner.invoke(main, ["cocycles", "--in", parity_doc,
                                "--expect", "yes"]).exit_code == 0
    assert runner.invoke(main, ["cocycles", "--in", full_doc,
                                "--expect", "yes"]).exit_code == 1


def test_count_restrictions_exact_and_factored(runner, full_doc):
    res = runner.invoke(main, ["count-restrictions", "--in", full_doc,
                               "--ball", "3", "--stabilizer"])
    assert res.exit_code == 0
    assert "3072" in res.output
    res = runner.invoke(main, ["count-restrictions", "--in", full_doc,
                               "--ball", "7", "--stabilizer",
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["count"] is None
    assert payload["factored"].startswith("48")
    res = runner.invoke(main, ["count-restrictions", "--in", full_doc,
                               "--ball", "3"])
    assert res.exit_code == 2


def test_count_restrictions_counts_once(runner, full_doc, monkeypatch):
    # past 2**63 the factors come from the same count, not a second one
    calls = []
    count = treeball.universal._restriction_count

    def counted(group, radius):
        calls.append(radius)
        return count(group, radius)

    monkeypatch.setattr("treeball.cli._restriction_count", counted)
    factored = " * ".join(["48"] + ["4^%d" % 2 ** i for i in range(5)
                                    for _ in range(3)])
    args = ["count-restrictions", "--in", full_doc, "--ball", "7",
            "--stabilizer"]
    res = runner.invoke(main, args)
    assert (res.exit_code, res.output) == (0, "count: %s\n" % factored)
    assert calls == [7]
    res = runner.invoke(main, args + ["--format", "json"])
    assert res.output == json.dumps({"count": None,
                                     "factored": factored}) + "\n"
    assert calls == [7, 7]


def test_count_restrictions_factors_without_the_huge_product(full_doc):
    # 4^(2^37) alone has 2^38 bits; the count stops multiplying at 2**63,
    # so the factors print within a 1 GiB address space
    factored = " * ".join(["48"] + ["4^%d" % 2 ** i for i in range(38)
                                    for _ in range(3)])
    out, err, code, _ = _run_child(
        "count-restrictions", "--in", full_doc, "--ball", "40",
        "--stabilizer", address_space=2 ** 30)
    assert (code, out, err) == (0, "count: %s\n" % factored, "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter prints integers of any size")
def test_count_restrictions_refuses_an_unprintable_exponent(full_doc):
    # the radius-20000 count has the factor exponent 2^19997, of 6,020
    # digits: one line naming the radius and the limit, decided up front
    start = time.perf_counter()
    out, err, code, _ = _run_child(
        "count-restrictions", "--in", full_doc, "--ball", "20000",
        "--stabilizer")
    took = time.perf_counter() - start
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("Error: restriction count at radius 20000: ")
    assert "more than %d digits" % sys.get_int_max_str_digits() in line
    assert took < 3


def test_count_restrictions_reports_a_bad_document_first(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    res = runner.invoke(main, ["count-restrictions", "--in", str(bad),
                               "--ball", "3"])
    assert res.exit_code == 2
    assert res.stderr.startswith("Error: not valid JSON")


def test_pk_local_round_trip(runner, diagonal_doc, gamma_s3):
    res = runner.invoke(main, ["pk-local", "--in", diagonal_doc,
                               "--target", "3", "--format", "json"])
    assert res.exit_code == 0, res.output
    doc = parse_document(res.output)
    assert doc.radius == 3
    lifted = group_from_document(doc)
    assert lifted.order == 6
    assert lifted.project(2) == gamma_s3


def test_pk_local_lift_prints_the_generators_its_steps_glue(runner, tmp_path,
                                                           s3):
    path = tmp_path / "s3.json"
    save_document(document_from_group(radius_one(s3)), path)
    # the lift of the group the command reads, with the same generators
    lifted = build_full_lift(group_from_document(parse_document(
        path.read_text())), radius=3)
    args = ["pk-local", "--in", str(path), "--target", "3"]
    res = runner.invoke(main, args + ["--format", "json"])
    assert res.exit_code == 0, res.output
    doc = parse_document(res.output)
    assert doc.generators == tuple(sorted(lifted.generators))
    assert group_from_document(doc).elements == lifted.elements
    res = runner.invoke(main, args)
    assert res.output == ("radius 3 action: order 3072, %d generators\n"
                          % len(lifted.generators))


def test_census_refusal_names_the_order_and_the_cap(runner):
    res = runner.invoke(main, ["census", "--degree", "6", "--radius", "1"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert ("has order 720, beyond the exhaustive census cap of 200"
            in res.stderr)


@pytest.mark.parametrize("degree, radius, order", [
    ("3", "5", "order 211106232532992"),
    ("3", "100000000", "an order past 10^%d" % sys.float_info.max_10_exp),
    ("3000000", "1", "an order past 10^%d" % sys.float_info.max_10_exp),
])
def test_census_refuses_a_huge_ball_before_making_its_order(runner, degree,
                                                            radius, order):
    # an order past the float range is refused from its logarithm: neither
    # 3 * 2^(10^8) fibers nor 3,000,000! is ever made
    start = time.perf_counter()
    res = runner.invoke(main, ["census", "--degree", degree,
                               "--radius", radius])
    took = time.perf_counter() - start
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.splitlines() == [
        "Error: the full ball group at degree %s radius %s has %s, beyond "
        "the exhaustive census cap of 200; use the lift-based route over a "
        "smaller radius" % (degree, radius, order)]
    assert took < 1


def test_pk_local_refuses_a_ball_past_two_byte_entries(runner, diagonal_doc):
    # the radius-15 ball has 98,301 points; two bytes index 65,536
    args = ["pk-local", "--in", diagonal_doc, "--target"]
    res = runner.invoke(main, args + ["15"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.splitlines() == [
        "Error: 98301 points are past the 65536 that two-byte image entries "
        "index"]
    res = runner.invoke(main, args + ["14"])
    assert (res.exit_code, res.output) == (
        0, "radius 14 action: order 6, 2 generators\n")


def test_count_restrictions_with_rigid_fibers_loops_over_no_depth(
        runner, diagonal_doc):
    # every fiber of the diagonal is 1, so the count is the group's order
    start = time.perf_counter()
    res = runner.invoke(main, ["count-restrictions", "--in", diagonal_doc,
                               "--ball", "100000", "--stabilizer"])
    took = time.perf_counter() - start
    assert (res.exit_code, res.output) == (0, "count: 6\n")
    assert took < 1


def test_tower_text_output(runner):
    res = runner.invoke(main, ["tower", "partition", "--steps", "3"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0].endswith("order 24")
    assert lines[1].endswith("order 1944")
    assert lines[2].endswith("order 1033121304 (certified only)")
    res = runner.invoke(main, ["tower", "pinned-orbit", "--steps", "3",
                               "--format", "json"])
    levels = json.loads(res.output)
    assert [lv["order"] for lv in levels] == ["8", "128", "2048"]
    assert all(lv["materialized"] for lv in levels)


def test_tower_says_on_stderr_when_it_stops_short(runner):
    short = runner.invoke(main, ["tower", "partition", "--steps", "5"])
    full = runner.invoke(main, ["tower", "partition", "--steps", "3"])
    assert short.exit_code == full.exit_code == 0
    assert short.stdout == full.stdout
    assert len(short.stdout.splitlines()) == 3
    assert short.stderr == (
        "tower stopped at certified level 3 of the 5 asked for\n")
    assert full.stderr == ""


@pytest.mark.slow
def test_tower_pinned_orbit_four_steps():
    # level 4 holds 32,768 tables of 937 points, glued once and kept as the
    # level's elements, next to the few generators the tower step glues
    out, err, code, peak = _run_child("tower", "pinned-orbit", "--steps", "4")
    assert code == 0, err
    assert (out, err) == ("level 1: order 8\nlevel 2: order 128\n"
                          "level 3: order 2048\nlevel 4: order 32768\n", "")
    assert peak < 300 * 1024


@pytest.mark.slow
def test_tower_certifies_a_level_too_large_in_cells():
    # D4's partition tower reaches 32,768 elements at level 7, inside the
    # element cap, but their tables would hold 143M cells: the level is
    # certified, and the tower stops there with exit 0
    out, err, code, peak = _run_child(
        "tower", "partition", "--group", "D4", "--blocks", "0,2;1,3",
        "--steps", "9")
    assert code == 0, err
    assert len(out.splitlines()) == 7
    assert out.splitlines()[-1] == "level 7: order 32768 (certified only)"
    assert err == "tower stopped at certified level 7 of the 9 asked for\n"
    assert peak < 300 * 1024


def test_tower_rejects_bad_blocks(runner):
    res = runner.invoke(main, ["tower", "partition", "--steps", "2",
                               "--group", "D4", "--blocks", "0,1;2,3"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["construct", "parity", "S3", "--spheres", ""],
    ["construct", "parity", "S3", "--spheres", "0;1"],
    ["tower", "partition", "--steps", "2", "--blocks", "0,x"],
    ["tower", "partition", "--steps", "2", "--blocks", "0,1;;2,3"],
])
def test_malformed_lists_name_their_option(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    [line] = res.stderr.splitlines()
    assert line.startswith("Error: %s takes " % args[-2])
    assert line.endswith("got %r" % args[-1])


def test_documents_past_degree_ten_exit_two_with_one_line(runner, tmp_path,
                                                          gamma_s3):
    body = json.loads(serialize_document(document_from_group(gamma_s3)))
    body["degree"] = 11
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(body))
    res = runner.invoke(main, ["check-c", "--in", str(path)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        "Error: digit-string words only cover degrees up to 10, got 11"]


def test_census_command(runner):
    res = runner.invoke(main, ["census", "--degree", "3", "--radius", "2",
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)
    assert len(rows) == 6
    assert [r["order"] for r in rows] == [3, 6, 12, 24, 24, 48]


@pytest.mark.parametrize("degree, radius, message", [
    ("3", "0", "ball radius must be at least 1"),
    ("3", "-1", "ball radius must be at least 1"),
    ("0", "1", "tree degree must be at least 3"),
])
def test_census_rejects_impossible_balls_with_one_line(runner, degree,
                                                       radius, message):
    res = runner.invoke(main, ["census", "--degree", degree,
                               "--radius", radius])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == ["Error: " + message]
    assert "Traceback" not in res.output


@pytest.mark.parametrize("radius", ["0", "-2"])
def test_full_lift_rejects_a_radius_below_its_base_with_one_line(runner,
                                                                 radius):
    res = runner.invoke(main, ["construct", "full-lift", "S3",
                               "--radius", radius])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        "Error: lift radius %s is below the base radius 1" % radius]
    assert "Traceback" not in res.output


@pytest.mark.slow
def test_s3_table_matches_golden(runner):
    res = runner.invoke(main, ["s3-table"])
    assert res.exit_code == 0
    assert res.output == GOLDEN.read_text()


@pytest.mark.slow
def test_cd_lifts_reports_two_new_classes(runner):
    res = runner.invoke(main, ["cd-lifts"])
    assert res.exit_code == 0, res.output
    assert "new classes: 2" in res.output
    res = runner.invoke(main, ["cd-lifts", "--format", "json"])
    payload = json.loads(res.output)
    assert payload["new_classes"] == 2
    orders = sorted(r["order"] for r in payload["rows"]
                    if r["gamma_image_of"] is None)
    assert orders == [24, 48]


@pytest.mark.slow
def test_cocycles_of_the_radius_three_full_lift(runner, tmp_path):
    doc = str(tmp_path / "full-lift-s3-r3.json")
    res = runner.invoke(main, ["construct", "full-lift", "S3", "--radius", "3",
                               "--out", doc])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["cocycles", "--in", doc, "--expect", "no"])
    assert res.exit_code == 0, res.output
    assert res.output == "involutive cocycles: 0\n"


@pytest.mark.slow
def test_cocycles_refuses_the_radius_two_full_lift_of_s4(runner, tmp_path):
    # each generator has 216**4 lifts one radius up: the search counts them
    # from the fibers and refuses before listing one
    doc = str(tmp_path / "full-lift-s4-r2.json")
    res = runner.invoke(main, ["construct", "full-lift", "S4", "--radius", "2",
                               "--out", doc])
    assert res.exit_code == 0, res.output
    start = time.perf_counter()
    out, err, code, peak = _run_child("cocycles", "--in", doc)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert sum(line.startswith("Error:") for line in err.splitlines()) == 1
    assert "cocycle search: 2176782336 lifts" in err
    assert "Traceback" not in err
    assert peak < 500 * 1024


@pytest.mark.slow
@pytest.mark.parametrize("kind, group", [("diagonal", "S10"),
                                         ("centered", "S9"),
                                         ("centered", "S12")])
def test_oversized_radius_two_builds_exit_two_quickly(kind, group):
    # S9 (362,880 elements) is closed, and its centered extension of order
    # 362880 * 40320 is refused from that order before any table is made;
    # S10 and S12 are refused by their own closure past its element cap
    start = time.perf_counter()
    out, err, code, peak = _run_child("construct", kind, group)
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert sum(line.startswith("Error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert peak < 500 * 1024


def test_stdout_digests_match_golden(runner, tmp_path, monkeypatch):
    # element order and generator choice in these outputs come from sorting
    # and hashing ball automorphisms; a change there shows up as new bytes
    doc = "full-lift-s3-r3.json"
    monkeypatch.chdir(tmp_path)
    for line in DIGESTS.read_text().splitlines():
        digest, command = line.split("  ", 1)
        res = runner.invoke(main, command.split())
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest, \
            command
        if command.startswith("construct full-lift S3 --radius 3"):
            pathlib.Path(doc).write_bytes(res.stdout_bytes)


def _mutated(body, data):
    """The document body with one defect drawn into one table."""
    body = copy.deepcopy(body)
    tables = body["elements" if "elements" in body else "generators"]
    table = tables[data.draw(st.integers(0, len(tables) - 1))]
    word = data.draw(st.sampled_from(sorted(table)))
    value = table[word]
    kind = data.draw(st.sampled_from(
        ["drop", "stray", "digit", "swap", "length", "nonstring"]))
    if kind == "drop":
        del table[word]
    elif kind == "stray":
        table[data.draw(st.sampled_from(["00", "0120", "3", "", "x"]))] = value
    elif kind == "digit":
        at = data.draw(st.integers(0, len(value) - 1))
        digit = data.draw(st.sampled_from("01239"))
        table[word] = value[:at] + digit + value[at + 1:]
    elif kind == "swap":
        other = data.draw(st.sampled_from(sorted(table)))
        table[word], table[other] = table[other], value
    elif kind == "length":
        table[word] = data.draw(st.sampled_from(
            [value[:-1], value + value[-1], value + "0", value + "1"]))
    else:
        table[word] = data.draw(st.sampled_from([1, None, [value], {}]))
    return body


@pytest.fixture(scope="module")
def fuzz_bodies(gamma_s3, pi_one):
    return [json.loads(serialize_document(doc)) for doc in (
        document_from_group(gamma_s3),
        document_from_group(pi_one),
        document_from_group(pi_one, generators_only=True))]


@pytest.fixture(scope="module")
def deep_bodies(fuzz_bodies):
    rng = random.Random(7)
    deep = [GroupDocument(3, radius, generators=tuple(
        random_ball_aut(3, radius, rng) for _ in range(3)))
        for radius in (1, 3, 4)]
    return fuzz_bodies + [json.loads(serialize_document(doc))
                          for doc in deep]


def _reference_reading(body):
    """Where the recursive reference stops reading the tables, if anywhere.

    Returns None when every table is an automorphism, else the index of the
    first bad table and the reference's message; the message is None for
    defects in the words themselves, which the document parser reports
    before any table is read.
    """
    degree, radius = body["degree"], body["radius"]
    tables = body["elements" if "elements" in body else "generators"]
    letters = "0123456789"[:degree]
    for i, table in enumerate(tables):
        words = list(table) + list(table.values())
        if not all(isinstance(w, str) and w and set(w) <= set(letters)
                   for w in words):
            return i, None
        mapping = {tuple(map(int, k)): tuple(map(int, v))
                   for k, v in table.items()}
        if set(mapping) != set(ball_points(degree, radius)):
            return i, None
        try:
            RecursiveBallAut.from_wordmap(degree, radius, mapping)
        except ValueError as err:
            return i, str(err)
    return None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_documents_never_crash_check_c(fuzz_bodies, tmp_path, data):
    body = _mutated(data.draw(st.sampled_from(fuzz_bodies)), data)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(body))
    res = cli_runner.invoke(main, ["check-c", "--in", str(path)])
    assert res.exit_code in (0, 2), res.output
    assert "Traceback" not in res.output
    if res.exit_code == 2:
        assert len(res.stderr.splitlines()) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_reading_agrees_with_the_recursive_reference(deep_bodies,
                                                              data):
    body = _mutated(data.draw(st.sampled_from(deep_bodies)), data)
    expected = _reference_reading(body)
    try:
        parse_document(json.dumps(body))
    except DocumentError as err:
        assert expected is not None, str(err)
        index, message = expected
        assert str(err).startswith("element %d: " % index)
        if message is not None:
            assert str(err) == "element %d: %s" % (index, message)
    else:
        assert expected is None
