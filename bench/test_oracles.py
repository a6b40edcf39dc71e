"""The benchmark's own checks must reject planted wrong answers.

    python3 -m pytest bench/test_oracles.py -q

Each test feeds a workload's check the program's real output, which must
pass, and then the same output with one planted error, which must not.
"""

import copy
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import oracle as O  # noqa: E402
import wl_census  # noqa: E402
import wl_constructions  # noqa: E402
import wl_documents  # noqa: E402


@pytest.fixture(scope="module")
def tb():
    return harness.fresh_import()


def outcome(text, code=0, err=""):
    return harness.Outcome(code, text, err, 0.0, False)


# ---------------------------------------------------------------------------
# oracle basics
# ---------------------------------------------------------------------------

def vertex_transposition(degree, radius, vertex, x, y):
    """The automorphism that swaps the children x and y of `vertex` and
    otherwise matches children in label order."""
    wm, layer = {}, [()]
    for _ in range(radius):
        nxt = []
        for v in layer:
            u = O.image(wm, v)
            kids = [c for c in range(degree) if not v or c != v[-1]]
            targets = [c for c in range(degree) if not u or c != u[-1]]
            if v == vertex:
                i, j = kids.index(x), kids.index(y)
                targets[i], targets[j] = targets[j], targets[i]
            for c, t in zip(kids, targets):
                wm[v + (c,)] = u + (t,)
                nxt.append(v + (c,))
        layer = nxt
    return wm


def test_closed_form_matches_sympy():
    for degree, radius in ((3, 2), (3, 3), (4, 2), (4, 3)):
        gens = []
        for v in [()] + O.ball_words(degree, radius - 1):
            kids = [c for c in range(degree) if not v or c != v[-1]]
            gens += [vertex_transposition(degree, radius, v, a, b)
                     for a, b in zip(kids, kids[1:])]
        assert all(O.is_automorphism(g, degree, radius) for g in gens)
        assert O.sympy_order(gens, degree, radius) == O.aut_order(
            degree, radius)


def test_gluing_agrees_with_the_program(tb):
    rng = random.Random(5)
    group = tb.build_full_lift(tb.PermGroup.symmetric(3), radius=3)
    elements = list(group.elements)
    for _ in range(300):
        a, b, w = rng.choice(elements), rng.choice(elements), rng.randrange(3)
        assert tb.ball_compatible(a, b, w) == O.glues(
            a.to_wordmap(), b.to_wordmap(), w, 3, 3)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def census_facts(tb):
    rows = tb.census_compatible_classes(3, 2)
    lifts = tb.census_discrete_lifts(rows)
    return ([wl_census.row_facts(r) for r in rows],
            [wl_census.row_facts(r) for r in lifts])


def test_census_table_passes(census_facts):
    base, lifts = census_facts
    assert wl_census.check_table(base, lifts, random.Random(1)) == []


@pytest.mark.parametrize("row, column, value", [
    (3, 5, True),       # (D) flag of parity(S_3,{0,1}) flipped
    (1, 3, 7),          # order of diagonal(S_3) off by one
    (4, 6, False),      # i.c.c. of parity(S_3,{1}) flipped
])
def test_census_planted_flag_or_order_fails(census_facts, row, column, value):
    base, lifts = copy.deepcopy(census_facts)
    key = list(base[row]["key"])
    key[column] = value
    base[row]["key"] = tuple(key)
    assert wl_census.check_table(base, lifts, random.Random(1))


def test_census_planted_wrong_representative_fails(census_facts):
    base, lifts = copy.deepcopy(census_facts)
    # claim the full lift's elements for the diagonal row: order and (D)
    # no longer match the representative
    base[1]["elements"] = base[5]["elements"]
    base[1]["generators"] = base[5]["generators"]
    assert wl_census.check_table(base, lifts, random.Random(1))


def test_census_planted_wrong_projection_fails(census_facts):
    base, lifts = copy.deepcopy(census_facts)
    fresh = next(f for f in lifts if f["gamma"] is None)
    fresh["elements"] = fresh["elements"][:-1]
    assert wl_census.check_table(base, lifts, random.Random(1))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

FLS3 = {"name": "fls3", "k": 2, "order": 48, "C": True, "D": False,
        "icc": None, "fibers": [4, 4, 4], "transitive": True,
        "closed_form": O.aut_order(3, 5)}
DIAG = {"name": "diag", "k": 2, "order": 6, "C": True, "D": True,
        "icc": True, "fibers": [1, 1, 1], "transitive": True,
        "closed_form": None}


@pytest.mark.parametrize("command, text, facts", [
    ("check-c", "C: yes\n", FLS3),
    ("check-d", "D: no\n", FLS3),
    ("discrete", "discrete: no\n", FLS3),
    ("ccore", "core order: 48 (input order 48)\n", FLS3),
    ("count-restrictions", "count: 211106232532992\n", FLS3),
    ("pk-local", "radius 3 action: order 3072, 11 generators\n", FLS3),
    ("cocycles", "involutive cocycles: 1\n", DIAG),
    ("count-restrictions", "count: 6\n", DIAG),
])
def test_documents_true_answers_pass(command, text, facts):
    assert wl_documents.check_read(command, outcome(text), facts) == []


@pytest.mark.parametrize("command, text, facts", [
    ("check-c", "C: no\n", FLS3),
    ("check-d", "D: yes\n", FLS3),
    ("discrete", "discrete: yes\n", FLS3),
    ("ccore", "core order: 48 (input order 47)\n", FLS3),
    ("count-restrictions", "count: 211106232532991\n", FLS3),
    ("count-restrictions", "count: 2 * 3^2\n", DIAG),
    ("pk-local", "radius 3 action: order 3071, 11 generators\n", FLS3),
    ("cocycles", "involutive cocycles: 0\n", DIAG),
    ("classify", "transitive: no\n", DIAG),
])
def test_documents_planted_wrong_answer_fails(command, text, facts):
    assert wl_documents.check_read(command, outcome(text), facts)


def test_documents_refusal_must_name_the_right_order():
    facts = dict(FLS3, name="fls3r3", k=3, order=3072, fibers=[16] * 3)
    right = outcome("", 2, "Error: full lift would have order 12582912")
    wrong = outcome("", 2, "Error: full lift would have order 12582911")
    assert wl_documents.check_read("pk-local", right, facts) == []
    assert wl_documents.check_read("pk-local", wrong, facts)


def test_documents_crash_is_a_wrong_answer():
    crashed = harness.Outcome(1, "", "Traceback ...\nValueError: x\n", 0.0,
                              True)
    assert wl_documents.check_read("check-c", crashed, FLS3)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lifted(tb):
    return tb.build_full_lift(tb.PermGroup.symmetric(3), radius=3)


def test_build_order_off_by_one_fails(lifted):
    good = outcome("full-lift(S3): degree 3 radius 3 order 3072\n")
    bad = outcome("full-lift(S3): degree 3 radius 3 order 3071\n")
    assert wl_constructions.check_build(good, lifted, 3, 3, 3072) == []
    assert wl_constructions.check_build(bad, lifted, 3, 3, 3072)


def test_build_generators_of_the_wrong_group_fail(tb):
    smaller = tb.build_full_lift(tb.PermGroup.alternating(3), radius=3)
    good = outcome("full-lift(S3): degree 3 radius 3 order 3072\n")
    assert wl_constructions.check_build(good, smaller, 3, 3, 3072)


@pytest.fixture(scope="module")
def stream(tb):
    group = tb.build_full_lift(tb.PermGroup.symmetric(3))
    maps = [a.to_wordmap() for a in tb.iter_extensions(group, 3)]
    return maps, wl_constructions.stream_facts(tb, group)


def test_stream_passes(stream):
    maps, facts = stream
    assert wl_constructions.check_stream(maps, facts, random.Random(2)) == []


def test_stream_short_by_one_fails(stream):
    maps, facts = stream
    assert wl_constructions.check_stream(maps[:-1], facts, random.Random(2))


def test_stream_with_a_repeat_fails(stream):
    maps, facts = stream
    assert wl_constructions.check_stream(maps[:-1] + maps[:1], facts,
                                         random.Random(2))


def test_stream_with_a_foreign_chart_fails(tb, stream):
    maps, facts = stream
    diagonal = tb.build_diagonal(tb.PermGroup.symmetric(3))
    narrow = wl_constructions.stream_facts(tb, diagonal)
    planted = dict(facts, members=narrow["members"])
    assert wl_constructions.check_stream(maps, planted, random.Random(2))


def test_tower_order_off_by_one_fails(tb):
    flips = tb.PermGroup.generated([
        tb.Perm((1, 0, 2, 3, 4, 5)), tb.Perm((0, 1, 3, 2, 4, 5)),
        tb.Perm((0, 1, 2, 3, 5, 4))])
    tower = tb.build_tower(flips, "pinned-orbit", 3)
    base, blocks, pinned = wl_constructions.TOWERS["pinned-orbit"]
    good = outcome("level 1: order 8\nlevel 2: order 128\n"
                   "level 3: order 2048\n")
    bad = outcome("level 1: order 8\nlevel 2: order 128\n"
                  "level 3: order 2047\n")
    assert wl_constructions.check_tower(good, tower, base, blocks,
                                        pinned) == []
    assert wl_constructions.check_tower(bad, tower, base, blocks, pinned)


def test_a_raising_library_call_fails_the_round_without_ending_it():
    class Broken:
        @staticmethod
        def census_compatible_classes(degree, radius):
            raise RuntimeError("planted")

    rec = harness.Recorder()
    wl_census.run_round(Broken, {}, rec, random.Random(1), True, None)
    assert (rec.attempted, rec.failed) == (2, 2) and rec.errors


# ---------------------------------------------------------------------------
# speed scaling
# ---------------------------------------------------------------------------

def test_an_operation_is_scaled_by_the_samples_near_it():
    speed = harness.Speedometer()
    ref = harness.REFERENCE_UNIT_S
    start = 100.0
    # a stale sample at nine times the reference, then samples at twice it
    speed.samples = [(start - 10.0, 9 * ref)] + [
        (start + i * 0.01, 2 * ref) for i in range(harness.MIN_SAMPLES)]
    speed.clock = lambda: start + 1.0
    assert speed.scaled(start) == pytest.approx(0.5)


def test_without_samples_times_are_left_as_they_are():
    speed = harness.Speedometer()
    speed.clock = lambda: 3.0
    assert speed.scaled(1.0) == 2.0 and speed.factor() == 1.0


def test_the_clock_leaves_the_samples_time_out():
    speed = harness.Speedometer()
    before = speed.clock()
    speed._sample(None, None)
    assert speed.clock() - before < speed.seconds
    assert len(speed.samples) == 1 and speed.samples[0][1] == speed.seconds
