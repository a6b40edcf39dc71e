"""The exhaustive class census at degree three and its rigid lifts.

The reference table lives in golden/s3_table.txt; regenerate it after an
intentional output change with REGOLD=1 pytest tests/test_census.py.
"""

import os
import pathlib
import time

import pytest

from treeball import census, constructions
from treeball.balls import BallAut, BallGroup, full_aut
from treeball.census import (are_conjugate_in, census_compatible_classes,
                             census_discrete_lifts, degree3_table,
                             format_table, name_permutation_group)
from treeball.compat import CompatCocycle, find_involutive_cocycles
from treeball.constructions import (build_centered, build_diagonal,
                                    build_full_lift, build_parity_lift)
from treeball.permcore import Perm, PermGroup, classify_action

GOLDEN = pathlib.Path(__file__).parent / "golden" / "s3_table.txt"
REGOLD = bool(os.environ.get("REGOLD"))

EXPECTED_MATRIX = [
    # description, order, trivial seams, involutive cocycle
    ("full-lift(A_3)", 3, True, True),
    ("diagonal(S_3)", 6, True, True),
    ("centered(S_3)", 12, True, True),
    ("parity(S_3,{0,1})", 24, False, False),
    ("parity(S_3,{1})", 24, False, True),
    ("full-lift(S_3)", 48, False, False),
]


def test_census_matrix(census_rows):
    assert len(census_rows) == 6
    got = [(r.description, r.order, r.trivial_seams, r.has_cocycle)
           for r in census_rows]
    assert got == EXPECTED_MATRIX
    for r in census_rows:
        assert r.radius == 2
        assert r.compatible
        assert r.group.order == r.order
    assert [r.projection for r in census_rows] == \
        ["A_3"] + ["S_3"] * 5


def test_census_is_deterministic(census_rows):
    again = census_compatible_classes(3, 2)
    assert format_table(again) == format_table(census_rows)
    for old, new in zip(census_rows, again):
        assert set(old.group.elements) == set(new.group.elements)


def test_builders_land_in_their_named_classes(census_rows):
    S3 = PermGroup.symmetric(3)
    A3 = PermGroup.alternating(3)
    sgn = {p: 0 if p.sign() == 1 else 1 for p in S3.elements}
    builders = {
        "full-lift(A_3)": build_full_lift(A3),
        "diagonal(S_3)": build_diagonal(S3),
        "centered(S_3)": build_centered(S3, center=S3.stabilizer(0)),
        "parity(S_3,{0,1})": build_parity_lift(S3, sgn, 2, [0, 1]),
        "parity(S_3,{1})": build_parity_lift(S3, sgn, 2, [1]),
        "full-lift(S_3)": build_full_lift(S3),
    }
    ambient = full_aut(3, 2)
    by_name = {r.description: r for r in census_rows}
    for name, built in builders.items():
        row = by_name[name]
        assert built.order == row.order
        assert are_conjugate_in(ambient, built, row.group)


def test_lift_rows_split_into_fresh_and_image_classes(census_rows, lift_rows):
    fresh = [r for r in lift_rows if r.gamma_image_of is None]
    images = [r for r in lift_rows if r.gamma_image_of is not None]
    assert sorted(r.order for r in fresh) == [24, 48]
    assert sorted(r.order for r in images) == [3, 6, 12]
    base_rep = next(r for r in census_rows
                    if r.order == 24 and r.has_cocycle).group
    for r in fresh:
        assert r.radius == 3
        assert r.compatible and r.trivial_seams and r.has_cocycle
        assert r.group.project() == base_rep
    assert fresh[0].description == "cocycle-lift(parity(S_3,{1}))"
    assert fresh[1].description == "cocycle-ext(parity(S_3,{1}), kernel 2)"
    for r in images:
        assert r.description == "cocycle-lift(%s)" % r.gamma_image_of
        assert r.trivial_seams
    assert {r.gamma_image_of for r in images} == \
        {"full-lift(A_3)", "diagonal(S_3)", "centered(S_3)"}


def test_rigid_bases_lift_to_exactly_themselves(census_rows):
    diagonal_row = next(r for r in census_rows if r.order == 6)
    lifted = census_discrete_lifts([diagonal_row])
    assert len(lifted) == 1
    assert lifted[0].order == 6
    assert lifted[0].gamma_image_of == "diagonal(S_3)"
    assert lifted[0].group.project() == diagonal_row.group


def test_the_rigid_lift_search_does_each_piece_of_work_once(census_rows,
                                                           lift_rows,
                                                           monkeypatch):
    row = next(r for r in census_rows if r.description == "parity(S_3,{1})")
    lifted, greedy, closed, checked = [], [], [], []
    section = CompatCocycle.section
    monkeypatch.setattr(CompatCocycle, "section", lambda self, a: (
        lifted.append((id(self), a)) or section(self, a)))
    small = constructions.small_generating_set_of
    monkeypatch.setattr(constructions, "small_generating_set_of", lambda *a: (
        greedy.append((a[1].radius, frozenset(a[0]))) or small(*a)))
    generated = BallGroup.generated.__func__
    monkeypatch.setattr(BallGroup, "generated", classmethod(
        lambda cls, *a, **k: closed.append(generated(cls, *a, **k)) or
        closed[-1]))
    discrete = census._is_discrete_lift
    monkeypatch.setattr(census, "_is_discrete_lift", lambda group, base: (
        checked.append(group._table) or discrete(group, base)))
    rows = census_discrete_lifts([row])
    # each cocycle lifts each generator once
    cocycles = find_involutive_cocycles(row.group)
    assert sorted(lifted) == sorted(set(lifted))
    assert len(lifted) == len(cocycles) * len(row.group.generators)
    # each kernel subgroup's generators (and with them its other facts)
    # once; the full lift's step takes those of its 3 identity fibers below
    assert len(greedy) == len(set(greedy)) == 16 + 3
    assert [radius for radius, _ in greedy].count(2) == 3
    # each extension closed once, and checked for (C) and (D) once
    assert len(closed) == len({g._table for g in closed}) == len(checked)
    assert len(checked) == len(set(checked))

    def facts(rows):
        return [(r.to_dict(), r.group.elements, r.group.generators)
                for r in rows]

    assert facts(rows) == facts(
        [r for r in lift_rows if r.group.project() == row.group])


def test_regular_projections_admit_only_the_unique_lift():
    regulars = [
        PermGroup.alternating(3),
        PermGroup.cyclic(4),
        PermGroup.generated([Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))], 4),
        PermGroup.cyclic(5),
    ]
    for R in regulars:
        assert classify_action(R).regular
        full = build_full_lift(R)
        diag = build_diagonal(R)
        assert set(full.elements) == set(diag.elements)


def test_group_naming():
    assert name_permutation_group(PermGroup.symmetric(3)) == "S_3"
    assert name_permutation_group(PermGroup.alternating(3)) == "A_3"
    assert name_permutation_group(PermGroup.symmetric(4)) == "S_4"


@pytest.mark.slow
def test_degree_four_census_asks_only_whether_a_cocycle_exists():
    # a row reads the first involutive section, not every cocycle table
    start = time.perf_counter()
    rows = census_compatible_classes(4, 1)
    assert time.perf_counter() - start < 3
    for row in rows:
        assert row.has_cocycle == bool(find_involutive_cocycles(row.group))


@pytest.mark.slow
def test_table_runs_and_matches_golden():
    rows = degree3_table()
    assert len(rows) == 8
    text = format_table(rows)
    if REGOLD:
        GOLDEN.write_text(text)
        pytest.skip("regolded")
    assert text == GOLDEN.read_text()


@pytest.mark.slow
def test_table_with_images_has_all_lift_rows():
    base = census_compatible_classes(3, 2)
    rows = base + census_discrete_lifts(base)
    assert len(rows) == 11
    flagged = [r for r in rows if r.gamma_image_of is not None]
    assert sorted(r.order for r in flagged) == [3, 6, 12]


def test_full_aut_is_built_once_per_shape():
    # the table reads Aut(B(3, 2)) and Aut(B(3, 3)), and building them reads
    # Aut(B(3, 1)): one cache entry for each of the three shapes
    full_aut.cache_clear()
    degree3_table()
    assert full_aut.cache_info().currsize == 3


def test_census_classes_keep_the_lattice_groups(census_rows, monkeypatch):
    # each class is the lattice's own least member group, not a group
    # rebuilt from its element tables
    def refuse(cls, degree, radius, images):
        raise AssertionError("a census class was rebuilt from its tables")

    monkeypatch.setattr(BallAut, "from_images", classmethod(refuse))
    rows = census_compatible_classes(3, 2)
    assert [row.to_dict() for row in rows] == [
        row.to_dict() for row in census_rows]
    for row, seen in zip(rows, census_rows):
        assert row.group.elements == seen.group.elements
        assert row.group.generators == seen.group.generators


def test_row_serialization(census_rows):
    row = census_rows[0]
    d = row.to_dict()
    assert d == {
        "description": "full-lift(A_3)",
        "k": 2,
        "projection": "A_3",
        "order": 3,
        "C": True,
        "D": True,
        "icc": True,
        "gamma_image_of": None,
    }


def test_header_column_order():
    header = format_table([]).splitlines()[0]
    assert header.split(" | ") == [
        "Description of F", "k", "πF", "|F|", "(C)", "(D)", "i.c.c."]
