"""Growing a closure by one generator against closing from scratch.

The generating-set greedy, the group check of `from_elements` and the
involutive-cocycle search all extend one closure a generator at a time.
The re-closing versions in `reclosing.py` must give the same generators and
the same cocycle tables, and the lazy section stream the same cocycle count
and existence.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import perm_shadow
import reclosing
from random_balls import random_ball_aut
from treeball import compat, errors, full_aut, permcore
from treeball.balls import BallAut, BallGroup
from treeball.compat import check_trivial_seams, find_involutive_cocycles
from treeball.constructions import build_diagonal, radius_one
from treeball.errors import CapacityError
from treeball.permcore import (Perm, PermGroup, _close, _grow,
                               small_generating_set_of)

FULL_B32 = full_aut(3, 2).elements


def _keys(cocycles):
    return [c.table_key() for c in cocycles]


def _check_cocycles(monkeypatch, group):
    """The involutive cocycles of the group, once their tables match the
    re-closing reference and the lazy stream's existence and count do."""
    found = find_involutive_cocycles(group)
    assert _keys(found) == _keys(reclosing.involutive_cocycles(group))
    # existence and count read the section stream and build no table
    with monkeypatch.context() as m:
        m.setattr(compat, "CompatCocycle", None)
        assert any(compat._involutive_sections(group)) == bool(found)
        assert sum(1 for _ in compat._involutive_sections(group)) == len(found)
    return found


@st.composite
def perm_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1,
                         max_size=3))
    return PermGroup.generated([Perm(g) for g in gens], degree)


@settings(max_examples=60, deadline=None)
@given(perm_groups())
def test_greedy_matches_reclosing_on_permutations(group):
    assume(group.order <= 512)
    ident = group.identity()
    expect = reclosing.greedy_generators(group.elements, ident)
    assert small_generating_set_of(group.elements, ident) == expect
    assert PermGroup.from_elements(group.elements).generators == expect


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3))
def test_greedy_matches_reclosing_on_ball_automorphisms(seed, radius, count):
    rng = random.Random(seed)
    group = BallGroup.generated(
        [random_ball_aut(3, radius, rng) for _ in range(count)])
    assume(group.order <= 512)
    ident = group.identity()
    expect = reclosing.greedy_generators(group.elements, ident)
    assert small_generating_set_of(group.elements, ident) == expect
    assert BallGroup.from_elements(group.elements).generators == expect


def test_cocycles_match_reclosing_on_the_census_classes(monkeypatch,
                                                        census_rows):
    assert len(census_rows) == 6
    for row in census_rows:
        found = _check_cocycles(monkeypatch, row.group)
        assert bool(found) == row.has_cocycle


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(FULL_B32), min_size=1, max_size=3))
def test_cocycles_match_reclosing_on_random_radius_two_groups(monkeypatch,
                                                              gens):
    _check_cocycles(monkeypatch, BallGroup.generated(gens))


@pytest.mark.parametrize("gens, count", [
    ([(1, 0, 2, 3), (0, 1, 3, 2)], 4),
    ([(1, 2, 3, 0), (0, 3, 2, 1)], 8),
])
def test_cocycles_match_reclosing_at_degree_four(monkeypatch, gens, count):
    # above degree 3 the lift kernel is not abelian: the search must answer
    def no_system(group, gens):
        raise AssertionError("degree 4 reached the GF(2) system")

    monkeypatch.setattr(compat, "_solved_sections", no_system)
    group = BallGroup.generated([BallAut(Perm(g)) for g in gens])
    assert not check_trivial_seams(group)
    assert len(_check_cocycles(monkeypatch, group)) == count


@pytest.mark.parametrize("R", [
    PermGroup.cyclic(4),
    PermGroup.generated([Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))], 4),
    PermGroup.cyclic(5),
], ids=["C4", "V4", "C5"])
@pytest.mark.parametrize("build", [radius_one, build_diagonal],
                         ids=["radius_one", "diagonal"])
def test_rigid_groups_above_degree_three_reach_one_searched_cocycle(
        monkeypatch, R, build):
    # a rigid group's one cocycle comes from the search, and the reference
    # still takes it from the singleton fibers (canonical_cocycle)
    group = build(R)
    assert check_trivial_seams(group)
    assert len(_check_cocycles(monkeypatch, group)) == 1


def test_cocycle_search_refuses_lifts_past_the_cell_budget(monkeypatch):
    # the lifts of a generator are counted from its fibers before any is
    # glued; past the budget the search raises instead of listing them
    group = BallGroup.generated([BallAut(Perm((1, 2, 3, 0)))])
    assert len(find_involutive_cocycles(group)) > 0
    monkeypatch.setattr(errors, "TABLE_CELLS", 1)
    monkeypatch.setattr(compat, "_glue_fibers", None)
    with pytest.raises(CapacityError, match=r"^cocycle search: \d+ lifts of "
                       r"a generator hold \d+ table cells, beyond the "
                       r"budget of 1$"):
        any(compat._involutive_sections(group))


def test_lattice_subgroups_keep_the_greedy_generators():
    full = BallGroup.from_elements(full_aut(3, 2))
    for group in perm_shadow.subgroups(full):
        rebuilt = BallGroup.from_elements(group.elements)
        assert group.generators == rebuilt.generators
        assert group == rebuilt


def test_grow_visits_each_element_and_generator_once(monkeypatch):
    # _grow multiplies image tuples by gathers from permcore._getter; count
    # the gathers made, not Perm products, of which the kernel makes none
    gens = [g.images for g in PermGroup.symmetric(5).generators]
    gathers = []
    make = permcore._getter

    def counting(images):
        get = make(images)

        def counted(t):
            gathers.append(1)
            return get(t)
        return counted

    monkeypatch.setattr(permcore, "_getter", counting)
    ident = tuple(range(5))
    members, seen, grown = [ident], {ident}, []
    for g in gens:
        assert _grow(members, seen, grown, g)
    assert len(members) == len(seen) == 120
    # one gather makes each element outside the old closure, and each coset
    # representative meets each generator once: the 5-cycle fills 4 cosets
    # of the trivial group and steps from each, then the transposition fills
    # the 23 cosets of C5 besides C5 itself and steps from each by both
    assert len(gathers) == 4 + 4 + 23 * 5 + 23 * 2
    assert not _grow([ident], {ident}, [], gens[0], limit=3)


def test_grow_keeps_the_tuples_within_gives():
    # a gather makes a new tuple per element; the closure must store the
    # caller's equal tuple instead, so that the greedy holds one copy
    elements = [a.images for a in FULL_B32]
    within = {t: t for t in elements}
    ident = within[FULL_B32[0].images]
    members, seen, grown = [ident], {ident}, []
    for g in elements:
        assert _grow(members, seen, grown, g, within=within.get)
    assert len(members) == 48
    assert all(within[t] is t for t in members)
    assert {id(t) for t in seen} == {id(t) for t in members}


def test_gathers_on_one_and_two_points():
    # itemgetter of one index returns a bare entry; the getter must not
    assert permcore._getter((0,))((7,)) == (7,)
    assert permcore._getter(())((7,)) == ()
    e1 = Perm.identity(1)
    assert (e1 * e1).images == (0,)
    assert e1 * e1 == e1 == e1.inverse() == e1 ** 3
    assert e1.order() == 1
    assert PermGroup.symmetric(1).elements == (e1,)
    t = Perm((1, 0))
    s2 = PermGroup.symmetric(2)
    assert s2.elements == (Perm.identity(2), t)
    assert t * t == Perm.identity(2) and t.order() == 2 and t ** -1 == t
    assert PermGroup.from_elements(s2.elements).generators == (t,)


def test_close_raises_past_its_cap(monkeypatch):
    # the error names the cap, the size reached and what was being closed:
    # S4 from a 4-cycle and a transposition grows <(0 1 2 3)> by cosets to
    # 20, and the next passes 23
    s4_gens = PermGroup.symmetric(4).generators
    monkeypatch.setattr(errors, "CLOSURE_CAP", 23)
    with pytest.raises(CapacityError, match=r"^closure exceeded cap of 23 "
                       r"after reaching 20 elements, closing 2 generators, "
                       r"permutations of degree 4$"):
        _close(s4_gens, Perm.identity(4))
    monkeypatch.setattr(errors, "CLOSURE_CAP", 24)
    assert len(_close(s4_gens, Perm.identity(4))) == 24
    # Aut(B(3, 2)) has order 48 and grows by a coset of 16 past 32
    gens = BallGroup.from_elements(full_aut(3, 2)).generators
    monkeypatch.setattr(errors, "CLOSURE_CAP", 47)
    with pytest.raises(CapacityError, match="cap of 47 after reaching 32 "
                       "elements, closing 5 generators, automorphisms of the "
                       "radius-2 ball of degree 3$"):
        BallGroup.generated(gens)
    monkeypatch.setattr(errors, "CLOSURE_CAP", 48)
    assert BallGroup.generated(gens).order == 48


@pytest.mark.parametrize("elements", [
    [Perm((1, 0, 2))],
    [Perm((0, 1, 2)), Perm((1, 2, 0))],
    [Perm((0, 1, 2)), Perm((1, 0, 2)), Perm((0, 2, 1))],
])
def test_greedy_rejects_element_lists_that_are_not_groups(elements):
    with pytest.raises(ValueError, match="element set is not a group"):
        PermGroup.from_elements(elements)


def test_repeated_elements_count_once():
    e = Perm.identity(3)
    group = PermGroup.from_elements([e, e])
    assert group.order == 1
    assert group.generators == (e,)
    c = Perm((1, 2, 0))
    group = PermGroup.from_elements([e, c, e, c * c, c])
    assert group.order == 3
    assert group.generators == (c,)
    ball = BallGroup.from_elements([BallAut.identity(3, 2)] * 2)
    assert ball.order == 1
