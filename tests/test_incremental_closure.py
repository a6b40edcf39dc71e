"""Growing a closure by one generator against closing from scratch.

The generating-set greedy, the group check of `from_elements` and the
involutive-cocycle search all extend one closure a generator at a time.
The re-closing versions in `reclosing.py` must give the same generators and
the same cocycle tables.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import perm_shadow
import reclosing
from treeball.balls import BallAut, BallGroup, full_aut, random_ball_aut
from treeball.compat import find_involutive_cocycles
from treeball.errors import CapacityError
from treeball.permcore import (Perm, PermGroup, _close, _grow,
                               small_generating_set_of)

FULL_B32 = full_aut(3, 2)


def _keys(cocycles):
    return [c.table_key() for c in cocycles]


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


def test_cocycles_match_reclosing_on_the_census_classes(census_rows):
    assert len(census_rows) == 6
    for row in census_rows:
        assert (_keys(find_involutive_cocycles(row.group))
                == _keys(reclosing.involutive_cocycles(row.group)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(FULL_B32), min_size=1, max_size=3))
def test_cocycles_match_reclosing_on_random_radius_two_groups(gens):
    group = BallGroup.generated(gens)
    assert (_keys(find_involutive_cocycles(group))
            == _keys(reclosing.involutive_cocycles(group)))


def test_lattice_subgroups_keep_the_greedy_generators():
    for group in perm_shadow.subgroups(BallGroup.full(3, 2)):
        rebuilt = BallGroup.from_elements(group.elements)
        assert group.generators == rebuilt.generators
        assert group == rebuilt


def test_grow_visits_each_element_and_generator_once():
    products = []

    class Counted(Perm):
        __slots__ = ()

        def __mul__(self, other):
            products.append(1)
            return Counted._raw(tuple([self.images[x] for x in other.images]))

    gens = [Counted(g.images) for g in PermGroup.symmetric(5).generators]
    ident = Counted(range(5))
    members, seen, grown = [ident], {ident}, []
    for g in gens:
        assert _grow(members, seen, grown, g)
    assert len(members) == len(seen) == 120
    # the identity and its 4 new powers times the 5-cycle, then the 5 old
    # members times the transposition and the 115 new ones times both
    assert len(products) == 1 + 4 + 5 + 2 * 115
    assert not _grow([ident], {ident}, [], gens[0], limit=3)


def test_close_raises_past_its_cap():
    with pytest.raises(CapacityError):
        _close(PermGroup.symmetric(4).generators, Perm.identity(4), cap=23)
    assert len(_close(PermGroup.symmetric(4).generators,
                      Perm.identity(4), cap=24)) == 24


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
