"""The lattice on ball automorphisms against the lattice on permutation copies.

Subgroups, normal structure and the census classes are computed on the
automorphisms directly; perm_shadow.py computes them on permutation copies
and maps the answers back. Both must give the same groups, with the same
generators, in the same order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perm_shadow
from treeball.balls import BallGroup, full_aut
from treeball.census import _lifts_by_subgroups
from treeball.constructions import build_full_lift
from treeball.permcore import (all_subgroups, center, conjugacy_class_key,
                               derived_subgroup, normal_subgroups)

FULL_B32 = full_aut(3, 2)


def assert_mapped(groups, shadows, back, shape):
    assert len(groups) == len(shadows)
    for H, P in zip(groups, shadows):
        assert type(H) is BallGroup
        assert (H.degree, H.radius) == shape
        assert H.elements == tuple(back[p] for p in P.elements)
        assert H.generators == tuple(back[g] for g in P.generators)


def assert_structure_matches_the_shadow(group):
    perms, _, back = perm_shadow.ball_action(group.elements)
    shape = (group.degree, group.radius)
    assert_mapped(all_subgroups(group), all_subgroups(perms), back, shape)
    assert_mapped(normal_subgroups(group), normal_subgroups(perms), back,
                  shape)
    assert_mapped([center(group), derived_subgroup(group)],
                  [center(perms), derived_subgroup(perms)], back, shape)


def test_structure_of_the_full_group_matches_the_shadow():
    assert_structure_matches_the_shadow(BallGroup.full(3, 2))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(FULL_B32), min_size=1, max_size=3))
def test_structure_of_random_radius_two_groups_matches_the_shadow(gens):
    group = BallGroup.from_elements(BallGroup.generated(gens).elements)
    assert_structure_matches_the_shadow(group)


def test_census_classes_match_the_shadow(census_rows):
    classes = {conjugacy_class_key(FULL_B32, row.group):
               tuple(sorted(a.images for a in row.group.elements))
               for row in census_rows}
    assert len(classes) == 6
    assert classes == perm_shadow.census_classes(FULL_B32)


def test_lift_candidates_match_the_shadow(census_rows):
    for row in census_rows:
        if not row.has_cocycle:
            continue
        full = build_full_lift(row.group)
        got = _lifts_by_subgroups(row.group, full)
        expect = perm_shadow.lifts_by_subgroups(row.group, full)
        assert [(g.elements, g.generators) for g in got] == \
            [(g.elements, g.generators) for g in expect]
        assert got
