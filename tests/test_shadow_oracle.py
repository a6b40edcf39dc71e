"""The lattice on ball automorphisms against the lattice on permutation copies.

Subgroups, normal structure and the census classes are computed on the
automorphisms directly; perm_shadow.py computes them on permutation copies
and maps the answers back. Both must give the same groups, with the same
generators, in the same order. The rigid lifts that the census finds from
cocycles must be, up to conjugacy, the ones a sweep over every subgroup of
the full lift finds.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import brute_conjugacy
import perm_shadow
from treeball import full_aut
from treeball.balls import BallGroup
from treeball.census import census_compatible_classes, census_discrete_lifts
from treeball.constructions import build_full_lift
from normal_structure import derived_subgroup, normal_subgroups
from treeball.compat import check_compatibility
from treeball.permcore import all_subgroups, are_conjugate_in, center

FULL_B32 = full_aut(3, 2).elements


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
    assert_structure_matches_the_shadow(
        BallGroup.from_elements(full_aut(3, 2)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(FULL_B32), min_size=1, max_size=3))
def test_structure_of_random_radius_two_groups_matches_the_shadow(gens):
    group = BallGroup.from_elements(BallGroup.generated(gens).elements)
    assert_structure_matches_the_shadow(group)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(FULL_B32), min_size=1, max_size=3),
       st.lists(st.sampled_from(FULL_B32), min_size=1, max_size=3),
       st.sampled_from(FULL_B32))
def test_conjugacy_of_random_radius_two_groups_matches_the_brute_test(
        gens, others, t):
    H, K = BallGroup.generated(gens), BallGroup.generated(others)
    conjugate = BallGroup.generated([t * g * t.inverse() for g in gens])
    ambient = full_aut(3, 2)
    assert are_conjugate_in(ambient, H, conjugate)
    for a, b in ((H, K), (K, H), (H, conjugate)):
        assert (are_conjugate_in(ambient, a, b)
                == brute_conjugacy.are_conjugate_in(FULL_B32, a, b))


def test_census_classes_match_the_shadow(census_rows):
    classes = {brute_conjugacy.conjugacy_class_key(FULL_B32, row.group):
               tuple(sorted(a.images for a in row.group.elements))
               for row in census_rows}
    assert len(classes) == 6
    assert classes == perm_shadow.census_classes(FULL_B32)


@pytest.mark.parametrize("radius", [1, 2])
def test_discrete_lifts_match_the_shadow_sweep(radius, census_rows):
    rows = census_rows if radius == 2 else census_compatible_classes(3, 1)
    ambient = full_aut(3, radius + 1)
    bearing = [row for row in rows if row.has_cocycle]
    assert bearing
    for row in bearing:
        reps = [lift.group for lift in census_discrete_lifts([row])]
        sweep = perm_shadow.lifts_by_subgroups(row.group,
                                               build_full_lift(row.group))
        # each class representative is one of the swept subgroups, and every
        # swept subgroup is conjugate to exactly one representative
        swept = {group.elements for group in sweep}
        assert reps and all(rep.elements in swept for rep in reps)
        for group in sweep:
            assert sum(are_conjugate_in(ambient, group, rep)
                       for rep in reps) == 1


@pytest.mark.parametrize("shape", [(3, 1), (3, 2), (4, 1)],
                         ids=["3-1", "3-2", "4-1"])
def test_census_classes_match_the_brute_keys(shape, census_rows):
    # every transitive lattice subgroup that passes (C) falls in exactly one
    # row's class, keyed element by element, and each row holds its class's
    # least table
    rows = census_rows if shape == (3, 2) else census_compatible_classes(
        *shape)
    ambient = full_aut(*shape)
    keys = [brute_conjugacy.conjugacy_class_key(ambient, row.group)
            for row in rows]
    assert len(set(keys)) == len(keys)
    least = {}
    for group in all_subgroups(BallGroup.from_elements(ambient)):
        if group.is_transitive() and check_compatibility(group):
            key = brute_conjugacy.conjugacy_class_key(ambient, group)
            assert key in keys
            least[key] = min(least.get(key, group._table), group._table)
    assert [row.group._table for row in rows] == [least[k] for k in keys]
