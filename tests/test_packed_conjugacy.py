"""The packed subgroup conjugacy test against the element-by-element one.

`permcore.are_conjugate_in` walks the ambient group's packed table,
unpacking each pack as it is reached, and looks each conjugate's pack up in
K's table. `brute_conjugacy.are_conjugate_in` conjugates every element of H
by every element of an element list as wrapped products and trusts no
generating set; the verdicts must agree on one-byte and two-byte packs.
"""

import itertools

import brute_conjugacy
from treeball import census, full_aut
from treeball.constructions import build_full_lift
from treeball.permcore import all_subgroups, are_conjugate_in


def assert_verdicts_match(ambient, pairs):
    """The packed and the brute verdict of each (H, K); returns them."""
    elements = ambient.elements
    verdicts = [are_conjugate_in(ambient, H, K) for H, K in pairs]
    assert verdicts == [brute_conjugacy.are_conjugate_in(elements, H, K)
                        for H, K in pairs]
    return verdicts


def equal_orders(groups):
    return [(H, K) for H, K in itertools.product(groups, repeat=2)
            if H.order == K.order]


def test_transitive_subgroups_of_the_radius_two_ball():
    ambient = full_aut(3, 2)
    transitive = [H for H in all_subgroups(ambient) if H.is_transitive()]
    verdicts = assert_verdicts_match(ambient, equal_orders(transitive))
    assert len(verdicts) > sum(verdicts) > len(transitive)


def test_the_radius_three_merge_candidates(census_rows, monkeypatch):
    merged, real = [], census._merge_into_classes
    monkeypatch.setattr(census, "_merge_into_classes", lambda ambient, found: (
        merged.append((ambient, list(found))) or real(ambient, found)))
    census.census_discrete_lifts(census_rows)
    assert len(merged) == sum(row.has_cocycle for row in census_rows) > 0
    for ambient, candidates in merged:
        assert ambient is full_aut(3, 3)
        assert all(assert_verdicts_match(ambient, equal_orders(candidates)))
    # the candidates merge into few classes, so their verdicts are all yes:
    # the distinct subgroups of one order-24 candidate supply the noes
    group = next(G for G in merged[-1][1] if G.order == 24)
    pairs = [(H, K) for H, K in itertools.combinations(all_subgroups(group), 2)
             if H.order == K.order]
    verdicts = assert_verdicts_match(full_aut(3, 3), pairs)
    assert True in verdicts and False in verdicts


def test_every_subgroup_pair_past_256_points(gamma_s3):
    # the diagonal lift of S3 at radius 7 acts on 381 points, two bytes an
    # entry
    ambient = build_full_lift(gamma_s3, radius=7)
    assert {len(t) for t in ambient._table} == {2 * 381}
    subgroups = all_subgroups(ambient)
    verdicts = assert_verdicts_match(
        ambient, list(itertools.product(subgroups, repeat=2)))
    assert True in verdicts and False in verdicts
