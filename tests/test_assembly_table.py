"""Extension assembly by the cached index table, against the word-walking
reference in walk_assembly.py; charts that do not glue; one-step actions
read off the step table; and equality of the two element kinds."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_assembly
from random_balls import random_ball_aut
from treeball import universal
from treeball.balls import BallAut, BallGroup, ball_compatible, ball_points
from treeball.compat import check_compatibility, compat_set
from treeball.constructions import build_full_lift
from treeball.errors import HypothesisError
from treeball.permcore import Perm, PermGroup, _codec
from treeball.universal import (count_restrictions, extend_to_ball,
                                iter_extensions)
from walk_assembly import assemble_extension


def assert_streams_match(group, radius):
    """iter_extensions and the extend_to_ball streams equal the reference,
    element for element and in order; each stream starts with the least
    extension."""
    want = list(walk_assembly.iter_extensions(group, radius))
    assert list(iter_extensions(group, radius)) == want
    exhaustive = []
    for seed in group.elements:
        exts = list(extend_to_ball(group, seed, radius))
        assert exts[0] == walk_assembly.extend_least(group, seed, radius)
        exhaustive.extend(exts)
    assert exhaustive == want
    return want


def test_census_classes_stream_as_the_reference(census_rows):
    for row in census_rows:
        k = row.group.radius
        stream = assert_streams_match(row.group, k + 1)
        assert len(stream) == count_restrictions(row.group, k + 1)


def test_rigid_lifts_stream_as_the_reference_two_steps_out(gamma_s3,
                                                           delta_s3, phi_a3):
    for group in (gamma_s3, delta_s3, phi_a3):
        stream = assert_streams_match(group, group.radius + 2)
        assert len(stream) == group.order


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([(3, 1, 2), (3, 1, 3), (3, 2, 3), (4, 1, 2)]),
       st.integers(min_value=1, max_value=2))
def test_random_groups_stream_as_the_reference(seed, shape, ngens):
    degree, k, radius = shape
    rng = random.Random(seed)
    group = BallGroup.generated(
        [random_ball_aut(degree, k, rng) for _ in range(ngens)])
    if not check_compatibility(group):
        with pytest.raises(HypothesisError):
            next(iter_extensions(group, radius))
        return
    if count_restrictions(group, radius) > 1000:
        return
    assert_streams_match(group, radius)


def test_streams_reach_past_the_recursion_limit(gamma_s3):
    # 1,533 sites below radius 2 at radius 11, one frame a depth
    assert len(ball_points(3, 9)) > sys.getrecursionlimit()
    stream = list(iter_extensions(gamma_s3, 11))
    assert len(stream) == 6 and len(stream[0].images) == 6141
    assert set(stream) == set(build_full_lift(gamma_s3, radius=11).elements)
    assert all(BallAut.from_images(3, 11, a.images) == a for a in stream)
    assert [a for seed in gamma_s3.elements
            for a in extend_to_ball(gamma_s3, seed, 11)] == stream


#: the identity's table of full-lift(S3) with (0, 1) and (0, 2) sent to one
#: point, and with the images of (0, 1) and (2, 0) swapped: neither is an
#: automorphism, yet each glues to the identity toward 1
BAD_TABLES = {"repeats": (0, 1, 2, 3, 3, 5, 6, 7, 8),
              "swaps parents": (0, 1, 2, 7, 4, 5, 6, 3, 8)}


@pytest.mark.parametrize("bad", BAD_TABLES.values(), ids=BAD_TABLES.keys())
def test_a_table_that_is_no_automorphism_is_refused(bad):
    good = build_full_lift(PermGroup.symmetric(3))
    pack = _codec(len(bad))[0]
    tables = sorted({pack(a.images) for a in good.elements} | {pack(bad)})
    group = BallGroup(3, 2, None, good.generators, _table=tables)
    bad = BallAut._raw(3, 2, bad)
    assert bad in group and bad in compat_set(group, group.identity(), 1)
    refused = pytest.raises(ValueError,
                            match="^table is not a ball automorphism$")
    with refused:  # as the seed
        next(extend_to_ball(group, bad, 3))
    with refused:  # only as a chart, placed beside a good seed
        list(extend_to_ball(group, group.identity(), 3))
    with refused:
        list(iter_extensions(group, 3))


def test_the_first_extension_places_each_site_once(monkeypatch, phi_s3):
    calls = []

    def counted(group, alpha, direction):
        calls.append(direction)
        return compat_set(group, alpha, direction)

    monkeypatch.setattr(universal, "compat_set", counted)
    seed = phi_s3.elements[17]
    first = next(extend_to_ball(phi_s3, seed, 7))
    assert first == walk_assembly.extend_least(phi_s3, seed, 7)
    # one options list a site: no depth's product is walked to reach it
    assert len(calls) == len(ball_points(3, 5))


def random_chart_sets(rng, count):
    """Independent random charts at the center and its neighbours."""
    for _ in range(count):
        charts = {(): random_ball_aut(3, 2, rng)}
        for w in range(3):
            charts[(w,)] = random_ball_aut(3, 2, rng)
        yield charts


def test_charts_that_do_not_glue_raise():
    refused = 0
    for charts in random_chart_sets(random.Random(1), 300):
        bad = [w for w in range(3)
               if not ball_compatible(charts[()], charts[(w,)], w)]
        if not bad:
            continue
        with pytest.raises(ValueError,
                           match=r"site \(\) in direction %d$" % bad[0]):
            assemble_extension(3, 3, charts)
        refused += 1
    assert refused == 300


def test_missing_charts_raise_value_errors():
    g = random_ball_aut(3, 3, random.Random(2))
    charts = {(): g.project(2), (0,): g.local_action((0,), 2),
              (2,): g.local_action((2,), 2)}
    with pytest.raises(ValueError, match=r"no chart at site \(1,\)"):
        assemble_extension(3, 3, charts)
    with pytest.raises(ValueError, match="no chart at the center"):
        assemble_extension(3, 3, {(0,): g.project(2)})
    with pytest.raises(ValueError):
        assemble_extension(4, 3, charts)


def test_streaming_builds_no_chart_objects(monkeypatch, phi_s3):
    def refuse(*args, **kwargs):
        raise AssertionError("assembly went through chart objects")

    monkeypatch.setattr(BallAut, "local_action", refuse)
    monkeypatch.setattr(BallAut, "from_wordmap", refuse)
    stream = list(iter_extensions(phi_s3, 3))
    assert len(stream) == len(set(stream)) == 3072


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([3, 4]), st.integers(min_value=1, max_value=4))
def test_step_actions_are_one_step_local_actions(seed, degree, radius):
    g = random_ball_aut(degree, radius, random.Random(seed))
    for v in ((),) + ball_points(degree, radius - 1):
        # image tuples: a broken table need not give a permutation to print
        assert g.step_action(v).images == g.local_action(v, 1).root.images
    for outside in [ball_points(degree, radius)[-1], (0, 0)]:
        with pytest.raises(ValueError):
            g.step_action(outside)


def test_permutations_compare_by_images():
    p = Perm((1, 0, 2))
    assert p == Perm((1, 0, 2)) and hash(p) == hash(Perm((1, 0, 2)))
    assert p != Perm((0, 1, 2))
    assert p != BallAut(p) and BallAut(p) != p
    assert len({p, Perm((1, 0, 2)), PermGroup.symmetric(3).identity()}) == 2


def test_ball_automorphisms_compare_by_degree_and_images():
    a, b = BallAut.identity(3, 2), BallAut.identity(9, 1)
    assert a.images == b.images
    assert a != b and not a == b
    assert a == BallAut.identity(3, 2)
    assert hash(a) == hash(BallAut.identity(3, 2))
    assert len({a, b, BallAut.identity(3, 2)}) == 2
    assert {a: 1}[BallAut.identity(3, 2)] == 1
