"""Gluing fibers from one run of the packed table, against scanning.

`compat._class_fibers` keys only the packs that restrict to the asked
chart, a run of the sorted table, and (C) is decided on the generators,
each run charted up to a first partner; the compatibility core prunes the
table one direction at a time. `scanning_fibers` tests every element
instead. Fibers must be the same tuples in the same order, on one-byte
and two-byte packs and at radius 1, cores the same tables and generators
(the input itself where nothing is pruned), the first failure of (C) the
same generator and direction, `check-c` the same stdout and exit code, a
query must key no more than the runs it reaches, and the core of a group
read from generators must make no element objects.
"""

import itertools
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scanning_fibers
from cli_runner import invoke
from random_balls import random_ball_aut
from test_compat import tiny_seam_group
from treeball import cli, compat, errors, full_aut
from treeball.balls import BallAut, BallGroup, _need_key, ball_points
from treeball.compat import (check_compatibility, compat_set,
                             compatibility_core, first_compat_failure,
                             joint_compat_set)
from treeball.census import census_compatible_classes, census_discrete_lifts
from treeball.constructions import (build_diagonal, build_full_lift,
                                    build_parity_lift, radius_one)
from treeball.documents import (document_from_group, group_from_document,
                                load_document, save_document,
                                serialize_document)
from treeball.errors import CapacityError
from treeball.permcore import PermGroup

CHECKED = settings(derandomize=True, deadline=None, max_examples=50,
                   suppress_health_check=[HealthCheck.too_slow])
SHAPES = [(3, 1), (3, 2), (3, 3), (4, 2)]
#: drawn groups stay small enough to scan; Aut(B(3, 3)) has order 3072
CAP = 3072


def twist(degree, radius, rng):
    """A random element acting only on the last level: it permutes the
    leaves below each vertex one level up."""
    pts = ball_points(degree, radius)
    index = {p: i for i, p in enumerate(pts)}
    images = list(range(len(pts)))
    for v in pts:
        if len(v) == radius - 1:
            kids = [x for x in range(degree) if x != v[-1]]
            moved = kids[:]
            rng.shuffle(moved)
            for x, y in zip(kids, moved):
                images[index[v + (x,)]] = index[v + (y,)]
    return BallAut.from_images(degree, radius, images)


def drawn_group(seed, shape, kind):
    """The full group, or the group of a random automorphism and either a
    second one or a last-level twist (as the benchmark's random sets are
    built); the first generator alone past the cap."""
    degree, radius = shape
    rng = random.Random(seed)
    if kind == "full" and shape != (4, 2):
        return full_aut(degree, radius)
    gens = [random_ball_aut(degree, radius, rng)]
    if kind == "twisted" and radius > 1:
        gens.append(twist(degree, radius, rng))
    else:
        gens.append(random_ball_aut(degree, radius, rng))
    try:
        with mock.patch.object(errors, "CLOSURE_CAP", CAP):
            return BallGroup.generated(gens)
    except CapacityError:
        return BallGroup.generated(gens[:1])


GROUPS = (st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(SHAPES),
          st.sampled_from(["full", "random", "twisted"]))


@CHECKED
@given(*GROUPS, st.integers(min_value=0, max_value=2 ** 32))
def test_fibers_are_the_scanned_tuples_in_order(seed, shape, kind, qseed):
    group = drawn_group(seed, shape, kind)
    degree, radius = shape
    rng = random.Random(qseed)
    alphas = [group.identity(), rng.choice(group.elements),
              rng.choice(group.generators),
              random_ball_aut(degree, radius, rng)]
    for alpha in alphas:
        for w in range(degree):
            want = scanning_fibers.fiber(group, alpha, (w,))
            assert compat_set(group, alpha, w) == want
        block = rng.sample(range(degree), rng.randint(1, degree))
        want = scanning_fibers.fiber(group, alpha, block)
        assert joint_compat_set(group, alpha, block) == want
    assert joint_compat_set(group, alphas[1], ()) == group.elements
    if radius > 1:
        kernel = group.projection_kernel()
        assert kernel.elements == scanning_fibers.projection_kernel(group)
        assert type(kernel) is BallGroup


def test_blocks_whose_charts_disagree_have_no_partner():
    for shape, step in [((3, 2), 1), ((3, 3), 500)]:
        group = BallGroup.from_elements(full_aut(*shape))
        degree = shape[0]
        seen = {"disagree": 0, "agree": 0}
        for alpha in group.elements[::step]:
            for size in (2, 3):
                for block in itertools.permutations(range(degree), size):
                    charts = {_need_key(alpha, w)[0] for w in block}
                    joint = joint_compat_set(group, alpha, block)
                    assert joint == scanning_fibers.fiber(group, alpha, block)
                    if len(charts) > 1:
                        seen["disagree"] += 1
                        assert joint == ()
                    else:
                        seen["agree"] += 1
                        assert joint
        assert seen["disagree"] and seen["agree"]


def _same_core(group):
    core = compatibility_core(group)
    want = scanning_fibers.compatibility_core(group)
    if want is group:
        assert core is group
    else:
        assert core._table == want._table
        assert core.generators == want.generators
    return core is group


def pi_zero():
    s3 = PermGroup.symmetric(3)
    sgn = {p: 0 if p.sign() == 1 else 1 for p in s3.elements}
    return build_parity_lift(s3, sgn, 2, [0], radius=2)


def test_cores_match_the_frozen_fixpoint(census_rows):
    kept = [_same_core(row.group) for row in census_rows]
    assert all(kept)
    assert not _same_core(pi_zero())
    assert not _same_core(tiny_seam_group())


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 2), (3, 7)]))
def test_cores_of_drawn_groups_match_the_frozen_fixpoint(seed, shape):
    # B(3, 7) has 381 points, so its packs take two bytes a point
    _same_core(drawn_group(seed, shape, "twisted"))


@pytest.mark.parametrize("radius", [3, 4])
def test_cores_that_collapse_match_the_frozen_fixpoint(radius):
    # the benchmark's random sets: one random automorphism and one
    # last-level twist at degree 3, whose core is a hundredth of the group
    # or less
    collapsed = 0
    for seed in range(40):
        group = drawn_group(seed, (3, radius), "twisted")
        if group.order >= 100 * scanning_fibers.compatibility_core(
                group).order:
            collapsed += 1
            assert not _same_core(group)
    assert collapsed >= 3


def wide_groups():
    """Groups past 256 points, packed two bytes a point: the diagonal lift
    of S3 to B(3, 7), which glues, that lift with one last-level twist, and
    the dihedral group of 300 points as radius-1 maps."""
    lift = build_full_lift(build_diagonal(PermGroup.symmetric(3)), radius=7)
    twisted = BallGroup.generated(
        lift.generators + (twist(3, 7, random.Random(0)),))
    return [lift, twisted, radius_one(PermGroup.dihedral(300))]


def test_fibers_and_cores_past_256_points_are_the_scanned_ones():
    rng = random.Random(1)
    groups = wide_groups()
    for group in groups:
        assert len(group._table[0]) == 2 * len(group.identity().images)
        alphas = [group.identity(), rng.choice(group.elements),
                  group.generators[-1]]
        for alpha in alphas:
            for w in rng.sample(range(group.degree), 3):
                want = scanning_fibers.fiber(group, alpha, (w,))
                assert compat_set(group, alpha, w) == want
            block = rng.sample(range(group.degree), 2)
            want = scanning_fibers.fiber(group, alpha, block)
            assert joint_compat_set(group, alpha, block) == want
        assert any(compat_set(group, a, 0) for a in alphas)
    # the lift and the radius-1 group keep their all; the twist is pruned
    assert [_same_core(group) for group in groups] == [True, False, True]


def test_the_core_of_a_read_group_makes_no_element_objects(tmp_path):
    # a generator document whose group fails (C): the core is cut from
    # the packed table, and neither it nor (C) unpacks the group
    path = str(tmp_path / "generators.json")
    save_document(document_from_group(drawn_group(3, (3, 3), "twisted"),
                                      generators_only=True), path)
    group = group_from_document(load_document(path))
    core = compatibility_core(group)
    assert group.order >= 100 * core.order and group._elements is None


def _check_c(path, args):
    res = invoke(cli.main, ["check-c", "--in", path] + args)
    return res.exit_code, res.output


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(*GROUPS, st.sampled_from([[], ["--format", "json"],
                                 ["--expect", "yes"], ["--expect", "no"]]))
def test_check_c_answers_as_the_all_element_check(seed, shape, kind, args):
    group = drawn_group(seed, shape, kind)
    text = serialize_document(document_from_group(group))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = _check_c(path, args)
        with mock.patch.object(cli, "check_compatibility",
                               scanning_fibers.check_c):
            want = _check_c(path, args)
    assert got == want


def test_queries_key_only_the_runs_they_reach():
    group = build_full_lift(PermGroup.symmetric(3), radius=3)
    assert group.order == 3072
    compat_set(group, group.generators[0], 1)
    [fibers] = group._cache["class_fibers"].values()
    assert sum(map(len, fibers.values())) <= 64
    # (C) scans runs up to a first partner and keys none, nor makes the
    # element tuple
    group._cache.clear()
    assert check_compatibility(group)
    assert "class_fibers" not in group._cache and group._elements is None


def scanned_failure(group):
    """The first generator and direction, generator by generator, whose
    scanned fiber is empty; None if there is none."""
    for a in group.generators:
        for w in range(group.degree):
            if not scanning_fibers.fiber(group, a, (w,)):
                return a, w
    return None


@CHECKED
@given(*GROUPS)
def test_first_failure_of_drawn_groups_is_the_scanned_one(seed, shape, kind):
    group = drawn_group(seed, shape, kind)
    assert first_compat_failure(group) == scanned_failure(group)


def test_first_failure_of_named_groups_is_the_scanned_one(census_rows,
                                                         lift_rows):
    groups = [row.group for row in list(census_rows) + list(lift_rows)]
    groups += [pi_zero(), tiny_seam_group(),
               build_full_lift(PermGroup.symmetric(3), radius=3)]
    found = [first_compat_failure(group) for group in groups]
    assert found == [scanned_failure(group) for group in groups]
    assert found[-1] is None and {f is None for f in found} == {True, False}


def test_first_failure_is_found_again_for_new_generators():
    group = pi_zero()
    before = first_compat_failure(group)
    group.generators = tuple(reversed(group.elements))
    after = first_compat_failure(group)
    assert after == scanned_failure(group) and after != before


def test_the_census_checks_c_once_a_group(monkeypatch):
    # a check starts with the first generator toward 0; the groups are kept,
    # so no id is reused. The lattice of the cached full ball group keeps
    # each subgroup's verdict, so the cache is cleared for a fresh census
    full_aut.cache_clear()
    started, real = [], compat._first_partner

    def counted(group, alpha, block):
        if block == (0,) and alpha is group.generators[0]:
            started.append(group)
        return real(group, alpha, block)

    monkeypatch.setattr(compat, "_first_partner", counted)
    census_discrete_lifts(census_compatible_classes(3, 2))
    ids = [id(group) for group in started]
    assert len(ids) == len(set(ids)) >= 40
