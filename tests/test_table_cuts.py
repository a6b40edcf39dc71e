"""Derived groups are cut from their parent's packed table.

Projections, the level-1 action, pointwise stabilizers, centers,
compatibility cores, parity lifts and projection kernels each keep packs
of a table the library already holds and pick the greedy's generators over
them (`FiniteGroup._of_table`). The reference is the object route each once
took: `from_elements` over the parent's element objects, filtered or
mapped, which must give the same table and the same generators. Seam
groups and V4 are closed from generators instead, and must give the table
that the element route gives.
"""

import itertools

import pytest

import scanning_fibers
from test_compat import tiny_seam_group
from treeball import census, cli
from treeball.balls import BallGroup, ball_points, words_of_length
from treeball.compat import check_compatibility, compatibility_core
from treeball.constructions import (build_full_lift, build_parity_lift,
                                    build_tower)
from treeball.permcore import Perm, PermGroup, center
from treeball.universal import seam_groups


def assert_same(cut, reference):
    assert type(cut) is type(reference)
    assert cut._table == reference._table
    assert cut.generators == reference.generators


def assert_images_are_cut(group):
    """Every projection and the level-1 action of `group`, against the
    element route."""
    for radius in range(1, group.radius):
        assert_same(group.project(radius), BallGroup.from_elements(
            {a.project(radius) for a in group.elements}))
    assert_same(group.level1(), PermGroup.from_elements(
        {a.level1() for a in group.elements}))


def test_the_census_classes_project_as_their_elements_do(census_rows,
                                                        lift_rows):
    for row in census_rows + lift_rows:
        assert_images_are_cut(row.group)


def test_the_full_lift_of_s4_is_cut_without_an_element_object():
    lift = build_full_lift(PermGroup.symmetric(4))
    down, ball = lift.level1(), lift.project(1)
    assert lift._elements is None and down._elements is None
    assert lift.order == 31104 and down == PermGroup.symmetric(4)
    assert_same(down, PermGroup.from_elements(
        {a.level1() for a in lift.elements}))
    assert_same(ball, BallGroup.from_elements(
        {a.project(1) for a in lift.elements}))


@pytest.mark.parametrize("radius, points", [(7, 381), (8, 765)])
def test_projections_cross_the_entry_width(radius, points, gamma_s3):
    # two bytes an entry above 256 points and one byte below: radius 7
    # projects to 189 points, radius 8 to 381 and then below
    group = build_full_lift(gamma_s3, radius=radius)
    assert len(ball_points(3, radius)) == points
    assert {len(t) for t in group.project(6)._table} == {189}
    assert_images_are_cut(group)


@pytest.mark.parametrize("name", ["flips6", "sl23"])
def test_stabilizers_and_centers_are_cut(name, request):
    G = request.getfixturevalue(name)
    sets = [points for k in (0, 1, 2, G.degree)
            for points in itertools.combinations(range(G.degree), k)]
    for points in sets + list(G.orbits()):
        assert_same(G.pointwise_stabilizer(points), PermGroup.from_elements(
            [g for g in G.elements if all(g(p) == p for p in points)]))
    assert_same(center(G), PermGroup.from_elements(
        [x for x in G.elements
         if all(x * g == g * x for g in G.generators)]))


def _sign(F):
    return {p: 0 if p.sign() == 1 else 1 for p in F.elements}


def test_compatibility_cores_are_cut():
    S3 = PermGroup.symmetric(3)
    for group in [build_parity_lift(S3, _sign(S3), 2, [0], radius=2),
                  tiny_seam_group()]:
        assert not check_compatibility(group)
        assert_same(compatibility_core(group),
                    scanning_fibers.compatibility_core(group))


@pytest.mark.parametrize("degree, spheres, radius", [
    (3, [0], 2), (3, [1], None), (3, [0, 1], None), (3, [1], 3),
    (4, [0, 1], None),
])
def test_parity_lifts_are_cut(degree, spheres, radius):
    F = PermGroup.symmetric(degree)
    weight = _sign(F)
    ambient = build_full_lift(F, radius=radius or spheres[-1] + 1)
    vertices = [v for r in spheres for v in words_of_length(degree, r)]
    assert_same(build_parity_lift(F, weight, 2, spheres, radius),
                BallGroup.from_elements(
                    [a for a in ambient.elements
                     if sum(weight[a.step_action(v)] for v in vertices) % 2
                     == 0]))


def test_the_census_lift_kernels_are_cut(census_rows, monkeypatch):
    kernels, real = [], census._lifts_by_cocycle
    monkeypatch.setattr(census, "_lifts_by_cocycle", lambda base, kernel: (
        kernels.append((base, kernel, kernel._elements is None))
        or real(base, kernel)))
    census.census_discrete_lifts(census_rows)
    assert len(kernels) == sum(row.has_cocycle for row in census_rows) > 0
    for base, kernel, unmade in kernels:
        assert unmade  # no element object until the lattice reads them
        assert_same(kernel, BallGroup.from_elements(
            scanning_fibers.projection_kernel(build_full_lift(base))))


@pytest.fixture(scope="module")
def kernel_groups(census_rows, lift_rows):
    """The census and rigid-lift classes, full-lift(S4), the radius-3
    full lift of S3, and level 5 of D4's partition tower (484 points, two
    bytes an entry)."""
    tower = build_tower(PermGroup.dihedral(4), "partition", 5,
                        blocks=[[0, 2], [1, 3]])
    return ([row.group for row in census_rows + lift_rows]
            + [build_full_lift(PermGroup.symmetric(4)),
               build_full_lift(PermGroup.symmetric(3), 3),
               tower.level(5).group])


def test_projection_kernels_are_cut(kernel_groups):
    top = kernel_groups[-1]
    assert len(ball_points(4, top.radius)) == 484
    assert top.projection_kernel().order == 4
    for group in kernel_groups:
        assert_same(group.projection_kernel(), BallGroup.from_elements(
            scanning_fibers.projection_kernel(group)))


def test_seam_groups_are_the_step_actions_of_every_kernel_element(
        kernel_groups):
    for group in kernel_groups:
        kernel = scanning_fibers.projection_kernel(group)
        assert seam_groups(group) == {
            w: PermGroup.from_elements({g.step_action(w) for g in kernel})
            for w in words_of_length(group.degree, group.radius - 1)}


def test_v4_is_generated_by_the_greedy_picks():
    assert_same(cli._named_group("V4"), PermGroup.from_elements([
        Perm((0, 1, 2, 3)), Perm((1, 0, 3, 2)),
        Perm((2, 3, 0, 1)), Perm((3, 2, 1, 0))]))
