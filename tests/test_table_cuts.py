"""Derived groups are cut from their parent's packed table.

Projections, the level-1 action, pointwise stabilizers, centers,
compatibility cores, parity lifts and projection kernels each keep packs
of a table the library already holds and pick the greedy's generators over
them (`FiniteGroup._of_table`). The reference is the object route each once
took: `from_elements` over the parent's element objects, filtered or
mapped (`element_filters` for parity lifts and centers), which must give
the same table and the same generators. Seam
groups and V4 are closed from generators instead, and must give the table
that the element route gives.
"""

import itertools

import pytest

import element_filters
import scanning_fibers
from test_compat import tiny_seam_group
from treeball import census, cli, full_aut
from treeball.balls import BallAut, BallGroup, ball_points, words_of_length
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
    assert_same(center(G), element_filters.center(G))


NAMED = ("S3", "S4", "S5", "A4", "A5", "C5", "D4", "D5", "D6", "V4", "SL23",
         "FLIPS6")


def test_centers_match_the_element_filter(census_rows):
    groups = [cli._named_group(name) for name in NAMED] + [
        full_aut(3, 2)] + [row.group for row in census_rows]
    for G in groups:
        assert_same(center(G), element_filters.center(G))
    orders = [center(G).order for G in groups[:len(NAMED)]]
    assert orders == [1, 1, 1, 1, 1, 5, 2, 1, 2, 4, 2, 8]


def _sign(F):
    return {p: 0 if p.sign() == 1 else 1 for p in F.elements}


def _quotient_weight(F, c, kernel):
    """x -> k for x in c^k * kernel: a homomorphism onto Z/m, m = |F| /
    |kernel|, when the kernel is normal with a cyclic quotient that c's
    coset generates."""
    m = F.order // kernel.order
    weight = {c ** k * n: k for k in range(m) for n in kernel.elements}
    assert len(weight) == F.order
    return weight, m


def _weighted(name):
    """A named group with a weight onto Z/m, and m: the sign for S3, S4
    and D4; A3 onto itself; A4 onto A4 / V4."""
    F = cli._named_group(name)
    if name in ("A3", "A4"):
        kernel = (cli._named_group("V4") if name == "A4"
                  else PermGroup.generated((), 3))
        return (F,) + _quotient_weight(F, Perm.from_cycles(
            F.degree, [(0, 1, 2)]), kernel)
    return F, _sign(F), 2


SPHERE_SETS = [list(c) for k in (1, 2, 3)
               for c in itertools.combinations(range(3), k)]
# The element route on D4 past radius 2 makes 524,288 ball automorphisms
# and asks each for up to 17 local actions, tens of seconds, so those four
# sets stay out; S4 and A4 are refused past radius 2 by `check_cells`.
PARITY_CASES = [(name, spheres) for name in ("S3", "A3", "S4", "A4", "D4")
                for spheres in SPHERE_SETS
                if spheres[-1] < 2 or name in ("S3", "A3")]
# A3 on two-byte packs, 381 and 765 points: one set weighs 1 at every
# lift of the 3-cycle, one 0
WIDE_CASES = [("A3", [0, 6], 7), ("A3", [1, 7], 8)]


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
    assert_same(build_parity_lift(F, weight, 2, spheres, radius),
                element_filters.parity_lift(F, weight, 2, spheres, radius))


@pytest.mark.parametrize("name, spheres", PARITY_CASES, ids=[
    "%s-%s" % (name, "".join(map(str, spheres)))
    for name, spheres in PARITY_CASES])
def test_parity_lifts_match_the_element_filter(name, spheres):
    F, weight, modulus = _weighted(name)
    assert_same(build_parity_lift(F, weight, modulus, spheres),
                element_filters.parity_lift(F, weight, modulus, spheres))


@pytest.mark.parametrize("name, spheres, radius", WIDE_CASES)
def test_parity_lifts_read_two_byte_packs(name, spheres, radius):
    F, weight, modulus = _weighted(name)
    lift = build_parity_lift(F, weight, modulus, spheres, radius)
    assert {len(t) for t in lift._table} == {2 * len(ball_points(3, radius))}
    assert lift.order == (1 if spheres[0] == 0 else 3)
    assert_same(lift, element_filters.parity_lift(F, weight, modulus,
                                                  spheres, radius))


def test_parity_lifts_are_built_without_a_step_action(monkeypatch):
    def refuse(self, vertex):
        raise AssertionError("step_action called")

    monkeypatch.setattr(BallAut, "step_action", refuse)
    lifts = [build_parity_lift(*_weighted(name), spheres)
             for name, spheres in PARITY_CASES]
    lifts += [build_parity_lift(*_weighted(name), spheres, radius)
              for name, spheres, radius in WIDE_CASES]
    assert all(lift._elements is None for lift in lifts)
    assert len(lifts) == 25


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
