"""The gluing kernel and the tower step against the product loops.

`balls._glue_fibers` gathers and packs each (neighbour, partner) segment
once per root and grows the packs site by site; the frozen `product_gluing`
loops glue every combination from scratch. Drawn groups and drawn block
ties must give identical lists of image tuples, order included, and the
full groups Aut(B(3, r)) for r <= 3 and Aut(B(4, r)) for r <= 2 identical
tables. A one-step level (`constructions._tower_step`, a lift of each
element below times the kernel up to 256 points) must hold exactly the
loop's elements and the loop's generators, which close to exactly its
table: the three towers to level 4, full lifts of eight named groups to
radius 3, the six census classes lifted to radii 3 and 4, and drawn
gluing groups.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import product_gluing
from random_balls import random_ball_aut
from treeball import errors, full_aut
from treeball.balls import BallAut, BallGroup, _glue_fibers, ball_points
from treeball.cli import _named_group
from treeball.compat import check_compatibility, compat_set
from treeball.constructions import build_full_lift, build_tower, radius_one
from treeball.errors import CapacityError
from treeball.permcore import PermGroup, _close, _codec

CHECKED = settings(derandomize=True, deadline=None, max_examples=25,
                   suppress_health_check=[HealthCheck.too_slow])
CENSUS = ["phi_s3", "gamma_s3", "delta_s3", "phi_a3", "pi_one", "pi_both"]
SL23_BLOCKS = [(0, 1), (2, 5), (3, 7), (4, 6)]


def _s4():
    S4 = PermGroup.symmetric(4)
    return BallGroup(4, 1, [BallAut(p) for p in S4.elements],
                     [BallAut(p) for p in S4.generators])


def unpacked(root, packs):
    """The image tuples of the packs `_glue_fibers` returns for `root`."""
    return list(map(_codec(len(ball_points(root.degree, root.radius + 1)))[1],
                    packs))


@pytest.mark.parametrize("name", CENSUS + ["S4"])
def test_one_step_full_lifts_keep_the_product_order(name, request):
    group = _s4() if name == "S4" else request.getfixturevalue(name)
    want = product_gluing.one_step_full_lift(group)
    lifted = build_full_lift(group)
    assert [a.images for a in lifted.elements] == sorted(want)
    closed = _close(lifted.generators, lifted.identity())
    assert tuple(closed) == lifted._table


def _singletons(group):
    return [(w,) for w in range(group.degree)]


def assert_step_is_the_oracle(below, level, blocks, pinned=None):
    """The step's table and generators are the block-constant product
    loop's, and its generators close to exactly its table: the closure
    cap is the level's order where that is larger, as for full-lift(D4)
    at radius 3, whose 524,288 elements `check_cells` admits."""
    table, gens = product_gluing.one_step_level(below, blocks, pinned)
    pack = _codec(len(table[0]))[0]
    assert level._table == tuple(sorted(map(pack, table)))
    assert [g.images for g in level.generators] == gens
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "CLOSURE_CAP", max(errors.CLOSURE_CAP,
                                              level.order))
        closed = _close(level.generators, level.identity())
    assert tuple(closed) == level._table


@pytest.mark.parametrize("kind", ["pinned-orbit", "pinned-center",
                                  "partition"])
def test_tower_steps_are_the_block_constant_product_loop(kind, flips6,
                                                         sl23):
    # to level 4: 37, 186 and 937 points for flips6, one byte a point up
    # to 256 and two past; sl23's level 3 is certified, not built
    if kind == "partition":
        tower = build_tower(sl23, kind, 4, blocks=SL23_BLOCKS)
    else:
        tower = build_tower(flips6, kind, 4)
    built = [lv.group for lv in tower.levels if lv.group is not None]
    assert len(built) == (2 if kind == "partition" else 4)
    for below, level in zip(built, built[1:]):
        assert_step_is_the_oracle(below, level, tower.blocks,
                                  tower.pinned_block)


@pytest.mark.parametrize("name", ["S3", "A3", "S4", "A4", "D4", "C4", "D5",
                                  "D6"])
def test_full_lift_steps_are_the_product_loop(name):
    # every radius up to 3 that `check_cells` admits, from radius 1
    below = radius_one(_named_group(name))
    for radius in (2, 3):
        try:
            level = build_full_lift(below)
        except CapacityError:
            assert radius == 3
            break
        assert_step_is_the_oracle(below, level, _singletons(below))
        below = level


@pytest.mark.parametrize("name", CENSUS)
def test_census_lifts_to_radii_three_and_four_are_the_product_loop(
        name, request):
    below = request.getfixturevalue(name)
    for radius in (3, 4):
        try:
            level = build_full_lift(below)
        except CapacityError:  # full-lift(S3) at radius 4
            assert (name, radius) == ("phi_s3", 4)
            break
        assert_step_is_the_oracle(below, level, _singletons(below))
        below = level


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([(3, 1), (3, 2), (4, 1)]),
       st.integers(min_value=1, max_value=2))
def test_drawn_gluing_groups_lift_as_the_product_loop(seed, shape, count):
    rng = random.Random(seed)
    group = BallGroup.generated(
        [random_ball_aut(*shape, rng) for _ in range(count)])
    if not check_compatibility(group):
        return
    level = build_full_lift(group)
    if level.order <= 5000:  # the loop glues each element from scratch
        assert_step_is_the_oracle(group, level, _singletons(group))


@pytest.mark.parametrize("degree, radius",
                         [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_full_aut_matches_the_product_loop(degree, radius):
    # the uncached body, over the cached group one radius down
    got = [a.images for a in full_aut.__wrapped__(degree, radius)]
    assert got == product_gluing.full_aut_images(degree, radius)


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([(3, 1), (3, 2), (4, 1)]),
       st.integers(min_value=1, max_value=2))
def test_drawn_groups_glue_in_product_order(seed, shape, count):
    rng = random.Random(seed)
    group = BallGroup.generated(
        [random_ball_aut(*shape, rng) for _ in range(count)])
    for a in group.elements:
        fibers = [compat_set(group, a, w) for w in range(group.degree)]
        assert (unpacked(a, _glue_fibers(a, fibers))
                == product_gluing.glue_fibers(a, fibers))


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]))
def test_tied_neighbours_glue_in_product_order_over_blocks(seed, shape):
    # both sides are gathers, so the drawn charts need not glue
    rng = random.Random(seed)
    degree = shape[0]
    root = random_ball_aut(*shape, rng)
    label = [rng.randrange(degree) for _ in range(degree)]
    blocks = sorted({tuple(w for w in range(degree) if label[w] == x)
                     for x in label})
    options = [[random_ball_aut(*shape, rng)
                for _ in range(rng.randint(1, 3))] for _ in blocks]
    block_of = {w: i for i, b in enumerate(blocks) for w in b}
    fibers = [options[block_of[w]] for w in range(degree)]
    assert (unpacked(root, _glue_fibers(root, fibers, block_of))
            == product_gluing.glue_blocks(root, options, blocks))
