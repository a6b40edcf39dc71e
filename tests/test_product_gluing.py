"""The prefix-tree gluing kernel against the product loop it replaced.

`balls._glue_fibers` gathers and packs each (neighbour, partner) segment
once per root and grows the packs site by site; the frozen `product_gluing`
loops glue every combination from scratch. One-step full lifts of the six
census classes (full-lift(S3) among them, lifted from radius 2 to 3) and of
S4, the full groups Aut(B(3, r)) for r <= 3 and Aut(B(4, r)) for r <= 2,
drawn groups and drawn block ties must all give identical lists of image
tuples, order included. A full lift keeps the elements it glues, sorted,
and the generators its step glues, which close to exactly its table.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import product_gluing
from random_balls import random_ball_aut
from treeball import constructions, full_aut
from treeball.balls import BallAut, BallGroup, _glue_fibers, ball_points
from treeball.compat import compat_set
from treeball.constructions import build_full_lift
from treeball.permcore import PermGroup, _close, _codec

CHECKED = settings(derandomize=True, deadline=None, max_examples=25,
                   suppress_health_check=[HealthCheck.too_slow])
CENSUS = ["phi_s3", "gamma_s3", "delta_s3", "phi_a3", "pi_one", "pi_both"]


def _s4():
    S4 = PermGroup.symmetric(4)
    return BallGroup(4, 1, [BallAut(p) for p in S4.elements],
                     [BallAut(p) for p in S4.generators])


def unpacked(root, packs):
    """The image tuples of the packs `_glue_fibers` returns for `root`."""
    return list(map(_codec(len(ball_points(root.degree, root.radius + 1)))[1],
                    packs))


def _glued_in_build_order(monkeypatch, build):
    """The image tuples of the packs `_glue_fibers` returns while `build()`
    runs, in the order the lift glues them, and what `build()` returns."""
    glued = []
    real = constructions._glue_fibers

    def keep(root, fibers, block_of=None):
        out = real(root, fibers, block_of)
        glued.extend(unpacked(root, out))
        return out

    monkeypatch.setattr(constructions, "_glue_fibers", keep)
    return glued, build()


@pytest.mark.parametrize("name", CENSUS + ["S4"])
def test_one_step_full_lifts_keep_the_product_order(name, request,
                                                    monkeypatch):
    group = _s4() if name == "S4" else request.getfixturevalue(name)
    want = product_gluing.one_step_full_lift(group)
    got, lifted = _glued_in_build_order(
        monkeypatch, lambda: build_full_lift(group))
    assert got == want
    assert [a.images for a in lifted.elements] == sorted(want)
    closed = _close(lifted.generators, lifted.identity())
    assert tuple(closed) == lifted._table


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
