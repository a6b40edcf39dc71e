"""Products, gluing and documents on both sides of the 256-point split.

Up to 256 points a pack is bytes and a product is one translate; from 257
points an entry takes two bytes and a product is a tuple gather between
unpack and pack (`permcore._codec`). On either side the packed product must
be `Element.__mul__`'s, and `balls._glue_fibers` must glue what the frozen
loops of product_gluing.py glue, each map restricting to its root and
reading its partners back as its charts (`BallAut.children`, which reads no
assembly table). A whole step is made of cosets of its kernel at 189
points and glued element by element at 381, the product loop's level
both times. Documents are written and read through their columnar
layout up to 256 points and through JSON past that, to the same text.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import product_gluing
from test_documents import assert_readings_agree, dumped
from test_product_gluing import assert_step_is_the_oracle, unpacked
from treeball import constructions, documents, permcore
from treeball.balls import BallAut, _glue_fibers, ball_points
from treeball.compat import joint_compat_set
from treeball.constructions import _block_index, build_full_lift, build_tower
from treeball.documents import (document_from_group, group_from_document,
                                parse_document, serialize_document)
from treeball.permcore import Perm, _codec

CHECKED = settings(derandomize=True, deadline=None, max_examples=30,
                   suppress_health_check=[HealthCheck.too_slow])
SL23_BLOCKS = ((0, 1), (2, 5), (3, 7), (4, 6))


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
@CHECKED
@given(st.randoms(use_true_random=False))
def test_packed_products_are_element_products(n, rng):
    a, b = (Perm(rng.sample(range(n), n)) for _ in range(2))
    pack, unpack, by = _codec(n)
    times_a, y = by(pack(a.images)), pack(b.images)
    gathers = []
    with pytest.MonkeyPatch.context() as mp:
        real = permcore._getter
        mp.setattr(permcore, "_getter",
                   lambda images: gathers.append(images) or real(images))
        product = times_a(y)
    assert unpack(product) == (a * b).images
    assert len(product) == len(y) == (n if n <= 256 else 2 * n)
    # only past 256 points is a product a gather of image tuples
    assert gathers == ([] if n <= 256 else [b.images])


@pytest.mark.parametrize("name, kind, blocks, points", [
    ("flips6", "pinned-orbit", None, 186),
    ("sl23", "partition", SL23_BLOCKS, 456),
], ids=["186 points", "456 points"])
def test_tower_gluing_on_each_side_of_the_split(name, kind, blocks, points,
                                                request):
    # level 2 glued one radius up as its step glues it, from at most two
    # partners a block: degree 6 on 186 points, one byte a point; degree 8
    # on 456 points, two bytes a point
    tower = build_tower(request.getfixturevalue(name), kind, 2, blocks=blocks)
    prev, pinned = tower.level(2).group, tower.pinned_block
    d, radius = prev.degree, prev.radius + 1
    assert len(ball_points(d, radius)) == points
    block_of = [_block_index(tower.blocks, w) for w in range(d)]
    for a in prev.elements[:3] + prev.elements[-2:]:
        options = [(a,) if i == pinned else joint_compat_set(prev, a, b)[:2]
                   for i, b in enumerate(tower.blocks)]
        packs = _glue_fibers(a, [options[i] for i in block_of], block_of)
        assert {len(p) for p in packs} == {points if points <= 256
                                           else 2 * points}
        glued = unpacked(a, packs)
        assert glued == product_gluing.glue_blocks(a, options, tower.blocks)
        for images, picks in zip(glued, itertools.product(*options)):
            aut = BallAut.from_images(d, radius, images)
            assert aut.root == a
            assert aut.children == tuple(picks[i] for i in block_of)


@pytest.mark.parametrize("radius, points", [(6, 189), (7, 381)])
def test_one_whole_step_on_each_side_of_the_split(radius, points, gamma_s3,
                                                  monkeypatch):
    # the diagonal lift of S3 one radius up: one byte a point, a lift per
    # element below times the kernel; two bytes, each element glued
    below = build_full_lift(gamma_s3, radius=radius - 1)
    cosets = []
    real = constructions._coset_table
    monkeypatch.setattr(constructions, "_coset_table",
                        lambda *args: cosets.append(args[-1]) or real(*args))
    level = build_full_lift(below)
    assert len(ball_points(3, radius)) == points
    assert cosets == ([points] if points <= 256 else [])
    assert {len(t) for t in level._table} == {points if points <= 256
                                              else 2 * points}
    assert_step_is_the_oracle(below, level, [(0,), (1,), (2,)])


@pytest.mark.parametrize("payload", ["elements", "generators"])
@pytest.mark.parametrize("radius, points", [(6, 189), (7, 381)])
def test_documents_on_each_side_of_the_split(radius, points, payload,
                                             gamma_s3, monkeypatch):
    # the diagonal lift of S3, of order 6, on one byte a point and on two
    group = build_full_lift(gamma_s3, radius=radius)
    assert len(ball_points(3, radius)) == points
    doc = document_from_group(group, payload == "generators")
    text = serialize_document(doc)
    assert text == dumped(doc)
    # only the one-byte side reads through the layout
    assert (documents._read_canonical(text) is None) == (points > 256)
    back = parse_document(text)
    assert back == doc
    assert group_from_document(back) == group
    assert_readings_agree(doc, monkeypatch)
