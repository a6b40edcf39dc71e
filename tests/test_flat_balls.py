"""The flat image-tuple BallAut against the recursive reference in
recursive_balls.py: the same automorphisms, products, views, order and
verdicts on word tables, at degree 3 and radii 1 to 4 (word tables also
at degrees 2 and 4)."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from random_balls import random_ball_aut, random_fiber_element
from recursive_balls import RecursiveBallAut, recursive_compatible
from treeball.balls import (BallAut, ball_compatible, ball_points,
                            words_of_length)
from treeball.permcore import Perm

SEEDS = st.integers(min_value=0, max_value=2 ** 32)
RADII = st.integers(min_value=1, max_value=4)


def pair(aut):
    """The flat automorphism and its recursive twin, built from words."""
    return aut, RecursiveBallAut.from_wordmap(aut.degree, aut.radius,
                                              aut.to_wordmap())


def same(flat, rec):
    if isinstance(rec, Perm):
        return flat == rec
    return ((flat.degree, flat.radius) == (rec.degree, rec.radius)
            and flat.flat() == rec.flat())


@settings(max_examples=40, deadline=None)
@given(SEEDS, RADII)
def test_products_and_inverses_agree(seed, radius):
    rng = random.Random(seed)
    a, ra = pair(random_ball_aut(3, radius, rng))
    b, rb = pair(random_ball_aut(3, radius, rng))
    assert same(a * b, ra * rb)
    assert same(b * a, rb * ra)
    assert same(a.inverse(), ra.inverse())
    assert (a * b).to_wordmap() == (ra * rb).to_wordmap()


@settings(max_examples=40, deadline=None)
@given(SEEDS, RADII)
def test_structural_views_agree(seed, radius):
    rng = random.Random(seed)
    a, ra = pair(random_ball_aut(3, radius, rng))
    assert a.level1() == ra.level1()
    assert same(a.root, ra.root)
    if radius == 1:
        assert a.children is None
    else:
        assert len(a.children) == 3
        for child, rchild in zip(a.children, ra.children):
            assert same(child, rchild)
    for k in range(1, radius + 1):
        assert same(a.project(k), ra.project(k))
    for v in ball_points(3, radius - 1) if radius > 1 else ():
        for k in range(1, radius - len(v) + 1):
            assert same(a.local_action(v, k), ra.local_action(v, k))
    for w in ball_points(3, radius):
        assert a.apply(w) == ra.apply(w)


@settings(max_examples=40, deadline=None)
@given(SEEDS, RADII)
def test_order_and_gluing_agree(seed, radius):
    rng = random.Random(seed)
    auts = [pair(random_ball_aut(3, radius, rng)) for _ in range(6)]
    # equal pairs too: the same object, and an equal product
    auts.append(auts[0])
    auts.append(pair(auts[1][0] * BallAut.identity(3, radius)))
    flat_sorted = sorted(range(len(auts)), key=lambda i: auts[i][0])
    rec_sorted = sorted(range(len(auts)), key=lambda i: auts[i][1])
    assert ([auts[i][0] for i in flat_sorted]
            == [auts[i][0] for i in rec_sorted])
    for (a, ra), (b, rb) in zip(auts, auts[1:]):
        assert (a < b) == (ra < rb)
        assert (a == b) == (ra == rb)
        assert a != b or hash(a) == hash(b)
    a, ra = auts[0]
    for w in range(3):
        partner, rpartner = pair(random_fiber_element(a, w, rng))
        assert ball_compatible(a, partner, w)
        assert recursive_compatible(ra, rpartner, w)
        for b, rb in auts[1:]:
            assert ball_compatible(a, b, w) == recursive_compatible(ra, rb, w)


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.integers(min_value=2, max_value=4))
def test_constructor_glues_like_the_reference(seed, radius):
    rng = random.Random(seed)
    a, ra = pair(random_ball_aut(3, radius, rng))
    rebuilt = BallAut(a.root, a.children)
    assert rebuilt == a
    # a child from another automorphism rarely glues; both agree either way
    b, rb = pair(random_ball_aut(3, radius, rng))
    children = list(a.children)
    children[1] = b.children[1]
    rchildren = list(ra.children)
    rchildren[1] = rb.children[1]
    try:
        mine = BallAut(a.root, children)
    except ValueError as err:
        with pytest.raises(ValueError) as ref:
            RecursiveBallAut(ra.root, rchildren)
        assert str(err) == str(ref.value)
    else:
        assert same(mine, RecursiveBallAut(ra.root, rchildren))


def perturb(table, degree, radius, rng):
    """A word table with one more random defect, or an untouched copy."""
    out = dict(table)
    keys = [k for k in ball_points(degree, radius) if k in table]
    kind = rng.randrange(6)
    if kind == 0:
        # swap two images of the same length
        n = rng.randrange(1, radius + 1)
        same_len = [k for k in keys if len(k) == n]
        if len(same_len) > 1:
            x, y = rng.sample(same_len, 2)
            out[x], out[y] = out[y], out[x]
    elif kind == 1:
        # replace one image by another word of its length
        k = rng.choice(keys)
        out[k] = rng.choice(list(words_of_length(degree, len(k))))
    elif kind == 2:
        # one image one letter too long or too short
        k = rng.choice(keys)
        out[k] = out[k][:-1] if len(k) > 1 and rng.random() < 0.5 else (
            out[k] + ((out[k][-1] + 1) % degree,))
    elif kind == 3:
        # drop a vertex
        del out[rng.choice(keys)]
    elif kind == 4:
        # an image that is not a reduced word
        k = rng.choice(keys)
        out[k] = (out[k][0],) * len(k) if len(k) > 1 else (degree,)
    return out


def assert_same_verdict(degree, radius, table):
    """BallAut.from_wordmap accepts `table` exactly when the reference does,
    with the same automorphism or the same message."""
    try:
        ref = RecursiveBallAut.from_wordmap(degree, radius, table)
    except ValueError as err:
        with pytest.raises(ValueError) as mine:
            BallAut.from_wordmap(degree, radius, table)
        assert str(mine.value) == str(err)
    else:
        assert same(BallAut.from_wordmap(degree, radius, table), ref)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from([(3, 1), (3, 2), (3, 3), (3, 4),
                               (4, 1), (4, 2), (4, 3)]),
       st.integers(min_value=1, max_value=3))
def test_word_tables_are_accepted_exactly_when_the_reference_accepts(
        seed, shape, defects):
    degree, radius = shape
    rng = random.Random(seed)
    table = random_ball_aut(degree, radius, rng).to_wordmap()
    for _ in range(defects):
        table = perturb(table, degree, radius, rng)
    assert_same_verdict(degree, radius, table)


@pytest.mark.parametrize("table, message", [
    ({(0,): (0,), (1,): (0,)}, "not a permutation of 0..n-1: (0, 0)"),
    ({(0,): (1,), (1,): (0,)}, "tree degree must be at least 3"),
])
def test_degree_two_tables_fail_with_the_reference_message(table, message):
    # the center's step is read before the degree is refused
    with pytest.raises(ValueError, match=re.escape(message)):
        BallAut.from_wordmap(2, 1, table)
    assert_same_verdict(2, 1, table)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3))
def test_degree_two_word_tables_fail_as_the_reference_fails(seed, radius):
    # random_ball_aut needs degree 3, so draw any words of the right lengths
    rng = random.Random(seed)
    table = {p: rng.choice(list(words_of_length(2, len(p))))
             for p in ball_points(2, radius)}
    assert_same_verdict(2, radius, table)


def test_some_perturbed_tables_still_parse_and_some_do_not():
    # the hypothesis check above means something only if both verdicts and
    # several kinds of message occur
    verdicts = set()
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        radius = rng.randrange(2, 5)
        table = perturb(random_ball_aut(3, radius, rng).to_wordmap(), 3,
                        radius, rng)
        try:
            BallAut.from_wordmap(3, radius, table)
            verdicts.add(True)
        except ValueError as err:
            verdicts.add(False)
            kinds.add(re.sub(r"[\d(].*", "", str(err)))
    assert verdicts == {True, False}
    assert kinds == {"mapping misses vertex ", "bad image ",
                     "not a permutation of "}
