"""Ball geometry and ball automorphisms.

The oracle for word navigation is an independent string-based
implementation kept deliberately different from the library's tuple
recursion: concatenate and cancel adjacent equal letters until stable.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

import perm_shadow
from treeball.balls import (BallAut, BallGroup, ball_compatible, ball_points,
                            ball_size, follow, full_aut, full_aut_order,
                            random_ball_aut, word_path, words_of_length)
from treeball.errors import CapacityError
from treeball.permcore import Perm, PermGroup, small_generating_set_of


def cancel_concat(left, right):
    word = list(left) + list(right)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def full_order_recurrence(d, k):
    # independent route to the ball group size: level-one choices first,
    # then one stabilizer factor per direction, repeated outward
    a, f = 1, 1
    for i in range(2, d + 1):
        a *= i
    for i in range(2, d):
        f *= i
    for _ in range(k - 1):
        a, f = a * f ** d, f ** (d - 1)
    return a


def test_ball_sizes_and_point_counts():
    assert ball_size(3, 1) == 4
    assert ball_size(3, 2) == 10
    assert ball_size(3, 3) == 22
    assert ball_size(4, 2) == 17
    assert len(ball_points(3, 2)) == 9
    assert len(ball_points(3, 3)) == 21
    assert len(list(words_of_length(3, 2))) == 6
    assert len(list(words_of_length(4, 3))) == 36


def test_ball_points_ordering():
    pts = ball_points(3, 2)
    assert pts[:3] == ((0,), (1,), (2,))
    assert all(len(pts[i]) <= len(pts[i + 1]) for i in range(len(pts) - 1))


@given(st.data())
def test_follow_matches_cancellation_oracle(data):
    d = data.draw(st.integers(min_value=3, max_value=5))
    letters = st.integers(min_value=0, max_value=d - 1)
    raw_v = data.draw(st.lists(letters, max_size=6))
    raw_w = data.draw(st.lists(letters, max_size=6))
    v = cancel_concat(raw_v, ())
    w = cancel_concat(raw_w, ())
    assert follow(v, w) == cancel_concat(v, w)


def test_word_path_inverts_follow():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.choice([3, 4])
        v = _random_reduced(rng, d, rng.randrange(5))
        w = _random_reduced(rng, d, rng.randrange(5))
        assert word_path(v, follow(v, w)) == w


def _random_reduced(rng, d, n):
    word = []
    for _ in range(n):
        choices = [x for x in range(d) if not word or x != word[-1]]
        word.append(rng.choice(choices))
    return tuple(word)


def test_full_aut_orders():
    assert full_aut_order(3, 2) == 48
    assert full_aut_order(3, 3) == 3072
    assert full_aut_order(4, 2) == 31104
    assert full_aut_order(3, 4) == 12582912
    for d, k in [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]:
        assert full_aut_order(d, k) == full_order_recurrence(d, k)


def test_full_aut_materializes_small_balls():
    assert len(full_aut(3, 2)) == 48
    assert len(full_aut(3, 3)) == 3072
    with pytest.raises(CapacityError):
        full_aut(3, 4)


def test_from_perm_and_identity():
    p = Perm((2, 0, 1))
    a = BallAut(p)
    assert a.radius == 1
    assert a.level1() == p
    e = BallAut.identity(3, 3)
    assert e.is_identity()
    assert all(e.apply(w) == w for w in ball_points(3, 3))


def test_perm_encoding_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        a = random_ball_aut(3, 3, rng)
        assert perm_shadow.ballaut_from_perm(perm_shadow.to_perm(a),
                                             3, 3) == a


def test_wordmap_round_trip_and_flat():
    rng = random.Random(5)
    for _ in range(25):
        a = random_ball_aut(3, 3, rng)
        m = a.to_wordmap()
        assert BallAut.from_wordmap(3, 3, m) == a
        assert tuple(m[p] for p in ball_points(3, 3)) == a.flat()


def test_wordmap_rejects_corrupt_tables():
    a = random_ball_aut(3, 2, random.Random(1))
    m = a.to_wordmap()
    missing = dict(m)
    del missing[(0, 1)]
    with pytest.raises(ValueError):
        BallAut.from_wordmap(3, 2, missing)
    wrong_len = dict(m)
    wrong_len[(0, 1)] = (0, 1, 0)
    with pytest.raises(ValueError):
        BallAut.from_wordmap(3, 2, wrong_len)
    collide = dict(m)
    collide[(0, 1)] = collide[(0, 2)]
    with pytest.raises(ValueError):
        BallAut.from_wordmap(3, 2, collide)


def test_apply_is_an_action_on_words():
    rng = random.Random(23)
    for d, k in [(3, 2), (3, 3), (4, 2)]:
        for _ in range(30):
            a = random_ball_aut(d, k, rng)
            b = random_ball_aut(d, k, rng)
            for w in ball_points(d, k):
                assert (a * b).apply(w) == a.apply(b.apply(w))
                assert len(a.apply(w)) == len(w)
    # prefix preservation: images of nested vertices nest the same way
    a = random_ball_aut(3, 3, rng)
    for w in ball_points(3, 3):
        for cut in range(1, len(w)):
            assert a.apply(w)[:cut] == a.apply(w[:cut])


@given(st.integers(min_value=0, max_value=47),
       st.integers(min_value=0, max_value=47),
       st.integers(min_value=0, max_value=47))
def test_group_axioms_on_full_ball_group(i, j, k):
    elems = full_aut(3, 2)
    a, b, c = elems[i], elems[j], elems[k]
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == BallAut.identity(3, 2)
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_projection_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(40):
        a = random_ball_aut(3, 3, rng)
        b = random_ball_aut(3, 3, rng)
        assert (a * b).project(2) == a.project(2) * b.project(2)
    a = random_ball_aut(4, 2, rng)
    assert a.project(1).level1() == a.level1()


def test_local_action_chain_rule():
    rng = random.Random(9)
    for _ in range(40):
        a = random_ball_aut(3, 3, rng)
        b = random_ball_aut(3, 3, rng)
        for v in ball_points(3, 2):
            left = (a * b).local_action(v, 1)
            right = a.local_action(b.apply(v), 1) * b.local_action(v, 1)
            assert left == right


def test_pow_and_order():
    elems = full_aut(3, 2)
    rng = random.Random(31)
    for a in rng.sample(list(elems), 12):
        n = a.order()
        assert a ** n == BallAut.identity(3, 2)
        assert all(a ** m != BallAut.identity(3, 2) for m in range(1, n))
        assert a ** -1 == a.inverse()


def test_to_perm_is_faithful_on_ball_points():
    elems = full_aut(3, 2)
    seen = set()
    for a in elems:
        seen.add(perm_shadow.to_perm(a))
    assert len(seen) == 48


def test_ball_group_generated_vs_from_elements():
    elems = full_aut(3, 2)
    G = BallGroup.from_elements(elems)
    H = BallGroup.generated(G.generators)
    assert H.order == 48
    assert set(H.elements) == set(elems)
    assert G.project().order == 6
    kernel = G.projection_kernel()
    assert len(kernel) == 8
    assert all(e.project(1) == BallAut.identity(3, 1) for e in kernel)


def random_generators(seed, radius, count):
    rng = random.Random(seed)
    return [random_ball_aut(3, radius, rng) for _ in range(count)]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3))
def test_ball_closure_matches_the_permutation_closure(seed, radius, count):
    gens = random_generators(seed, radius, count)
    group = BallGroup.generated(gens)
    perms = [perm_shadow.to_perm(g) for g in gens]
    shadow = PermGroup.generated(perms)
    assert ({perm_shadow.to_perm(a) for a in group.elements}
            == set(shadow.elements))
    # an oracle that shares no code with treeball
    oracle = PermutationGroup([Permutation(list(p.images)) for p in perms])
    assert group.order == oracle.order()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3))
def test_generating_set_of_ball_automorphisms_regenerates(seed, radius,
                                                          count):
    group = BallGroup.generated(random_generators(seed, radius, count))
    assume(group.order <= 3072)
    gens = small_generating_set_of(group.elements, group.identity())
    assert set(gens) <= set(group.elements)
    assert set(BallGroup.generated(gens).elements) == set(group.elements)


def test_ball_group_perm_group_is_isomorphic_image():
    G = BallGroup.from_elements(full_aut(3, 2))
    pg, points, back = perm_shadow.ball_action(G.elements)
    assert pg.order == G.order
    assert points == ball_points(3, 2)
    for p in list(pg.elements)[:8]:
        assert back[p] in set(G.elements)


def test_ball_compatible_radius_one():
    # radius 1: gluing along direction w only forces agreement at w
    a = BallAut(Perm((1, 0, 2)))
    b = BallAut(Perm((1, 0, 2)))
    c = BallAut(Perm((0, 2, 1)))
    assert ball_compatible(a, b, 0)
    assert not ball_compatible(a, c, 0)
    assert ball_compatible(a, c, 2) == (a.level1()(2) == c.level1()(2))


def test_ball_compatible_radius_two_symmetry():
    rng = random.Random(17)
    elems = full_aut(3, 2)
    for _ in range(300):
        a, b = rng.sample(list(elems), 2)
        w = rng.randrange(3)
        assert ball_compatible(a, b, w) == ball_compatible(b, a, w)
        if ball_compatible(a, b, w):
            assert b.project(1) == a.local_action((w,), 1)
            assert b.local_action((w,), 1) == a.project(1)
