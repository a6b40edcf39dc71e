"""Packed element tables, against a reference of sorted image tuples.

A group keeps its elements as one sorted table of image tuples packed into
bytes: one byte a point up to 256 points, else two. The table must hold
the same members as the tuples, in the same order; runs found by bisecting
it must be the runs of the tuples; and groups with one element set must be
equal and hash equal, whether built from element objects or from a table.
The element objects of a table-built group are made only when asked for.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scanning_fibers
from child_rss import _run_child
from random_balls import random_ball_aut
from test_class_fibers import drawn_group
from treeball import compat, full_aut
from treeball.balls import BallGroup, ball_points
from treeball.compat import _first_partner
from treeball.constructions import build_full_lift
from treeball.documents import GroupDocument, serialize_document
from treeball.permcore import (Perm, PermGroup, _codec, _identity_images,
                                all_subgroups)

CHECKED = settings(derandomize=True, deadline=None, max_examples=30,
                   suppress_health_check=[HealthCheck.too_slow])
#: (3, 7) has 381 points, so its tables pack two bytes a point
SHAPES = [(3, 1), (3, 2), (3, 3), (4, 2), (3, 7)]


def group_of(seed, shape):
    """A drawn group below radius 7; on the 381 points of B(3, 7), the
    cyclic group of one random automorphism."""
    if shape[1] < 7:
        kind = ("full", "random", "twisted")[seed % 3]
        return drawn_group(seed, shape, kind)
    rng = random.Random(seed)
    return BallGroup.generated([random_ball_aut(*shape, rng)])


def from_table(group):
    """The same group rebuilt from its packed tuples alone."""
    pack = _codec(len(group.identity().images))[0]
    table = sorted(pack(a.images) for a in group.elements)
    return BallGroup(group.degree, group.radius, None, group.generators,
                     _table=table)


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(SHAPES),
       st.integers(min_value=0, max_value=2 ** 32))
def test_packed_tables_match_sorted_tuples(seed, shape, qseed):
    built = group_of(seed, shape)
    ref = sorted(a.images for a in built.elements)
    n = len(ball_points(*shape))
    rng = random.Random(qseed)
    packed = from_table(built)
    assert packed._elements is None
    assert len(packed._table[0]) == (n if n <= 256 else 2 * n)

    # runs: each a slice of the reference, made before and after the
    # element objects exist
    prefixes = [(), ref[0][:shape[0]], _identity_images(n)]
    for _ in range(4):
        images = rng.choice(ref)
        prefixes.append(images[:rng.randint(0, n)])
    for prefix in prefixes:
        want = [t for t in ref if t[:len(prefix)] == prefix]
        assert [a.images for a in packed._run(prefix)] == want
        assert [a.images for a in built._run(prefix)] == want
    assert packed._elements is None

    # members: every element, and a probe exactly when its tuple is one
    members = set(ref)
    probes = [random_ball_aut(*shape, rng) for _ in range(3)]
    for group in (built, packed):
        assert all(a in group for a in built.elements)
        for b in probes:
            assert (b in group) == (b.images in members)
        assert Perm._raw(ref[-1]) not in group

    # order: the table and the elements made from it are the tuples, sorted
    assert packed.order == len(packed) == len(ref)
    assert [a.images for a in packed.elements] == ref
    assert [a.images for a in built.elements] == ref
    assert list(built._table) == sorted(built._table) == list(packed._table)
    ident = _identity_images(n)
    assert all(x is ident[x] for a in packed.elements for x in a.images)

    # one element set: equal groups, equal hashes
    shuffled = list(built.elements)
    rng.shuffle(shuffled)
    again = BallGroup.from_elements(shuffled)
    assert built == packed == again
    assert hash(built) == hash(packed) == hash(again)
    assert packed.is_subgroup_of(built) and built.is_subgroup_of(packed)


@pytest.mark.parametrize("degree", [5, 300])
def test_permutation_tables_at_both_widths(degree):
    cyclic = PermGroup.cyclic(degree)
    ref = sorted(g.images for g in cyclic.elements)
    assert [g.images for g in cyclic.elements] == ref
    assert len(cyclic._table[0]) == (degree if degree <= 256 else 2 * degree)
    assert list(cyclic._table) == sorted(cyclic._table)
    assert all(Perm._raw(t) in cyclic for t in ref)
    assert Perm.from_cycles(degree, [(0, 1)]) not in cyclic
    assert cyclic == PermGroup.generated(cyclic.generators[::-1] * 2, degree)


def assert_first_partners(group, alphas, blocks):
    """`_first_partner` is the scanned fiber's first element: the stored
    one once `elements` is read, and on a group rebuilt from its table,
    one made without making the others."""
    packed = from_table(group)
    for alpha, block in itertools.product(alphas, blocks):
        fiber = scanning_fibers.fiber(group, alpha, block)
        first = _first_partner(group, alpha, block)
        assert first == _first_partner(packed, alpha, block) == (
            fiber[0] if fiber else None)
        assert first is None or any(first is a for a in group.elements)
    assert packed._elements is None


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 2)]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_first_partner_is_the_first_of_the_joint_fiber(seed, shape, qseed):
    group = drawn_group(seed, shape, ("full", "random")[seed % 2])
    rng = random.Random(qseed)
    alpha = rng.choice([group.identity(), rng.choice(group.elements),
                        random_ball_aut(*shape, rng)])
    block = rng.sample(range(shape[0]), rng.randint(1, shape[0]))
    assert_first_partners(group, [alpha], [block])


@pytest.mark.parametrize("radius, points", [(6, 189), (7, 381)])
def test_first_partner_on_each_side_of_the_split(radius, points, gamma_s3,
                                                 monkeypatch):
    # the diagonal lift of S3: its packs are charted on one byte a point,
    # and its elements keyed one by one on two
    group = build_full_lift(gamma_s3, radius=radius)
    assert len(ball_points(3, radius)) == points
    keyed, real = [], compat._offer_key
    monkeypatch.setattr(compat, "_offer_key",
                        lambda b, w: keyed.append(w) or real(b, w))
    rng = random.Random(radius)
    alphas = group.elements + tuple(random_ball_aut(3, radius, rng)
                                    for _ in range(4))
    assert_first_partners(group, alphas, [(0,), (1, 2), (0, 1, 2)])
    assert bool(keyed) == (points > 256)


def test_the_table_answers_membership_equality_and_inclusion(census_rows,
                                                            lift_rows):
    # every subgroup of Aut(B(3,2)), the census classes and the radius-3
    # full lift of S3, against scans and sets of their element objects
    ambient = {radius: full_aut(3, radius) for radius in (2, 3)}
    groups = (all_subgroups(BallGroup.from_elements(ambient[2]))
              + [row.group for row in census_rows + lift_rows]
              + [build_full_lift(PermGroup.symmetric(3), 3)])
    for G in groups:
        top = G.elements[-1]
        # a shorter pack that starts entries, and another kind of element
        strangers = [top.project(G.radius - 1), Perm(top.images)]
        scan = [y.images for y in G.elements]
        for x in ambient[G.radius]:
            assert (x in G) == (x.images in scan)
        for x in strangers:
            assert x not in G and x not in G.elements
    sets = [frozenset(G.elements) for G in groups]
    images = [frozenset(y.images for y in G.elements) for G in groups]
    twins = 0
    for G, S, I in zip(groups, sets, images):
        for H, T, J in zip(groups, sets, images):
            assert (G == H) == (S == T)
            assert G != H or hash(G) == hash(H)
            twins += G == H and G is not H
            assert G.is_subgroup_of(H) == (I <= J)
    assert twins  # census classes are lattice groups, built a second time
    # repeats, given out of order, are kept once
    full = groups[-1]
    again = BallGroup.from_elements(full.elements[::-1] * 2)
    assert again == full and again.elements == full.elements


def test_levels_keep_only_their_table_until_asked():
    lift = build_full_lift(PermGroup.symmetric(4))
    assert lift._elements is None and lift.order == 31104
    kernel = lift.projection_kernel()
    assert lift._elements is None and len(kernel) == 1296
    assert lift.elements[:len(kernel)] == kernel


@pytest.mark.slow
def test_pinned_orbit_level_four_is_held_packed():
    # level 4 is 32,768 tables of 936 points, two bytes a point: about 62 MB
    # where the image tuples took 247 MB
    out, err, code, peak = _run_child("tower", "pinned-orbit", "--steps", "4")
    assert (code, out, err) == (0, "level 1: order 8\nlevel 2: order 128\n"
                                "level 3: order 2048\nlevel 4: order 32768\n",
                                "")
    assert peak < 130 * 1024


def test_radius_three_full_lift_is_written_from_its_table(tmp_path):
    # 3,072 tables of 21 points go from the packed table to the file's
    # bytes: no element objects, no text copy; 17.7 MB, where making each
    # element and a str of the 1.25 MB text peaked at 19.9 MB
    path = tmp_path / "fls3r3.json"
    out, err, code, peak = _run_child("construct", "full-lift", "S3",
                                      "--radius", "3", "--out", str(path))
    assert (code, err) == (0, "")
    assert path.stat().st_size == 1253517
    assert peak < 19.5 * 1024


@pytest.mark.slow
def test_radius_four_generator_closure_is_held_packed(tmp_path):
    # three random radius-4 generators close past 491,520 elements of 45
    # points before the cap stops them: about 75 MB as packs, where the
    # image tuples took 230 MB
    rng = random.Random(7)
    path = tmp_path / "radius-4.json"
    path.write_text(serialize_document(GroupDocument(3, 4, generators=tuple(
        random_ball_aut(3, 4, rng) for _ in range(3)))))
    out, err, code, peak = _run_child("check-c", "--in", str(path))
    assert (code, out, err) == (
        2, "", "Error: closure exceeded cap of 500000 after reaching 491520 "
        "elements, closing 3 generators, automorphisms of the radius-4 ball "
        "of degree 3\n")
    assert peak < 100 * 1024
