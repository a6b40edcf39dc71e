"""Gluing fibers, the pruning core, and involutive choice maps."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import perm_shadow
import reclosing
from treeball.balls import BallAut, BallGroup, ball_compatible
from treeball.compat import (CompatCocycle, canonical_cocycle,
                             check_compatibility, check_trivial_seams,
                             compat_set, compatibility_core,
                             find_involutive_cocycles, first_compat_failure,
                             joint_compat_set, seam_witness)
from treeball.constructions import build_parity_lift
from treeball.errors import HypothesisError
from treeball.permcore import Perm, PermGroup, all_subgroups


def tiny_seam_group():
    # two elements, trivial at level one, a single swap hidden in one subtree:
    # the swap has no gluing partner in direction 0, so (C) fails
    e1 = BallAut(Perm((0, 1, 2)))
    swap = BallAut(Perm((0, 2, 1)))
    g = BallAut(e1, (swap, e1, e1))
    return BallGroup.generated([g])


def test_compat_set_fiber_sizes_in_full_group(phi_s3):
    for a in phi_s3.elements:
        for w in range(3):
            fiber = compat_set(phi_s3, a, w)
            assert len(fiber) == 4
            for b in fiber:
                assert ball_compatible(a, b, w)
    ident = phi_s3.identity()
    fiber0 = set(compat_set(phi_s3, ident, 0))
    assert all(b.level1().is_identity() for b in fiber0)


def test_compat_set_list_fallback_agrees(gamma_s3):
    elems = list(gamma_s3.elements)
    for a in elems:
        for w in range(3):
            assert set(compat_set(gamma_s3, a, w)) == set(compat_set(elems, a, w))


def test_joint_compat_set_is_intersection(pi_one):
    for a in list(pi_one.elements)[:8]:
        joint = set(joint_compat_set(pi_one, a, (0, 2)))
        split = set(compat_set(pi_one, a, 0)) & set(compat_set(pi_one, a, 2))
        assert joint == split
    assert set(joint_compat_set(pi_one, pi_one.identity(), ())) == set(pi_one.elements)


def test_fiber_product_containment(gamma_s3, pi_one):
    # partners of a product can always be assembled from partners of the
    # factors, so the fiber of a*b contains the pointwise product of fibers
    for group in (gamma_s3, pi_one):
        elems = list(group.elements)
        for a, b in itertools.product(elems, elems):
            ab = a * b
            for w in range(3):
                fiber_ab = set(compat_set(group, ab, w))
                fiber_a = compat_set(group, a, b.level1()(w))
                fiber_b = compat_set(group, b, w)
                for x, y in itertools.product(fiber_a, fiber_b):
                    assert x * y in fiber_ab


def test_generator_check_settles_whole_group(census_rows, pi_both):
    for row in census_rows:
        g = row.group
        assert check_compatibility(g, generators_only=True) == check_compatibility(g)
    bad = tiny_seam_group()
    assert not check_compatibility(bad, generators_only=True)
    assert not check_compatibility(bad)
    assert check_compatibility(pi_both, generators_only=True)


def test_first_compat_failure_reports_a_real_gap():
    bad = tiny_seam_group()
    a, w = first_compat_failure(bad)
    assert a in bad
    assert all(not ball_compatible(a, b, w) for b in bad.elements)


def test_parity_lift_over_even_sphere_fails_compatibility():
    sgn = {p: 0 if p.sign() == 1 else 1 for p in PermGroup.symmetric(3).elements}
    pi_zero = build_parity_lift(PermGroup.symmetric(3), sgn, 2, [0], radius=2)
    assert pi_zero.order == 24
    assert not check_compatibility(pi_zero)


def test_seam_witness_against_direct_scan(phi_s3, gamma_s3, delta_s3):
    b, w = seam_witness(phi_s3)
    assert not b.is_identity()
    assert ball_compatible(phi_s3.identity(), b, w)
    assert seam_witness(gamma_s3) is None
    assert check_trivial_seams(delta_s3)
    assert not check_trivial_seams(phi_s3)


def test_core_is_whole_group_when_compatible(census_rows):
    for row in census_rows:
        core = compatibility_core(row.group)
        assert core == row.group


def test_core_of_seam_example_is_trivial():
    core = compatibility_core(tiny_seam_group())
    assert core.order == 1


def test_core_is_idempotent_and_maximal():
    sgn = {p: 0 if p.sign() == 1 else 1 for p in PermGroup.symmetric(3).elements}
    pi_zero = build_parity_lift(PermGroup.symmetric(3), sgn, 2, [0], radius=2)
    core = compatibility_core(pi_zero)
    assert check_compatibility(core)
    assert compatibility_core(core) == core
    # independent route: enumerate all subgroups of the ball group, keep the
    # ones whose fibers never empty out, and take the largest
    pg, points, back = perm_shadow.ball_action(pi_zero.elements)
    best = None
    for sub in all_subgroups(pg):
        ball_sub = BallGroup.from_elements([back[p] for p in sub.elements])
        if check_compatibility(ball_sub):
            assert ball_sub.is_subgroup_of(core)
            if best is None or ball_sub.order > best.order:
                best = ball_sub
    assert best == core


def test_canonical_cocycle_requires_rigidity(gamma_s3, phi_s3):
    coc = canonical_cocycle(gamma_s3)
    assert coc.z(gamma_s3.identity(), 0).is_identity()
    with pytest.raises(HypothesisError):
        canonical_cocycle(phi_s3)
    with pytest.raises(HypothesisError):
        canonical_cocycle(tiny_seam_group())


def test_cocycle_counts_across_the_degree_three_landscape(
        gamma_s3, delta_s3, phi_s3, pi_one, pi_both):
    assert len(find_involutive_cocycles(gamma_s3)) == 1
    assert len(find_involutive_cocycles(delta_s3)) == 1
    assert len(find_involutive_cocycles(pi_one)) == 8
    assert len(find_involutive_cocycles(pi_both)) == 0
    assert len(find_involutive_cocycles(phi_s3)) == 0


def test_cocycles_verify_and_lift_faithfully(pi_one):
    maps = find_involutive_cocycles(pi_one)
    keys = set()
    for coc in maps:
        coc.verify()
        keys.add(coc.table_key())
        lifted = reclosing.lifted_group(coc)
        assert lifted.order == pi_one.order
        assert lifted.radius == pi_one.radius + 1
        assert lifted.project() == pi_one
    assert len(keys) == len(maps)


def test_cocycle_search_ignores_generator_choice(pi_one):
    default = {c.table_key() for c in find_involutive_cocycles(pi_one)}
    everything = {c.table_key()
                  for c in find_involutive_cocycles(
                      pi_one, generators=list(pi_one.elements))}
    assert default == everything


def test_section_glues_onto_its_base(gamma_s3):
    coc = canonical_cocycle(gamma_s3)
    for a in gamma_s3.elements:
        lift = coc.section(a)
        assert lift.project(gamma_s3.radius) == a
        for w in range(3):
            assert lift.local_action((w,), gamma_s3.radius) == coc.z(a, w)


def test_cocycle_rejects_broken_tables(gamma_s3):
    coc = canonical_cocycle(gamma_s3)
    table = dict(coc.table)
    ident = gamma_s3.identity()
    other = next(a for a in gamma_s3.elements if not a.is_identity())
    table[(ident, 0)] = other
    with pytest.raises(ValueError):
        CompatCocycle(gamma_s3, table)
    short = dict(coc.table)
    del short[(ident, 1)]
    with pytest.raises(ValueError):
        CompatCocycle(gamma_s3, short)


def satisfies_every_product_rule(cocycle):
    # the definition: z(a*b, w) = z(a, b(w)) * z(b, w) for every pair
    group, z = cocycle.group, cocycle.table
    return all(z[(a * b, w)] == z[(a, b.level1()(w))] * z[(b, w)]
               for a in group.elements for b in group.elements
               for w in range(group.degree))


@pytest.fixture(scope="module")
def valid_cocycles(gamma_s3, delta_s3, pi_one):
    return ([canonical_cocycle(gamma_s3), canonical_cocycle(delta_s3)]
            + find_involutive_cocycles(pi_one))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_one_corrupted_entry_is_rejected(valid_cocycles, data):
    coc = data.draw(st.sampled_from(valid_cocycles))
    key = data.draw(st.sampled_from(sorted(coc.table)))
    table = dict(coc.table)
    table[key] = data.draw(st.sampled_from(
        [b for b in coc.group.elements if b != coc.table[key]]))
    with pytest.raises(ValueError):
        CompatCocycle(coc.group, table)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_product_rule_on_generators_decides_the_whole_rule(valid_cocycles,
                                                          data):
    # Re-pair partners in one direction: a with c, and their old partners
    # with each other. The table stays an involutive choice of partners, so
    # only the product rule can reject it, and checking that rule on the
    # generators must agree with checking it on every pair.
    coc = data.draw(st.sampled_from(valid_cocycles))
    group, z = coc.group, coc.table
    a = data.draw(st.sampled_from(group.elements))
    w = data.draw(st.integers(0, group.degree - 1))
    c = data.draw(st.sampled_from(compat_set(group, a, w)))
    table = dict(z)
    table[(a, w)], table[(c, w)] = c, a
    table[(z[(a, w)], w)], table[(z[(c, w)], w)] = z[(c, w)], z[(a, w)]
    assume(all(table[(table[k], k[1])] == k[0] for k in table))
    assume(all(ball_compatible(x, y, v) for (x, v), y in table.items()))
    candidate = CompatCocycle(group, table, validate=False)
    try:
        candidate.verify()
    except ValueError:
        assert not satisfies_every_product_rule(candidate)
    else:
        assert satisfies_every_product_rule(candidate)
