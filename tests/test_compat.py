"""Gluing fibers, the pruning core, and involutive choice maps."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import brute_extension
import perm_shadow
import reclosing
import scanning_fibers
from treeball import compat
from treeball.balls import BallAut, BallGroup, ball_compatible, full_aut
from treeball.compat import (CompatCocycle, _cocycle_system,
                             check_compatibility, check_trivial_seams,
                             compat_set, compatibility_core,
                             find_involutive_cocycles, first_compat_failure,
                             joint_compat_set, seam_witness)
from treeball.constructions import build_full_lift, build_parity_lift
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
        assert check_compatibility(g) == scanning_fibers.check_c(g)
    bad = tiny_seam_group()
    assert not check_compatibility(bad)
    assert not scanning_fibers.check_c(bad)
    assert check_compatibility(pi_both)


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


def test_core_is_the_group_itself_unless_something_is_pruned(census_rows):
    for row in census_rows:
        assert check_compatibility(row.group)
        assert compatibility_core(row.group) is row.group
    sgn = {p: 0 if p.sign() == 1 else 1 for p in PermGroup.symmetric(3).elements}
    pi_zero = build_parity_lift(PermGroup.symmetric(3), sgn, 2, [0], radius=2)
    core = compatibility_core(pi_zero)
    assert core.order < pi_zero.order
    # the pruned core is rebuilt from its sorted elements, greedy included
    rebuilt = BallGroup.from_elements(core.elements)
    assert core == rebuilt and core.generators == rebuilt.generators
    assert compatibility_core(core) is core


def test_canonical_cocycle_requires_rigidity(gamma_s3, phi_s3):
    coc = reclosing.canonical_cocycle(gamma_s3)
    assert coc.z(gamma_s3.identity(), 0).is_identity()
    with pytest.raises(HypothesisError):
        reclosing.canonical_cocycle(phi_s3)
    with pytest.raises(HypothesisError):
        reclosing.canonical_cocycle(tiny_seam_group())


def test_a_rigid_census_group_has_its_canonical_cocycle_alone(census_rows,
                                                              lift_rows):
    # the search's one answer is the map the singleton fibers force
    rigid = [row.group for row in census_rows + lift_rows
             if check_trivial_seams(row.group)]
    assert rigid
    for group in rigid:
        assert (find_involutive_cocycles(group)
                == [reclosing.canonical_cocycle(group)])


def test_cocycle_counts_across_the_degree_three_landscape(
        gamma_s3, delta_s3, phi_s3, pi_one, pi_both):
    assert len(find_involutive_cocycles(gamma_s3)) == 1
    assert len(find_involutive_cocycles(delta_s3)) == 1
    assert len(find_involutive_cocycles(pi_one)) == 8
    assert len(find_involutive_cocycles(pi_both)) == 0
    assert len(find_involutive_cocycles(phi_s3)) == 0


# (dim K_F, rank, solution dimension) of the degree-3 cocycle system over the
# census classes; an inconsistent system has neither rank nor solutions
CENSUS_SYSTEMS = {
    "full-lift(A_3)": (0, 0, 0),
    "diagonal(S_3)": (0, 0, 0),
    "centered(S_3)": (0, 0, 0),
    "parity(S_3,{0,1})": (3, None, None),
    "parity(S_3,{1})": (3, 8, 4),
    "full-lift(S_3)": (6, 23, 7),
}


def _system(group):
    gens = [g for g in group.generators if not g.is_identity()]
    return _cocycle_system(group, gens)


def _facts(group):
    dim, rank, particular, null, _ = _system(group)
    return dim, rank, None if particular is None else len(null)


def test_cocycle_system_facts_on_the_census_classes(census_rows):
    assert ({row.description: _facts(row.group) for row in census_rows}
            == CENSUS_SYSTEMS)


def test_cocycle_system_on_the_radius_three_full_lift(phi_s3):
    # 11 generators, each with a 12-bit unknown: rank 117 of 132, and none
    # of the 2^15 sections is involutive
    group = build_full_lift(phi_s3)
    assert len(group.generators) == 11
    assert _facts(group) == (12, 117, 15)
    assert find_involutive_cocycles(group) == []


@pytest.mark.parametrize("spheres", [[1], [0, 1]])
def test_cocycle_system_counts_the_complements(s3, spheres):
    # the sections are the subgroups of the full lift that project
    # bijectively onto the group, found here from the subgroup lattice
    weight = {p: (0 if p.sign() == 1 else 1) for p in s3.elements}
    group = build_parity_lift(s3, weight, 2, spheres)
    complements = [sub for sub in all_subgroups(build_full_lift(group))
                   if sub.order == group.order
                   and {a.root for a in sub.elements} == set(group.elements)]
    _, _, particular, null, _ = _system(group)
    assert len(complements) == (0 if particular is None else 2 ** len(null))


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


def test_cocycles_of_one_group_share_their_fiber_lookups(monkeypatch):
    s3 = PermGroup.symmetric(3)
    sign = {p: int(p.sign() == -1) for p in s3.elements}
    group = build_parity_lift(s3, sign, 2, [1])
    maps = find_involutive_cocycles(group)
    calls = []
    monkeypatch.setattr(compat, "compat_set",
                        lambda *args: calls.append(args) or compat_set(*args))
    group._cache.clear()
    for coc in maps:
        coc.verify()
    # one lookup per (a, w) for the group, not one per cocycle
    assert len(maps) == 8
    assert len(calls) == len(set(calls)) == group.order * group.degree


def test_cocycle_search_ignores_generator_choice(pi_one):
    # the same group, generated by every one of its elements
    everything = BallGroup(pi_one.degree, pi_one.radius, pi_one.elements,
                           pi_one.elements)
    assert ({c.table_key() for c in find_involutive_cocycles(pi_one)}
            == {c.table_key() for c in find_involutive_cocycles(everything)})


def test_section_glues_onto_its_base(gamma_s3):
    (coc,) = find_involutive_cocycles(gamma_s3)
    for a in gamma_s3.elements:
        lift = coc.section(a)
        assert lift.project(gamma_s3.radius) == a
        for w in range(3):
            assert lift.local_action((w,), gamma_s3.radius) == coc.z(a, w)


def test_cocycle_rejects_broken_tables(gamma_s3):
    (coc,) = find_involutive_cocycles(gamma_s3)
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


def satisfies_every_product_rule(group, z):
    # the definition: z(a*b, w) = z(a, b(w)) * z(b, w) for every pair
    return all(z[(a * b, w)] == z[(a, b.level1()(w))] * z[(b, w)]
               for a in group.elements for b in group.elements
               for w in range(group.degree))


@pytest.fixture(scope="module")
def valid_cocycles(gamma_s3, delta_s3, pi_one):
    return (find_involutive_cocycles(gamma_s3)
            + find_involutive_cocycles(delta_s3)
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
    assert _refusal(coc.group, table) == _reference_refusal(coc.group, table)


def _refusal(group, table):
    with pytest.raises(ValueError) as err:
        CompatCocycle(group, table)
    return str(err.value)


def _reference_refusal(group, table):
    with pytest.raises(ValueError) as err:
        brute_extension.verify(group, table)
    return str(err.value)


def _planted_tables(coc):
    """One table per defect that verify names, each planted in `coc`."""
    group, z = coc.group, coc.table
    a, others = group.elements[5], group.elements[1:]
    out = {"choice map misses": {k: v for k, v in z.items() if k != (a, 1)}}
    stranger = next(b for b in full_aut(group.degree, group.radius)
                    if b not in group)
    out["leaves the group"] = {**z, (a, 2): stranger}
    apart = next(b for b in others if b not in compat_set(group, a, 0))
    out["is not a partner"] = {**z, (a, 0): apart}
    # another partner for a alone: its own choice is still someone else
    w, c = next((w, c) for w in range(group.degree)
                for c in compat_set(group, a, w) if c != z[(a, w)])
    out["not involutive"] = {**z, (a, w): c}
    # re-pair a with c and their old partners with each other: involutive
    # partners still, so only the product rule can fail
    for b, w in itertools.product(others, range(group.degree)):
        for c in compat_set(group, b, w):
            t = dict(z)
            t[(b, w)], t[(c, w)] = c, b
            t[(z[(b, w)], w)], t[(z[(c, w)], w)] = z[(c, w)], z[(b, w)]
            if c != z[(b, w)] and all(t[(t[k], k[1])] == k[0] for k in t):
                out["breaks the product rule"] = t
                return out
    raise AssertionError("no re-pairing keeps the table involutive")


def test_verify_names_planted_defects_like_the_reference(pi_one):
    for coc in find_involutive_cocycles(pi_one)[:2]:
        for defect, table in _planted_tables(coc).items():
            text = _refusal(pi_one, table)
            assert defect in text
            assert text == _reference_refusal(pi_one, table)


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
    try:
        CompatCocycle(group, table)
    except ValueError:
        assert not satisfies_every_product_rule(group, table)
    else:
        assert satisfies_every_product_rule(group, table)
