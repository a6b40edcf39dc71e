"""Permutation-group layer: closures, structure, lattices, actions."""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_conjugacy
import pairwise_power
import scanning_lattice
import treeball
from normal_structure import (is_solvable, is_subnormal, nilpotent_radical,
                              normal_subgroups, socle, solvable_radical,
                              structure_subgroups, subnormal_depth)
from treeball import errors, permcore
from treeball.balls import BallAut, BallGroup, full_aut
from treeball.constructions import build_full_lift
from treeball.errors import CapacityError, HypothesisError
from treeball.permcore import (Perm, PermGroup, _lattice_table,
                               _power_subgroups_generic, _power_subgroups_gf2,
                               _subgroup_sets_brute,
                               _subgroup_sets_by_prime_extension,
                               all_subgroups, are_conjugate_in, center,
                               classify_action, conjugacy_class_key,
                               conjugacy_classes, invariant_subgroups_of_power,
                               small_generating_set_of)

# Subgroup and class counts below are the standard ones for these groups;
# they double as regression pins for the two enumeration routes.
SUBGROUP_COUNTS = {
    "S3": 6, "S4": 30, "A4": 10, "D4": 10, "D6": 16, "A5": 59,
}
CONJUGACY_CLASS_COUNTS = {"S3": 3, "S4": 5, "A4": 4, "A5": 5, "D4": 5}


def _named():
    return {
        "S3": PermGroup.symmetric(3),
        "S4": PermGroup.symmetric(4),
        "A4": PermGroup.alternating(4),
        "D4": PermGroup.dihedral(4),
        "D6": PermGroup.dihedral(6),
        "A5": PermGroup.alternating(5),
    }


def test_perm_algebra_basics():
    a = Perm((1, 2, 0))
    b = Perm((0, 2, 1))
    assert (a * b)(2) == a(b(2))
    assert a.inverse() * a == Perm.identity(3)
    assert a.order() == 3
    assert b.sign() == -1
    assert a.sign() == 1


@given(st.permutations(range(6)), st.permutations(range(6)),
       st.permutations(range(6)))
def test_perm_composition_laws(xs, ys, zs):
    a, b, c = Perm(tuple(xs)), Perm(tuple(ys)), Perm(tuple(zs))
    assert (a * b) * c == a * (b * c)
    assert (a * b).inverse() == b.inverse() * a.inverse()
    for p in range(6):
        assert (a * b)(p) == a(b(p))


def test_generated_closure_orders():
    assert PermGroup.symmetric(4).order == 24
    assert PermGroup.alternating(4).order == 12
    assert PermGroup.dihedral(6).order == 12
    assert PermGroup.cyclic(7).order == 7


NO_ONE_SHAPE = {
    "no permutations": (PermGroup, []),
    "two degrees": (PermGroup, [Perm.identity(2), Perm.identity(3)]),
    "no automorphisms": (BallGroup, []),
    "two ball degrees": (BallGroup, [BallAut.identity(3, 1),
                                     BallAut.identity(4, 1)]),
    "two radii": (BallGroup, [BallAut.identity(3, 1),
                              BallAut.identity(3, 2)]),
}


@pytest.mark.parametrize("name", list(NO_ONE_SHAPE))
def test_element_lists_of_no_one_shape_are_refused(name):
    # one check serves both constructors of both group kinds: a list with
    # no shape of its own, or with two, is a ValueError before any closure
    group, elements = NO_ONE_SHAPE[name]
    with pytest.raises(ValueError, match="shape"):
        group.from_elements(elements)
    with pytest.raises(ValueError, match="shape"):
        group.generated(elements)


def test_a_given_shape_makes_the_trivial_group_and_must_match():
    for group, shape in ((PermGroup, (3,)), (BallGroup, (3, 2))):
        trivial = group.generated((), *shape)
        assert trivial.order == 1
        assert trivial.generators == (trivial.identity(),)
        assert trivial.identity().shape == shape
        with pytest.raises(ValueError, match="mixed element shapes"):
            group.generated([trivial.identity()], 4, 1)


def test_orbit_stabilizer_theorem():
    for G in (PermGroup.dihedral(5), PermGroup.symmetric(4),
              PermGroup.generated([Perm((1, 0, 2, 3, 4, 5)),
                                   Perm((0, 1, 3, 2, 4, 5))])):
        for p in range(G.degree):
            orbit = next(o for o in G.orbits() if p in o)
            assert len(orbit) * G.stabilizer(p).order == G.order


def test_transversal_hits_every_orbit_point():
    G = PermGroup.dihedral(5)
    trans = G.transversal(0)
    assert sorted(trans) == list(range(5))
    for q, t in trans.items():
        assert t(0) == q


def test_classify_action_matrix():
    S3 = classify_action(PermGroup.symmetric(3))
    assert S3.transitive and S3.primitive and not S3.regular
    assert S3.rank == 2

    C4 = classify_action(PermGroup.cyclic(4))
    assert C4.regular and not C4.primitive
    assert C4.minimal_blocks

    V4 = classify_action(PermGroup.from_elements([
        Perm((0, 1, 2, 3)), Perm((1, 0, 3, 2)),
        Perm((2, 3, 0, 1)), Perm((3, 2, 1, 0))]))
    assert V4.regular and V4.semiregular

    D4 = classify_action(PermGroup.dihedral(4))
    assert D4.transitive and not D4.semiregular
    assert not D4.quasiprimitive
    # the reflection four-group is normal, neither transitive nor free
    assert not D4.semiprimitive

    A4 = classify_action(PermGroup.alternating(4))
    assert A4.primitive and A4.quasiprimitive and A4.rank == 2


def test_classify_action_sl23(sl23):
    rep = classify_action(sl23)
    assert sl23.order == 24
    assert rep.transitive and rep.semiprimitive and not rep.quasiprimitive
    assert center(sl23).order == 2


@pytest.fixture(scope="module")
def s5():
    return PermGroup.symmetric(5)


def _flags_by_the_normal_lattice(G):
    """Quasi- and semiprimitivity as defined: every nontrivial normal
    subgroup is transitive, or transitive or semiregular, semiregularity
    read off its point stabilizers. Both are False off transitive groups."""
    if not G.is_transitive():
        return False, False
    normals = [N for N in normal_subgroups(G) if N.order > 1]
    return (all(N.is_transitive() for N in normals),
            all(N.is_transitive() or _semiregular_by_stabilizers(N)
                for N in normals))


def _semiregular_by_stabilizers(G):
    return all(G.stabilizer(p).order == 1 for p in range(G.degree))


def test_classify_action_matches_the_normal_lattice(sl23, flips6, s5):
    groups = {"S4 > %d" % i: H
              for i, H in enumerate(all_subgroups(PermGroup.symmetric(4)))}
    groups.update(("S5 > %d" % i, H) for i, H in enumerate(all_subgroups(s5)))
    for n in range(3, 9):
        groups["D%d" % n] = PermGroup.dihedral(n)
        groups["C%d" % n] = PermGroup.cyclic(n)
    groups["V4"] = PermGroup.from_elements([
        Perm((0, 1, 2, 3)), Perm((1, 0, 3, 2)),
        Perm((2, 3, 0, 1)), Perm((3, 2, 1, 0))])
    groups["SL23"], groups["FLIPS6"] = sl23, flips6
    assert len(groups) == 30 + 156 + 12 + 3
    seen = set()
    for name, G in groups.items():
        rep = classify_action(G)
        flags = (rep.quasiprimitive, rep.semiprimitive)
        assert flags == _flags_by_the_normal_lattice(G), name
        assert rep.semiregular == _semiregular_by_stabilizers(G), name
        seen.add(flags + (rep.transitive,))
    # transitive groups of all three kinds, and intransitive ones
    assert seen == {(True, True, True), (False, True, True),
                    (False, False, True), (False, False, False)}


def test_normal_subgroups_against_definition():
    for name, G in _named().items():
        computed = normal_subgroups(G)
        for N in computed:
            assert all(g * n * g.inverse() in N for g in G.elements
                       for n in N.elements)
        brute = 0
        for H in all_subgroups(G):
            if all(g * h * g.inverse() in H for g in G.elements
                   for h in H.elements):
                brute += 1
        assert brute == len(computed), name


def test_normal_subgroup_counts():
    counts = {name: len(normal_subgroups(G)) for name, G in _named().items()}
    assert counts == {"S3": 3, "S4": 4, "A4": 3, "D4": 6, "D6": 7, "A5": 2}


def test_subgroup_lattice_counts():
    for name, G in _named().items():
        assert len(all_subgroups(G)) == SUBGROUP_COUNTS[name], name


def test_subgroup_enumeration_routes_agree():
    for name, G in _named().items():
        if not is_solvable(G):
            continue
        t = _lattice_table(G)
        assert (_subgroup_sets_by_prime_extension(t, G.order)
                == _subgroup_sets_brute(t)), name


def test_all_subgroups_goes_brute_only_where_the_walk_misses_the_group(
        monkeypatch, s5):
    # the walk reaches G exactly when G is solvable; on A5 and S5 it finds
    # the solvable subgroups, and the brute route finds the rest
    brute, calls = permcore._subgroup_sets_brute, []
    monkeypatch.setattr(permcore, "_subgroup_sets_brute",
                        lambda t: calls.append(t) or brute(t))
    groups = dict(_named(), S5=s5)
    for name, G in groups.items():
        G = PermGroup(G.degree, G.elements, G.generators)  # nothing cached
        calls.clear()
        subgroups = all_subgroups(G)
        assert len(calls) == (not is_solvable(G)), name
        t = _lattice_table(G)
        index = {g: i for i, g in enumerate(t.elements)}
        solvable = {frozenset(map(index.__getitem__, H.elements))
                    for H in subgroups if is_solvable(H)}
        assert _subgroup_sets_by_prime_extension(t, G.order) == solvable, name
    assert [name for name, G in groups.items()
            if not is_solvable(G)] == ["A5", "S5"]


@pytest.fixture(scope="module")
def lattice_groups(pi_one):
    # the full lift of parity(S3,{1}) is the largest lattice the census
    # enumerates; its kernel over the base is the lift kernel
    full = build_full_lift(pi_one)
    groups = dict(_named())
    groups["full-lift(parity(S3,{1}))"] = full
    groups["Aut(B(3,2))"] = BallGroup.from_elements(full_aut(3, 2))
    groups["lift kernel"] = BallGroup.from_elements(full.projection_kernel())
    return groups


def test_prime_extension_matches_the_scanning_reference(lattice_groups):
    orders = {name: G.order for name, G in lattice_groups.items()}
    assert orders["full-lift(parity(S3,{1}))"] == 192
    assert orders["Aut(B(3,2))"] == 48 and orders["lift kernel"] == 8
    counts = {}
    for name, G in lattice_groups.items():
        t = _lattice_table(G)
        found = _subgroup_sets_by_prime_extension(t, G.order)
        assert found == scanning_lattice.subgroup_sets(t, G.order), name
        counts[name] = len(found)
    assert counts["full-lift(parity(S3,{1}))"] == 1120


def test_lattice_members_carry_the_greedy_generators(lattice_groups):
    for name, G in lattice_groups.items():
        for H in all_subgroups(G):
            assert H.generators == small_generating_set_of(
                H.elements, G.identity()), name


def test_table_closure_is_the_generated_subgroup():
    G = PermGroup.symmetric(4)
    t = _lattice_table(G)
    index = {g: i for i, g in enumerate(t.elements)}
    for H in all_subgroups(G):
        seed = [index[g] for g in H.generators]
        assert t.close(seed) == frozenset(index[h] for h in H.elements)
        members = sorted(index[h] for h in H.elements)
        assert [t.elements[i] for i in t.generators(members)] == list(
            H.generators)


def test_subgroups_up_to_conjugacy_counts():
    for G, classes in ((PermGroup.symmetric(4), 11),
                       (PermGroup.alternating(4), 5),
                       (PermGroup.alternating(5), 9)):
        keys = {conjugacy_class_key(G.elements, H) for H in all_subgroups(G)}
        assert len(keys) == classes


@pytest.mark.parametrize("G", [
    PermGroup.symmetric(4), PermGroup.alternating(5),
    BallGroup.from_elements(full_aut(3, 2)),
], ids=["S4", "A5", "Aut-B32"])
def test_class_keys_match_the_element_by_element_keys(G):
    subgroups = all_subgroups(G)
    if isinstance(G, BallGroup):
        assert len(subgroups) == 98
    for H in subgroups:
        assert (conjugacy_class_key(G.elements, H)
                == brute_conjugacy.conjugacy_class_key(G.elements, H))


def test_conjugacy_verdicts_match_the_element_by_element_test():
    S4 = PermGroup.symmetric(4)
    subgroups = all_subgroups(S4)
    verdicts = [are_conjugate_in(S4.elements, H, K)
                for H in subgroups for K in subgroups]
    assert verdicts == [brute_conjugacy.are_conjugate_in(S4.elements, H, K)
                        for H in subgroups for K in subgroups]
    # 11 classes, of sizes 1, 1, 1, 1, 3, 3, 3, 3, 4, 4 and 6
    assert sum(verdicts) == 4 * 1 + 4 * 9 + 2 * 16 + 36


def test_conjugacy_classes_partition():
    for name, G in _named().items():
        classes = conjugacy_classes(G)
        assert sum(len(c) for c in classes) == G.order
        if name in CONJUGACY_CLASS_COUNTS:
            assert len(classes) == CONJUGACY_CLASS_COUNTS[name]


def test_derived_and_radical_structure():
    S4 = PermGroup.symmetric(4)
    assert socle(S4).order == 4
    assert nilpotent_radical(S4).order == 4
    assert solvable_radical(S4).order == 24
    assert is_solvable(S4)
    A5 = PermGroup.alternating(5)
    assert not is_solvable(A5)
    assert solvable_radical(A5).order == 1
    assert socle(A5).order == 60
    assert center(PermGroup.dihedral(4)).order == 2
    assert center(PermGroup.symmetric(4)).order == 1


def test_three_radical_conditions_are_equivalent():
    # For finite groups these stand or fall together: an abelian-free socle,
    # a trivial solvable radical, and a trivial nilpotent radical.
    seen = []
    named = _named()
    named["C6"] = PermGroup.cyclic(6)
    # C2 wr C3 on three blocks of two: one block swap and the block rotation
    named["C2wrC3"] = PermGroup.generated([
        Perm.from_cycles(6, [(0, 1)]),
        Perm.from_cycles(6, [(0, 2, 4), (1, 3, 5)])])
    assert named["C2wrC3"].order == 2 ** 3 * 3
    named["S5"] = PermGroup.symmetric(5)
    for name, G in named.items():
        if G.order > 200:
            continue
        rep = structure_subgroups(G)
        no_abelian = not rep.socle_has_abelian_factor()
        sr_trivial = rep.solvable_radical.order == 1
        fit_trivial = rep.nilpotent_radical.order == 1
        assert no_abelian == sr_trivial == fit_trivial, name
        seen.append(name)
    assert "A5" in seen and "S4" in seen and "S5" in seen


def test_subnormality_chains():
    S4 = PermGroup.symmetric(4)
    V4 = next(N for N in normal_subgroups(S4) if N.order == 4)
    A4 = next(N for N in normal_subgroups(S4) if N.order == 12)
    assert subnormal_depth(S4, V4) == 1
    assert subnormal_depth(S4, A4) == 1
    C2 = PermGroup.from_elements(
        [Perm((0, 1, 2, 3)), Perm((1, 0, 3, 2))])
    assert is_subnormal(S4, C2)
    assert subnormal_depth(S4, C2) == 2
    point_swap = PermGroup.from_elements(
        [Perm((0, 1, 2, 3)), Perm((1, 0, 2, 3))])
    assert not is_subnormal(S4, point_swap)


def test_invariant_power_subgroup_counts_small_primes():
    for p in (3, 5):
        D = PermGroup.dihedral(p)
        H = PermGroup.from_elements(
            [Perm.identity(p), _reflection_fixing_zero(p)])
        found = invariant_subgroups_of_power(D, H, p)
        assert len(found) == 4, p


@pytest.mark.parametrize("p", [11, 13])
def test_invariant_power_subgroup_counts_large_primes(p):
    D = PermGroup.dihedral(p)
    H = PermGroup.from_elements(
        [Perm.identity(p), _reflection_fixing_zero(p)])
    assert len(invariant_subgroups_of_power(D, H, p)) == 4


def _reflection_fixing_zero(p):
    return Perm(tuple((p - i) % p for i in range(p)))


def _brute_power_subgroups(F, slot_groups):
    """Every subset of the slot product closed under products and under F's
    permute-and-conjugate action, by filtering all subsets."""
    count = len(slot_groups)
    tuples = list(itertools.product(*slot_groups))
    ident = tuple(Perm.identity(slot_groups[0][0].degree)
                  for _ in range(count))

    def invariant(subset):
        sset = set(subset)
        for a in F.elements:
            ai = a.inverse()
            for k in subset:
                moved = tuple(a * k[ai(w)] * ai for w in range(count))
                if moved not in sset:
                    return False
        return True

    def closed(subset):
        sset = set(subset)
        if ident not in sset:
            return False
        for x in subset:
            for y in subset:
                prod = tuple(a * b for a, b in zip(x, y))
                if prod not in sset:
                    return False
        return True

    brute = []
    for r in range(1, len(tuples) + 1):
        for combo in itertools.combinations(tuples, r):
            if closed(combo) and invariant(combo):
                brute.append(frozenset(combo))
    return brute


def test_invariant_power_subgroups_brute_force_cross_check():
    # independent route for p=3: filter all subgroups of the cube of H
    p = 3
    D = PermGroup.dihedral(p)
    H = PermGroup.from_elements(
        [Perm.identity(p), _reflection_fixing_zero(p)])
    found = invariant_subgroups_of_power(D, H, p)
    trans = D.transversal(0)
    slot_groups = []
    for w in range(p):
        f = trans[w]
        fi = f.inverse()
        slot_groups.append([f * h * fi for h in H.elements])
    brute = _brute_power_subgroups(D, slot_groups)
    assert len(brute) == len(found)
    assert {frozenset(k.elements) for k in found} == set(brute)


@pytest.mark.parametrize("H, count, total", [
    (PermGroup.symmetric(3).stabilizer(0), 3, 16),
    (PermGroup.cyclic(3), 2, 6),
], ids=["S3-stabilizer-cubed", "C3-squared"])
def test_trivial_action_power_subgroups_brute_force_cross_check(H, count,
                                                                total):
    # a trivial F takes every subgroup of H^count, by the generic route
    trivial = PermGroup.from_elements([Perm.identity(3)])
    found = invariant_subgroups_of_power(trivial, H, count)
    brute = _brute_power_subgroups(trivial, [H.elements] * count)
    assert len(found) == len(brute) == total
    assert {frozenset(k.elements) for k in found} == set(brute)


def _power_case(F, H, count):
    """The arguments invariant_subgroups_of_power passes for F acting."""
    trans = F.transversal(0)
    slots = [tuple(sorted(trans[w] * h * trans[w].inverse()
                          for h in H.elements)) for w in range(count)]
    return F, slots, count, True


def _trivial_case(H, count):
    trivial = PermGroup.from_elements([Perm.identity(3)])
    return trivial, [tuple(H.elements)] * count, count, False


@pytest.mark.parametrize("case", [
    _trivial_case(PermGroup.symmetric(3).stabilizer(0), 3),
    _trivial_case(PermGroup.cyclic(3), 2),
    _trivial_case(PermGroup.cyclic(3), 3),
    _power_case(PermGroup.dihedral(3), PermGroup.from_elements(
        [Perm.identity(3), _reflection_fixing_zero(3)]), 3),
    pytest.param(_power_case(PermGroup.alternating(4),
                             PermGroup.alternating(4).stabilizer(0), 4),
                 marks=pytest.mark.slow),
    _power_case(PermGroup.dihedral(5), PermGroup.from_elements(
        [Perm.identity(5), _reflection_fixing_zero(5)]), 5),
], ids=["S3-stabilizer-cubed", "C3-squared", "C3-cubed", "D3-reflections",
        "A4-on-C3-to-the-4th", "D5-reflections"])
def test_power_subgroups_match_the_pairwise_closure(case):
    # the generic route, and the GF(2) one where invariant_subgroups_of_power
    # would take it, against re-closing every subgroup element by element
    found = _power_subgroups_generic(*case)
    assert found == pairwise_power.power_subgroups(*case)
    assert found[0].order == 1 and len(found) > 1
    if case[3] and all(len(s) == 2 for s in case[1]):
        assert _power_subgroups_gf2(*case[:3]) == found


def test_power_subgroups_refuse_a_slot_product_past_its_cap():
    # the product of the slot sizes is known before any tuple is made
    slots = [[Perm.identity(3)] * 100] * 3
    with pytest.raises(CapacityError, match=r"^slot product order 1000000 "
                       r"exceeds the cap of 200000$"):
        _power_subgroups_generic(PermGroup.symmetric(3), slots, 3, act=True)


def test_power_subgroups_refuse_past_their_count_cap(monkeypatch):
    # C2 x C2 has five subgroups, all invariant under the trivial group
    trivial = PermGroup.generated([Perm.identity(2)], 2)
    c2 = PermGroup.cyclic(2)
    assert len(invariant_subgroups_of_power(trivial, c2, 2)) == 5
    monkeypatch.setattr(errors, "POWER_SUBGROUP_CAP", 4)
    with pytest.raises(CapacityError, match="^invariant subgroup count 5 "
                       "exceeds the cap of 4$"):
        invariant_subgroups_of_power(trivial, c2, 2)


def test_gf2_power_subgroups_at_seven_match_the_generic_route():
    # the pairwise closure takes about a minute at p = 7, so the GF(2)
    # search is held to the generic route, itself checked against it above
    case = _power_case(PermGroup.dihedral(7), PermGroup.from_elements(
        [Perm.identity(7), _reflection_fixing_zero(7)]), 7)
    found = _power_subgroups_gf2(*case[:3])
    assert found == _power_subgroups_generic(*case)
    assert [P.order for P in found] == [1, 2, 64, 128]


def test_invariant_power_subgroups_hypothesis_errors():
    D3 = PermGroup.dihedral(3)
    H = PermGroup.from_elements(
        [Perm.identity(3), _reflection_fixing_zero(3)])
    with pytest.raises(HypothesisError):
        invariant_subgroups_of_power(D3, H, 4)
    moving = PermGroup.generated([Perm((1, 2, 0))])
    with pytest.raises(HypothesisError):
        invariant_subgroups_of_power(D3, moving, 3)


def test_small_generating_set_regenerates():
    G = PermGroup.symmetric(4)
    gens = small_generating_set_of(G.elements, G.identity())
    assert len(gens) <= 3
    assert PermGroup.generated(gens).order == 24


def test_are_conjugate_subgroups():
    S4 = PermGroup.symmetric(4)
    a = PermGroup.generated([Perm((1, 0, 2, 3))])
    b = PermGroup.generated([Perm((0, 1, 3, 2))])
    c = PermGroup.generated([Perm((1, 0, 3, 2))])
    assert are_conjugate_in(S4.elements, a, b)
    assert not are_conjugate_in(S4.elements, a, c)


def test_repr_of_a_raw_tuple_that_is_no_permutation_returns():
    # a cycle walk that never meets its start again used to spin forever;
    # run it in a child process so that a regression fails, not hangs
    src = str(pathlib.Path(treeball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from treeball.permcore import Perm\n"
            "print(repr(Perm._raw((1, 2, 2, 3))))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("Perm")


def test_element_lists_are_sorted_as_image_tuples(monkeypatch):
    # from_elements sorts its input by image tuple, compared in C, and the
    # group keeps that order; a closure is sorted as image tuples too. No
    # element object is compared, on sorted or shuffled input
    elems = list(full_aut(3, 3))
    shuffled = elems[::-1] + elems[:5]
    compared = []
    less = BallAut.__lt__
    monkeypatch.setattr(BallAut, "__lt__",
                        lambda a, b: compared.append(1) or less(a, b))
    G = BallGroup.from_elements(elems)
    assert BallGroup.from_elements(shuffled) == G
    assert BallGroup.generated(G.generators) == G
    assert not compared
    monkeypatch.undo()
    assert G.elements == tuple(elems)
    assert BallGroup.from_elements(shuffled).elements == tuple(elems)
    assert (BallGroup.from_elements(shuffled).generators == G.generators
            == small_generating_set_of(elems, G.identity()))


def test_groups_passed_through_unsorted_are_still_sorted():
    G = build_full_lift(BallGroup.from_elements(full_aut(3, 1)))
    made = [G, center(G), *normal_subgroups(G), *all_subgroups(G)]
    made += [H.stabilizer(0) for H in _named().values()]
    for H in made:
        assert list(H.elements) == sorted(set(H.elements))
