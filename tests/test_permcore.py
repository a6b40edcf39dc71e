"""Permutation-group layer: closures, structure, lattices, actions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeball.errors import HypothesisError
from treeball.permcore import (Perm, PermGroup, _lattice_table,
                               _subgroup_sets_brute,
                               _subgroup_sets_by_prime_extension,
                               all_subgroups, are_conjugate_in, center,
                               classify_action, conjugacy_class_key,
                               conjugacy_classes, invariant_subgroups_of_power,
                               is_solvable, is_subnormal, nilpotent_radical,
                               normal_subgroups, small_generating_set_of,
                               socle, solvable_radical, structure_subgroups,
                               subnormal_depth)

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


def test_subgroups_up_to_conjugacy_counts():
    for G, classes in ((PermGroup.symmetric(4), 11),
                       (PermGroup.alternating(4), 5),
                       (PermGroup.alternating(5), 9)):
        keys = {conjugacy_class_key(G.elements, H) for H in all_subgroups(G)}
        assert len(keys) == classes


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
        [Perm((0, 1, 2, 3)), Perm((1, 0, 3, 2))], degree=4)
    assert is_subnormal(S4, C2)
    assert subnormal_depth(S4, C2) == 2
    point_swap = PermGroup.from_elements(
        [Perm((0, 1, 2, 3)), Perm((1, 0, 2, 3))], degree=4)
    assert not is_subnormal(S4, point_swap)


def test_invariant_power_subgroup_counts_small_primes():
    for p in (3, 5):
        D = PermGroup.dihedral(p)
        H = PermGroup.from_elements(
            [Perm.identity(p), _reflection_fixing_zero(p)], degree=p)
        found = invariant_subgroups_of_power(D, H, p)
        assert len(found) == 4, p


@pytest.mark.parametrize("p", [11, 13])
def test_invariant_power_subgroup_counts_large_primes(p):
    D = PermGroup.dihedral(p)
    H = PermGroup.from_elements(
        [Perm.identity(p), _reflection_fixing_zero(p)], degree=p)
    assert len(invariant_subgroups_of_power(D, H, p)) == 4


def _reflection_fixing_zero(p):
    return Perm(tuple((p - i) % p for i in range(p)))


def test_invariant_power_subgroups_brute_force_cross_check():
    # independent route for p=3: filter all subgroups of the cube of H
    p = 3
    D = PermGroup.dihedral(p)
    H = PermGroup.from_elements(
        [Perm.identity(p), _reflection_fixing_zero(p)], degree=p)
    found = invariant_subgroups_of_power(D, H, p)
    trans = D.transversal(0)
    slot_groups = []
    for w in range(p):
        f = trans[w]
        fi = f.inverse()
        slot_groups.append([f * h * fi for h in H.elements])
    tuples = [(x, y, z) for x in slot_groups[0] for y in slot_groups[1]
              for z in slot_groups[2]]

    def invariant(subset):
        sset = set(subset)
        for a in D.elements:
            ai = a.inverse()
            for k in subset:
                moved = tuple(a * k[ai(w)] * ai for w in range(p))
                if moved not in sset:
                    return False
        return True

    def closed(subset):
        sset = set(subset)
        ident = tuple(Perm.identity(p) for _ in range(p))
        if ident not in sset:
            return False
        for x in subset:
            for y in subset:
                prod = tuple(a * b for a, b in zip(x, y))
                if prod not in sset:
                    return False
        return True

    import itertools
    brute = []
    for r in range(1, len(tuples) + 1):
        for combo in itertools.combinations(tuples, r):
            if closed(combo) and invariant(combo):
                brute.append(frozenset(combo))
    assert len(brute) == len(found)
    assert {frozenset(k.elements) for k in found} == set(brute)


def test_invariant_power_subgroups_hypothesis_errors():
    D3 = PermGroup.dihedral(3)
    H = PermGroup.from_elements(
        [Perm.identity(3), _reflection_fixing_zero(3)], degree=3)
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
