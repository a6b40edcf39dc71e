"""End-to-end acceptance checks.

Each test covers one acceptance item and reports a single verdict line;
run this module with `pytest tests/test_acceptance.py -s` to see them all.
"""

import contextlib
import itertools
import random
import time

import scanning_fibers
from normal_structure import (is_subnormal, normal_subgroups,
                              structure_subgroups, subnormal_depth)
from random_balls import random_ball_aut
from treeball import full_aut
from treeball.balls import BallAut, BallGroup, ball_points, full_aut_order
from treeball.census import (are_conjugate_in, census_compatible_classes,
                             census_discrete_lifts)
from treeball.compat import (CompatCocycle, check_compatibility,
                             check_trivial_seams, compat_set,
                             find_involutive_cocycles)
from treeball.constructions import (build_centered, build_diagonal,
                                    build_full_lift, build_parity_lift,
                                    build_tower, build_wreath_local)
from treeball.permcore import (Perm, PermGroup, classify_action,
                               invariant_subgroups_of_power)
from treeball.universal import (count_restrictions, is_discrete_universal,
                                iter_extensions, local_action_group,
                                seam_groups)

ID3 = Perm((0, 1, 2))
FIX = {0: Perm((0, 2, 1)), 1: Perm((2, 1, 0)), 2: Perm((1, 0, 2))}


@contextlib.contextmanager
def criterion(tag, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %-3s %-42s FAIL" % (tag, label))
        raise
    print("ACCEPTANCE %-3s %-42s PASS" % (tag, label))


def sign_weight(G):
    return {p: (0 if p.sign() == 1 else 1) for p in G.elements}


def hidden_swap_group():
    e1 = BallAut(ID3)
    return BallGroup.generated(
        [BallAut(e1, (BallAut(FIX[0]), e1, e1))])


def test_criterion_1_degree3_census():
    with criterion("1", "degree-3 radius-2 census in under 10s"):
        start = time.perf_counter()
        rows = census_compatible_classes(3, 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, "census took %.1fs" % elapsed
        assert len(rows) == 6
        assert [r.order for r in rows] == [3, 6, 12, 24, 24, 48]
        assert all(r.compatible for r in rows)
        assert [r.order for r in rows if r.trivial_seams] == [3, 6, 12]
        assert [r.order for r in rows if r.has_cocycle] == [3, 6, 12, 24]
        assert rows[4].has_cocycle and rows[4].order == 24
        assert rows[4].description == "parity(S_3,{1})"


def test_criterion_2_new_rigid_lifts():
    with criterion("2", "two fresh rigid classes one level up, <2min"):
        base = census_compatible_classes(3, 2)
        start = time.perf_counter()
        lifts = census_discrete_lifts(base)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, "lift search took %.1fs" % elapsed
        fresh = [r for r in lifts if r.gamma_image_of is None]
        assert sorted(r.order for r in fresh) == [24, 48]
        base_rep = next(r for r in base
                        if r.order == 24 and r.has_cocycle).group
        for row in fresh:
            assert row.radius == 3
            assert row.compatible and row.trivial_seams
            assert row.group.project() == base_rep


def test_criterion_3_constructions_land_in_census_classes():
    with criterion("3", "named constructions rebuild the classes"):
        S3 = PermGroup.symmetric(3)
        A3 = PermGroup.alternating(3)
        sgn = sign_weight(S3)
        built = [
            ("diagonal(S_3)", build_diagonal(S3), 6),
            ("centered(S_3)", build_centered(S3, center=S3.stabilizer(0)), 12),
            ("parity(S_3,{0,1})", build_parity_lift(S3, sgn, 2, [0, 1]), 24),
            ("parity(S_3,{1})", build_parity_lift(S3, sgn, 2, [1]), 24),
            ("full-lift(S_3)", build_full_lift(S3), 48),
            ("full-lift(A_3)", build_full_lift(A3), 3),
        ]
        rows = {r.description: r for r in census_compatible_classes(3, 2)}
        ambient = full_aut(3, 2)
        for name, group, order in built:
            assert group.order == order, name
            assert are_conjugate_in(ambient, group, rows[name].group), name


def test_criterion_4_explicit_cocycle_table():
    with criterion("4", "parity cocycle matches the frozen table"):
        S3 = PermGroup.symmetric(3)
        pi_one = build_parity_lift(S3, sign_weight(S3), 2, [1])
        pi_both = build_parity_lift(S3, sign_weight(S3), 2, [0, 1])
        kappa = {i: BallAut(BallAut(ID3),
                            tuple(BallAut(ID3 if j == i else FIX[j])
                                  for j in range(3)))
                 for i in range(3)}
        tau = {i: BallAut(BallAut(FIX[i]),
                          tuple(BallAut(ID3 if j == i else FIX[i])
                                for j in range(3)))
               for i in range(3)}
        for i in range(3):
            assert kappa[i] in pi_one and tau[i] in pi_one
        matching = []
        for z in find_involutive_cocycles(pi_one):
            diag = all(z.z(tau[i], i) == kappa[(i - 1) % 3]
                       for i in range(3))
            off = all(z.z(tau[i], j) == tau[i] * kappa[j]
                      for i in range(3) for j in range(3) if j != i)
            if diag and off:
                matching.append(z)
        assert len(matching) == 1
        assert find_involutive_cocycles(pi_both) == []


def test_criterion_5_invariant_power_subgroups():
    with criterion("5", "four invariant subgroups in reflection powers"):
        for p in (3, 5, 11, 13):
            D = PermGroup.dihedral(p)
            reflection = Perm(tuple((p - i) % p for i in range(p)))
            H = PermGroup.from_elements([Perm.identity(p), reflection])
            assert len(invariant_subgroups_of_power(D, H, p)) == 4, p


def _wreath_cocycle_table(w):
    group = w.group
    flip = Perm((1, 0))
    ident = BallAut.identity(group.degree, group.radius)
    table = {}
    for x in range(group.degree):
        table[(ident, x)] = ident
    seeds = []
    for lam in range(w.slot_count):
        inner, outer = w.inner[lam][flip], w.outer[lam][flip]
        for x in range(group.degree):
            _, slot = w.decode(x)
            table[(inner, x)] = inner if slot == lam else outer
            table[(outer, x)] = outer if slot == lam else inner
        seeds.extend([inner, outer])
    top = w.top[flip]
    for x in range(group.degree):
        table[(top, x)] = top
    seeds.append(top)

    frontier = [ident] + list(seeds)
    known = set(frontier)
    while frontier:
        nxt = []
        for b in frontier:
            for s in seeds:
                y = s * b
                if y in known:
                    continue
                for x in range(group.degree):
                    table[(y, x)] = table[(s, b.level1()(x))] * table[(b, x)]
                known.add(y)
                nxt.append(y)
        frontier = nxt
    return table


def test_criterion_6_wreath_extension_and_its_cocycle():
    with criterion("6", "slot-wreath group carries the stated cocycle"):
        w = build_wreath_local(PermGroup.cyclic(2), PermGroup.cyclic(2))
        assert w.group.order == 32
        assert check_compatibility(w.group)
        assert not check_trivial_seams(w.group)
        table = _wreath_cocycle_table(w)
        assert len(table) == 32 * 4
        CompatCocycle(w.group, table)


def test_criterion_7a_local_actions_compose_as_cocycles():
    with criterion("7a", "chain rule on 1000+ random composites"):
        rng = random.Random(2024)
        sites = ((),) + ball_points(3, 2)
        checked = 0
        for _ in range(120):
            g = random_ball_aut(3, 3, rng)
            h = random_ball_aut(3, 3, rng)
            gh = g * h
            for v in sites:
                assert gh.local_action(v, 1) == \
                    g.local_action(h.apply(v), 1) * h.local_action(v, 1)
                checked += 1
        assert checked >= 1000


def test_criterion_7b_fibers_multiply_into_fibers():
    with criterion("7b", "fiber products stay in product fibers"):
        for row in census_compatible_classes(3, 2):
            group = row.group
            elems = list(group.elements)
            for a, b in itertools.product(elems, elems):
                ab = a * b
                for x in range(3):
                    target = set(compat_set(group, ab, x))
                    for p in compat_set(group, a, b.level1()(x)):
                        for q in compat_set(group, b, x):
                            assert p * q in target


def test_criterion_7c_generator_gluing_decides_everything():
    with criterion("7c", "generator fibers settle the whole group"):
        probes = [r.group for r in census_compatible_classes(3, 2)]
        probes.append(hidden_swap_group())
        S3 = PermGroup.symmetric(3)
        probes.append(build_parity_lift(S3, sign_weight(S3), 2, [0],
                                        radius=2))
        for group in probes:
            assert check_compatibility(group) == scanning_fibers.check_c(group)


def test_criterion_7d_regular_projections_are_rigid():
    with criterion("7d", "regular level-1 actions lift uniquely"):
        regulars = [
            PermGroup.alternating(3),
            PermGroup.cyclic(4),
            PermGroup.generated([Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))], 4),
            PermGroup.cyclic(5),
        ]
        for R in regulars:
            assert classify_action(R).regular
            full = build_full_lift(R)
            assert check_compatibility(full)
            assert set(full.elements) == set(build_diagonal(R).elements)


def test_criterion_7e_radical_trichotomy():
    with criterion("7e", "socle, solvable and nilpotent radicals agree"):
        roster = [
            PermGroup.symmetric(3), PermGroup.symmetric(4),
            PermGroup.alternating(4), PermGroup.alternating(5),
            PermGroup.dihedral(6), PermGroup.cyclic(8),
            PermGroup.symmetric(5),
        ]
        for G in roster:
            assert G.order <= 200
            report = structure_subgroups(G)
            no_abelian = not report.socle_has_abelian_factor()
            assert no_abelian == (report.solvable_radical.order == 1)
            assert no_abelian == (report.nilpotent_radical.order == 1)


def test_criterion_7f_seams_are_subnormal_one_level_down():
    with criterion("7f", "seam groups sit (sub)normally in stabilizers"):
        base = census_compatible_classes(3, 2)
        for row in base:
            level1 = local_action_group(row.group)
            for (x,), seam in seam_groups(row.group).items():
                stab = level1.stabilizer(x)
                assert all(p in stab for p in seam.elements)
                assert any(set(seam.elements) == set(n.elements)
                           for n in normal_subgroups(stab))
        for row in census_discrete_lifts(base):
            level1 = local_action_group(row.group)
            for word, seam in seam_groups(row.group).items():
                stab = level1.stabilizer(word[-1])
                assert all(p in stab for p in seam.elements)
                assert is_subnormal(stab, seam)
                assert subnormal_depth(stab, seam) <= 2


def test_criterion_8_restriction_counts():
    with criterion("8", "restriction counts match enumeration"):
        S3 = PermGroup.symmetric(3)
        sgn = sign_weight(S3)
        gamma = build_diagonal(S3)
        phi = build_full_lift(S3)
        for n in range(2, 7):
            assert count_restrictions(gamma, n) == 6
        assert count_restrictions(phi, 3) == 3072
        assert count_restrictions(phi, 4) == 12582912
        assert count_restrictions(phi, 4) == full_aut_order(3, 4)
        pi_one = build_parity_lift(S3, sgn, 2, [1])
        pi_both = build_parity_lift(S3, sgn, 2, [0, 1])
        assert count_restrictions(pi_one, 3) == 192
        assert count_restrictions(pi_both, 3) == 192
        small_enough = [
            (gamma, 3), (gamma, 4), (build_full_lift(PermGroup.alternating(3)), 3),
            (build_centered(S3, center=S3.stabilizer(0)), 3),
            (pi_one, 3), (pi_both, 3), (phi, 3),
        ]
        for rigid_lift in census_discrete_lifts(census_compatible_classes(3, 2)):
            small_enough.append((rigid_lift.group, 4))
        for group, radius in small_enough:
            formula = count_restrictions(group, radius)
            assert formula <= 20000
            assert len(set(iter_extensions(group, radius))) == formula


def test_criterion_9_discreteness_verdicts():
    with criterion("9", "discreteness matches the rigidity column"):
        rows = census_compatible_classes(3, 2)
        for row in rows:
            assert is_discrete_universal(row.group) == row.trivial_seams
        assert is_discrete_universal(hidden_swap_group())
        wreath = build_wreath_local(PermGroup.cyclic(2), PermGroup.cyclic(2))
        assert not is_discrete_universal(wreath.group)
        flips6 = PermGroup.generated([
            Perm((1, 0, 2, 3, 4, 5)),
            Perm((0, 1, 3, 2, 4, 5)),
            Perm((0, 1, 2, 3, 5, 4)),
        ])
        tower = build_tower(flips6, "pinned-orbit", 3)
        for level in tower.levels:
            assert not is_discrete_universal(level.group)
