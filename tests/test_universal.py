"""Restriction counting, extensions, seams, and discreteness."""

import random
import sys

import pytest

from normal_structure import is_subnormal, normal_subgroups, subnormal_depth
from depth_restriction import depth_restriction_count, prime_exponents
from random_balls import random_ball_aut
from treeball import full_aut, permcore
from treeball.balls import BallAut, BallGroup, ball_points, full_aut_order
from treeball.compat import check_compatibility
from treeball.constructions import build_full_lift
from treeball.errors import CapacityError, HypothesisError
from treeball.permcore import Perm, PermGroup, factorize
from treeball.universal import (_restriction_count, count_restrictions,
                                edge_inversion, extend_to_ball,
                                is_discrete_universal, iter_extensions,
                                label_respecting_map, local_action_group,
                                pk_local_action, seam_groups)
from walk_assembly import assemble_extension


def hidden_swap_group():
    e1 = BallAut(Perm((0, 1, 2)))
    swap = BallAut(Perm((0, 2, 1)))
    return BallGroup.generated([BallAut(e1, (swap, e1, e1))])


def test_rigid_groups_count_themselves(gamma_s3, delta_s3, phi_a3):
    for n in range(2, 7):
        assert count_restrictions(gamma_s3, n) == 6
    for n in range(2, 5):
        assert count_restrictions(delta_s3, n) == 12
        assert count_restrictions(phi_a3, n) == 3


def test_full_lift_counts_match_the_ball_group(phi_s3):
    assert count_restrictions(phi_s3, 2) == 48
    assert count_restrictions(phi_s3, 3) == 3072
    assert count_restrictions(phi_s3, 4) == 12582912
    assert count_restrictions(phi_s3, 4) == full_aut_order(3, 4)


def test_parity_groups_count_at_depth_three(pi_one, pi_both):
    assert count_restrictions(pi_one, 3) == 192
    assert count_restrictions(pi_both, 3) == 192


def test_streaming_agrees_with_the_formula(gamma_s3, phi_s3, phi_a3,
                                           pi_one, pi_both):
    for group, radius in [(gamma_s3, 3), (gamma_s3, 4), (phi_a3, 3),
                          (pi_one, 3), (pi_both, 3), (phi_s3, 3)]:
        seen = set(iter_extensions(group, radius))
        assert len(seen) == count_restrictions(group, radius)
        sample = next(iter(seen))
        assert sample.radius == radius
        assert sample.project(group.radius) in group


def test_count_failure_modes(phi_s3, gamma_s3):
    with pytest.raises(HypothesisError):
        count_restrictions(phi_s3, 1)
    with pytest.raises(HypothesisError):
        count_restrictions(hidden_swap_group(), 3)
    with pytest.raises(CapacityError):
        count_restrictions(phi_s3, 8)


def test_count_limit_is_the_int64_range(monkeypatch, phi_s3):
    def count_of(total):
        return lambda group, radius: (total, factorize(total))

    monkeypatch.setattr("treeball.universal._restriction_count",
                        count_of(2 ** 63 - 1))
    assert count_restrictions(phi_s3, 3) == 2 ** 63 - 1
    monkeypatch.setattr("treeball.universal._restriction_count",
                        count_of(2 ** 63))
    with pytest.raises(CapacityError):
        count_restrictions(phi_s3, 3)


def test_factored_counts_multiply_out(phi_s3):
    count, factors = _restriction_count(phi_s3, 5)
    total = 1
    for prime, exp in factors:
        total *= prime ** exp
    direct = 48
    for depth in range(1, 4):
        direct *= (4 ** (2 ** (depth - 1))) ** 3
    assert total == count == direct


def test_local_action_cocycle_identity():
    rng = random.Random(77)
    inner = ((),) + ball_points(3, 2)
    checked = 0
    for _ in range(120):
        g = random_ball_aut(3, 3, rng)
        h = random_ball_aut(3, 3, rng)
        gh = g * h
        for v in inner:
            assert gh.local_action(v, 1) == \
                g.local_action(h.apply(v), 1) * h.local_action(v, 1)
            checked += 1
    assert checked >= 1000


def test_label_respecting_maps_compose_by_the_target():
    words = [(), (0,), (2, 1), (0, 1, 0), (1, 2, 1, 0)]
    for w in range(3):
        inv = edge_inversion(w)
        assert inv(()) == (w,)
        for word in words:
            assert inv(inv(word)) == tuple(word)
    translate = label_respecting_map((0, 1))
    for word in words:
        moved = translate(word)
        assert moved != tuple(word)
        double = label_respecting_map((0, 1, 0, 1))
        assert translate(translate(word)) == double(word)


def test_seam_groups_of_the_full_lift(phi_s3):
    seams = seam_groups(phi_s3)
    assert sorted(seams) == [(0,), (1,), (2,)]
    for (w,), P in seams.items():
        assert P.order == 2
        nontrivial = next(p for p in P.elements if not p.is_identity())
        assert nontrivial(w) == w


def test_seams_sit_normally_one_level_down(census_rows):
    for row in census_rows:
        level1 = local_action_group(row.group)
        for (w,), seam in seam_groups(row.group).items():
            stab = level1.stabilizer(w)
            assert all(p in stab for p in seam.elements)
            assert any(seam.order == n.order and
                       set(seam.elements) == set(n.elements)
                       for n in normal_subgroups(stab))


def test_deep_seams_sit_subnormally(lift_rows):
    checked = 0
    for row in lift_rows:
        if row.group is None or row.radius != 3:
            continue
        level1 = local_action_group(row.group)
        for w, seam in seam_groups(row.group).items():
            stab = level1.stabilizer(w[-1])
            assert all(p in stab for p in seam.elements)
            assert is_subnormal(stab, seam)
            assert subnormal_depth(stab, seam) <= 2
            checked += 1
    assert checked > 0


def test_discreteness_verdicts(census_rows, gamma_s3, phi_s3, pi_one,
                               pi_both, flips6):
    for row in census_rows:
        assert is_discrete_universal(row.group) == row.trivial_seams
    assert is_discrete_universal(gamma_s3)
    assert is_discrete_universal(hidden_swap_group())
    assert not is_discrete_universal(phi_s3)
    assert not is_discrete_universal(pi_one)
    assert not is_discrete_universal(pi_both)
    from treeball.constructions import build_tower, build_wreath_local
    wreath = build_wreath_local(PermGroup.cyclic(2), PermGroup.cyclic(2))
    assert not is_discrete_universal(wreath.group)
    tower = build_tower(flips6, "pinned-orbit", 3)
    for lv in tower.levels:
        assert not is_discrete_universal(lv.group)


def test_discreteness_matches_constant_counts(census_rows):
    for row in census_rows:
        k = row.group.radius
        counts = [count_restrictions(row.group, n) for n in (k, k + 1, k + 2)]
        if row.trivial_seams:
            assert counts == [row.order] * 3
        else:
            assert counts[0] < counts[1] < counts[2]


def test_extend_to_ball_deterministic_and_exhaustive(phi_s3, gamma_s3):
    seed = phi_s3.identity()
    stream = list(extend_to_ball(phi_s3, seed, 3))
    assert stream[0].radius == 3
    assert len(set(stream)) == len(stream) == 64
    assert all(e.project(2) == seed for e in stream)
    for g in gamma_s3.elements:
        exts = list(extend_to_ball(gamma_s3, g, 4))
        assert len(exts) == 1
        assert exts[0].project(2) == g
    # the hypotheses are checked on the call, not on the first item
    with pytest.raises(HypothesisError):
        extend_to_ball(phi_s3, BallAut.identity(3, 2), 1)
    outsider = next(a for a in full_aut(3, 2) if a not in gamma_s3)
    with pytest.raises(HypothesisError):
        extend_to_ball(gamma_s3, outsider, 3)


def test_assemble_extension_round_trip():
    rng = random.Random(13)
    for radius in (3, 4):
        for _ in range(10):
            g = random_ball_aut(3, radius, rng)
            charts = {(): g.project(2)}
            for v in ball_points(3, radius - 2):
                charts[v] = g.local_action(v, 2)
            assert assemble_extension(3, radius, charts) == g


def test_pk_local_action_levels(s3, gamma_s3, pi_one, phi_s3):
    level1 = pk_local_action(s3, 1)
    assert level1.order == 6
    assert level1.radius == 1
    level2 = pk_local_action(s3, 2)
    assert level2.order == 48
    assert set(level2.elements) == set(phi_s3.elements)
    assert pk_local_action(gamma_s3, 3).order == 6
    assert pk_local_action(pi_one, 3).order == 192
    back_down = pk_local_action(phi_s3, 1)
    assert back_down.radius == 1
    assert back_down.order == 6
    with pytest.raises(HypothesisError):
        pk_local_action(hidden_swap_group(), 3)
    with pytest.raises(CapacityError):
        pk_local_action(s3, 4)


def test_full_lift_refuses_a_group_that_fails_c():
    with pytest.raises(HypothesisError, match="^gluing fails at direction 0, "
                       "so the full lift does not map onto the group$"):
        build_full_lift(hidden_swap_group())


def test_saturated_count_keeps_every_factor(phi_s3):
    # past 2**63 the product stops, and the exponents are still exact:
    # 48 = 2^4 * 3 at the center, then 4^3 = 2^6 per site behind each
    # neighbour, of which there are 2^68 - 1 at radius 70
    count, factors = _restriction_count(phi_s3, 70)
    assert count == 2 ** 63
    assert factors == [(2, 4 + 6 * (2 ** 68 - 1)), (3, 1)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter prints integers of any size")
def test_count_refuses_an_exponent_the_interpreter_cannot_print(
        monkeypatch, phi_s3, gamma_s3):
    # at a limit of 640 digits, the exponent of 2 at radius R is
    # 4 + 6 * (2^(R-2) - 1) = 3 * 2^(R-1) - 2: radius 2125 gives it 640
    # digits and is counted, radius 2126 gives it 641 and is refused.
    # Past radius 4 * 640 + 3, S >= 2^2561 is refused before it is made,
    # and a group with every fiber 1 makes no S at all
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    refusal = (r"^restriction count at radius %d: a prime's exponent has "
               r"more than 640 digits, the limit for printing an integer$")
    try:
        _, factors = _restriction_count(phi_s3, 2125)
        assert factors == [(2, 3 * 2 ** 2124 - 2), (3, 1)]
        assert len(str(factors[0][1])) == 640
        with pytest.raises(CapacityError, match=refusal % 2126):
            _restriction_count(phi_s3, 2126)
        monkeypatch.setattr("treeball.universal._branch", None)
        for radius in (4 * 640 + 4, 10 ** 30):
            with pytest.raises(CapacityError, match=refusal % radius):
                _restriction_count(phi_s3, radius)
        assert count_restrictions(gamma_s3, 10 ** 30) == 6
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter prints integers of any size")
def test_count_with_the_digit_limit_off_refuses_what_the_default_refuses(
        monkeypatch, phi_s3):
    # a limit of 0 is none; the default of 4,300 digits then bounds the
    # count as it does by default: radius 14283 gives the exponent of 2
    # 4,300 digits and is counted, 14284 gives it 4,301 and is refused, and
    # past radius 4 * 4300 + 3 no S is made
    default = sys.int_info.default_max_str_digits
    assert default == 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _restriction_count(phi_s3, 14283)[1] == [
            (2, 3 * 2 ** 14282 - 2), (3, 1)]
        with pytest.raises(CapacityError, match="at radius 14284: .* more "
                           "than 4300 digits"):
            _restriction_count(phi_s3, 14284)
        monkeypatch.setattr("treeball.universal._branch", None)
        for radius in (4 * default + 4, 10 ** 11):
            with pytest.raises(CapacityError, match="at radius %d: .* more "
                               "than 4300 digits" % radius):
                _restriction_count(phi_s3, radius)
    finally:
        sys.set_int_max_str_digits(limit)


def assert_count_matches_the_depth_loop(group, radius):
    count, factors = _restriction_count(group, radius)
    total, strings = depth_restriction_count(group, radius)
    assert count == total
    assert dict(factors) == prime_exponents(strings)
    assert all(exp > 0 for _, exp in factors)
    assert factors == sorted(factors)


def test_closed_form_count_matches_the_depth_loop(census_rows, gamma_s3,
                                                  delta_s3):
    groups = [row.group for row in census_rows] + [gamma_s3, delta_s3]
    assert len(census_rows) == 6
    for group in groups:
        k = group.radius
        for radius in range(k, k + 61):
            assert_count_matches_the_depth_loop(group, radius)


def test_closed_form_count_matches_the_depth_loop_on_drawn_groups():
    rng = random.Random(40)
    checked = 0
    for degree, k, ngens in [(3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2),
                             (4, 1, 1), (4, 1, 2), (5, 1, 1)] * 4:
        group = BallGroup.generated(
            [random_ball_aut(degree, k, rng) for _ in range(ngens)])
        if not check_compatibility(group):
            continue
        for radius in range(k, k + 13):
            assert_count_matches_the_depth_loop(group, radius)
        checked += 1
    assert checked >= 10


def test_pk_local_action_projects_in_one_closure(monkeypatch, phi_s3):
    # radius 3 down to 1: one greedy closure, with the generators the
    # step-by-step projection would pick
    lifted = pk_local_action(phi_s3, 3)
    stepwise = lifted.project().project()
    closures = []
    greedy = permcore._table_generators

    def counted(packs, identity):
        closures.append(1)
        return greedy(packs, identity)

    monkeypatch.setattr(permcore, "_table_generators", counted)
    down = pk_local_action(lifted, 1)
    assert len(closures) == 1
    assert down.elements == stepwise.elements
    assert down.generators == stepwise.generators


def test_local_action_group_collects_all_charts(phi_s3, gamma_s3, pi_one):
    assert local_action_group(phi_s3).order == 6
    assert local_action_group(gamma_s3).order == 6
    assert local_action_group(pi_one).order == 6
    assert local_action_group(hidden_swap_group()).order == 2
