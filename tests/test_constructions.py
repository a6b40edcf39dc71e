"""The standard ways of building ball groups with prescribed local action."""

import itertools

import pytest

import reclosing
from treeball.balls import BallAut, BallGroup, ball_compatible, full_aut
from treeball.compat import (check_compatibility, check_trivial_seams,
                             find_involutive_cocycles)
from treeball.constructions import (build_centered, build_cocycle_extension,
                                    build_diagonal, build_full_lift,
                                    build_kernel_extension, build_parity_lift,
                                    build_split_lift, build_tower,
                                    build_wreath_local, tower_member)
from treeball.errors import HypothesisError
from treeball.permcore import Perm, PermGroup, small_generating_set_of

IDENT = Perm((0, 1, 2))
# the transposition fixing each point of the triangle
FIX = {0: Perm((0, 2, 1)), 1: Perm((2, 1, 0)), 2: Perm((1, 0, 2))}


def id_tuple():
    return (IDENT, IDENT, IDENT)


def test_builder_orders(gamma_s3, delta_s3, phi_s3, phi_a3, pi_one, pi_both):
    assert gamma_s3.order == 6
    assert delta_s3.order == 12
    assert phi_s3.order == 48
    assert phi_a3.order == 3
    assert pi_one.order == 24
    assert pi_both.order == 24
    assert set(pi_one.elements) != set(pi_both.elements)


def test_diagonal_extends_each_element_rigidly(s3, gamma_s3):
    assert gamma_s3.level1() == s3
    for a in gamma_s3.elements:
        assert a.children == (a.root,) * 3
    with_root = {a.root.level1() for a in gamma_s3.elements}
    assert with_root == set(s3.elements)


def test_full_lift_of_symmetric_group_is_everything(phi_s3):
    assert set(phi_s3.elements) == set(full_aut(3, 2))


def test_full_lift_of_regular_group_collapses_to_diagonal(a3, phi_a3):
    # a regular level-one action leaves exactly one gluing partner per
    # direction, so the full lift cannot be larger than the diagonal
    diag = build_diagonal(a3)
    assert set(phi_a3.elements) == set(diag.elements)


def test_centered_variants_differ_but_share_the_order(s3, delta_s3):
    twisted = build_centered(s3, center=s3.stabilizer(0))
    assert twisted.order == 12
    assert delta_s3.order == 12
    assert set(twisted.elements) != set(delta_s3.elements)
    assert check_compatibility(twisted)
    assert check_trivial_seams(twisted)


def test_centered_transversal_dependence(s3):
    swaps = {0: IDENT, 1: Perm((1, 0, 2)), 2: Perm((2, 1, 0))}
    cycles = {0: IDENT, 1: Perm((1, 2, 0)), 2: Perm((2, 0, 1))}
    with_center = build_centered(s3, center=s3.stabilizer(0))
    assert set(build_centered(s3, center=s3.stabilizer(0),
                              transversal=swaps).elements) == \
        set(with_center.elements)
    assert set(build_centered(s3, center=s3.stabilizer(0),
                              transversal=cycles).elements) == \
        set(with_center.elements)
    plain_a = build_centered(s3, transversal=swaps)
    plain_b = build_centered(s3, transversal=cycles)
    assert plain_a.order == plain_b.order == 12
    assert set(plain_a.elements) != set(plain_b.elements)


def test_centered_hypothesis_failures(s3):
    intransitive = PermGroup.generated([Perm((1, 0, 2))], 3)
    with pytest.raises(HypothesisError):
        build_centered(intransitive)
    s4 = PermGroup.symmetric(4)
    with pytest.raises(HypothesisError):
        build_centered(s4, center=s4.stabilizer(0))
    bad_transversal = {0: IDENT, 1: IDENT, 2: Perm((2, 1, 0))}
    with pytest.raises(HypothesisError):
        build_centered(s3, transversal=bad_transversal)


def test_kernel_extension_with_full_stabilizer_is_the_full_lift(s3, phi_s3):
    built = build_kernel_extension(s3, s3.stabilizer(0))
    assert set(built.elements) == set(phi_s3.elements)


def test_kernel_extension_orders_and_failures():
    s4 = PermGroup.symmetric(4)
    rot = PermGroup.generated([Perm((0, 2, 3, 1))], 4)
    big = build_kernel_extension(s4, rot)
    assert big.order == 24 * 3 ** 4
    assert check_compatibility(big)
    with pytest.raises(HypothesisError):
        build_kernel_extension(s4, PermGroup.generated([Perm((0, 2, 1, 3))], 4))
    with pytest.raises(HypothesisError):
        build_kernel_extension(PermGroup.generated([Perm((1, 0, 2))], 3),
                               PermGroup.generated([IDENT], 3))


def test_parity_lift_filters_by_sphere_weight(pi_one, pi_both):
    for a in pi_one.elements:
        total = sum(0 if a.children[w].level1().sign() == 1 else 1
                    for w in range(3))
        assert total % 2 == 0
    for a in pi_both.elements:
        total = 0 if a.level1().sign() == 1 else 1
        total += sum(0 if a.children[w].level1().sign() == 1 else 1
                     for w in range(3))
        assert total % 2 == 0


def test_parity_lift_rejects_non_homomorphic_weights(s3):
    bogus = {p: 1 for p in s3.elements}
    with pytest.raises(HypothesisError):
        build_parity_lift(s3, bogus, 2, [1])
    sgn = {p: 0 if p.sign() == 1 else 1 for p in s3.elements}
    with pytest.raises(HypothesisError):
        build_parity_lift(s3, sgn, 2, [])
    with pytest.raises(HypothesisError):
        build_parity_lift(s3, sgn, 2, [2], radius=2)


def test_split_lifts_recover_the_known_groups(s3, gamma_s3, pi_both, phi_s3):
    diag_twist = (FIX[0], FIX[1], FIX[2])
    even = [id_tuple(),
            (FIX[0], FIX[1], IDENT),
            (FIX[0], IDENT, FIX[2]),
            (IDENT, FIX[1], FIX[2])]
    full = [tuple(FIX[w] if b & (1 << w) else IDENT for w in range(3))
            for b in range(8)]
    lifts = {
        1: build_split_lift(s3, [id_tuple()]),
        2: build_split_lift(s3, [id_tuple(), diag_twist]),
        4: build_split_lift(s3, even),
        8: build_split_lift(s3, full),
    }
    assert [lifts[k].order for k in (1, 2, 4, 8)] == [6, 12, 24, 48]
    assert set(lifts[1].elements) == set(gamma_s3.elements)
    assert set(lifts[2].elements) == \
        set(build_centered(s3, center=s3.stabilizer(0)).elements)
    assert set(lifts[4].elements) == set(pi_both.elements)
    assert set(lifts[8].elements) == set(phi_s3.elements)


def test_split_lift_hypothesis_failures(s3):
    with pytest.raises(HypothesisError):
        build_split_lift(s3, [id_tuple(), (FIX[1], FIX[0], IDENT)])
    with pytest.raises(HypothesisError):
        build_split_lift(s3, [id_tuple(), (FIX[0], IDENT, IDENT)])
    with pytest.raises(HypothesisError):
        build_split_lift(s3, [(FIX[0], FIX[1], FIX[2])])


def test_block_lifts_interpolate_between_diagonal_and_full(s3, gamma_s3,
                                                           phi_s3, sl23):
    whole = build_full_lift(s3, blocks=[[0, 1, 2]])
    assert set(whole.elements) == set(gamma_s3.elements)
    single = build_full_lift(s3, blocks=[[0], [1], [2]])
    assert set(single.elements) == set(phi_s3.elements)
    lifted = build_full_lift(sl23, blocks=[(0, 1), (2, 5), (3, 7), (4, 6)])
    assert lifted.order == 1944
    assert check_compatibility(lifted)


def test_cocycle_extension_by_trivial_kernel_is_the_lift(gamma_s3):
    coc = find_involutive_cocycles(gamma_s3)[0]
    triv = BallGroup.from_elements([BallAut.identity(3, 3)])
    ext = build_cocycle_extension(coc, triv)
    assert set(ext.elements) == set(reclosing.lifted_group(coc).elements)


def _order_two_kernel():
    id2 = BallAut.identity(3, 2)

    def hidden(w):
        kids = [BallAut(FIX[v]) if v != w else BallAut(IDENT)
                for v in range(3)]
        return BallAut(BallAut(IDENT), tuple(kids))

    x = BallAut(id2, (hidden(0), hidden(1), hidden(2)))
    return BallGroup.from_elements([BallAut.identity(3, 3), x])


def test_every_odd_sphere_cocycle_extends_by_the_hidden_swap(pi_one):
    kernel = _order_two_kernel()
    for coc in find_involutive_cocycles(pi_one):
        ext = build_cocycle_extension(coc, kernel)
        assert ext.order == 48
        assert ext.project() == pi_one


def test_cocycle_extension_admissibility_failures(gamma_s3, pi_one):
    coc_gamma = find_involutive_cocycles(gamma_s3)[0]
    kernel = _order_two_kernel()
    # the hidden swap's views are odd around one direction each, so they
    # leave the diagonal group
    with pytest.raises(HypothesisError):
        build_cocycle_extension(coc_gamma, kernel)
    coc_pi = find_involutive_cocycles(pi_one)[0]
    not_inner = BallGroup.from_elements(
        [BallAut.identity(3, 3), coc_pi.section(next(
            a for a in pi_one.elements if not a.is_identity()))])
    with pytest.raises(HypothesisError):
        build_cocycle_extension(coc_pi, not_inner)


def test_wreath_extension_shape():
    c2 = PermGroup.cyclic(2)
    w = build_wreath_local(c2, c2)
    assert w.group.order == 32
    assert w.group.degree == 4
    assert w.group.radius == 2
    assert check_compatibility(w.group)
    assert not check_trivial_seams(w.group)
    for x in range(4):
        assert w.encode(*w.decode(x)) == x
    flip = Perm((1, 0))
    inner = w.inner[0][flip]
    assert inner.level1() == Perm((1, 0, 2, 3))
    assert inner.children[0].level1() == Perm((1, 0, 2, 3))
    assert inner.children[2].level1().is_identity()
    outer = w.outer[1][flip]
    assert outer.level1().is_identity()
    assert outer.children[2].level1().is_identity()
    assert outer.children[0].level1() == Perm((0, 1, 3, 2))
    top = w.top[flip]
    assert top.level1() == Perm((2, 3, 0, 1))
    assert top.children == (top.root,) * 4


def test_wreath_is_two_power_copies_against_the_top(s3):
    c2 = PermGroup.cyclic(2)
    w = build_wreath_local(s3, c2)
    assert w.group.order == 6 ** 4 * 2
    with pytest.raises(HypothesisError):
        build_wreath_local(PermGroup.cyclic(2), PermGroup.cyclic(1))


def test_pinned_towers_agree_on_the_flip_group(flips6):
    by_orbit = build_tower(flips6, "pinned-orbit", 3)
    by_center = build_tower(flips6, "pinned-center", 3)
    assert [lv.order for lv in by_orbit.levels] == [8, 128, 2048]
    assert [lv.order for lv in by_center.levels] == [8, 128, 2048]
    top_a = by_orbit.levels[2].group
    top_b = by_center.levels[2].group
    assert set(top_a.elements) == set(top_b.elements)
    assert check_compatibility(top_a)
    assert not check_trivial_seams(top_a)


def test_partition_tower_on_the_square():
    d4 = PermGroup.dihedral(4)
    tower = build_tower(d4, "partition", 4, blocks=[[0, 2], [1, 3]])
    assert [lv.order for lv in tower.levels] == [8, 32, 128, 512]
    for lv in tower.levels[1:]:
        assert check_compatibility(lv.group)
    assert tower.level(3).order == 128
    with pytest.raises(KeyError):
        tower.level(9)


def test_partition_tower_certificate_on_the_matrix_group(sl23):
    blocks = [(0, 1), (2, 5), (3, 7), (4, 6)]
    tower = build_tower(sl23, "partition", 3, blocks=blocks)
    assert [lv.order for lv in tower.levels] == [24, 1944, 1033121304]
    top = tower.levels[2]
    assert top.group is None
    cert = top.certificate
    assert cert.order == 1944 * 3 ** 12
    below = tower.levels[1].group
    for g in cert.generators:
        assert tower_member(below, tower.blocks, None, g)
    for (gi, w), partner in cert.compat_witnesses.items():
        assert ball_compatible(cert.generators[gi], partner, w)
        assert tower_member(below, tower.blocks, None, partner)
    assert cert.seam is not None
    assert not cert.seam.is_identity()
    assert tower_member(below, tower.blocks, None, cert.seam)
    ident3 = BallAut.identity(8, 3)
    assert any(ball_compatible(ident3, cert.seam, w) for w in range(8))
    assert cert.central is not None
    for g in cert.generators[:4]:
        assert cert.central * g == g * cert.central


def test_tower_membership_rejects_non_members(flips6):
    tower = build_tower(flips6, "pinned-orbit", 2)
    below = tower.levels[0].group
    blocks, pinned = tower.blocks, tower.pinned_block
    for a in list(tower.levels[1].group.elements)[::64]:
        assert tower_member(below, blocks, pinned, a)
    swap01 = BallAut(Perm((1, 0, 2, 3, 4, 5)))
    swap23 = BallAut(Perm((0, 1, 3, 2, 4, 5)))
    ident = below.identity()
    uneven = BallAut(ident, (swap23, ident, ident, ident, ident, ident))
    assert not tower_member(below, blocks, pinned, uneven)
    moved = BallAut(swap01, (swap01 * swap23,) * 2 + (swap01,) * 4)
    assert not tower_member(below, blocks, pinned, moved)


def test_tower_hypothesis_failures(s3, flips6):
    with pytest.raises(HypothesisError):
        build_tower(s3, "pinned-orbit", 2)
    with pytest.raises(HypothesisError):
        build_tower(PermGroup.dihedral(4), "partition", 2)
    with pytest.raises(HypothesisError):
        build_tower(PermGroup.dihedral(4), "partition", 2,
                    blocks=[[0, 1], [2, 3]])
    centerless = PermGroup.generated(
        [Perm((1, 0, 2, 3, 4, 5, 6)), Perm((0, 1, 3, 2, 4, 5, 6)),
         Perm((0, 1, 2, 3, 5, 6, 4)), Perm((0, 1, 2, 3, 4, 6, 5))], 7)
    with pytest.raises(HypothesisError):
        build_tower(centerless, "pinned-center", 2, pinned_point=4)
    with pytest.raises(ValueError):
        build_tower(flips6, "sideways", 2)


def test_ball_generating_set_regenerates(phi_s3):
    gens = small_generating_set_of(phi_s3.elements, phi_s3.identity())
    assert len(gens) < 10
    assert BallGroup.generated(list(gens)).order == 48
