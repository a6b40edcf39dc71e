"""The standard ways of building ball groups with prescribed local action."""

import functools
import itertools
import re

import pytest

import brute_extension
import reclosing
from treeball import balls, constructions, errors, permcore
from treeball.balls import (BallAut, BallGroup, ball_compatible, ball_points,
                            full_aut)
from treeball.compat import (check_compatibility, check_trivial_seams,
                             compat_set, find_involutive_cocycles)
from treeball.constructions import (build_centered, build_cocycle_extension,
                                    build_diagonal, build_full_lift,
                                    build_kernel_extension, build_parity_lift,
                                    build_split_lift, build_tower,
                                    build_wreath_local, radius_one,
                                    tower_member)
from treeball.errors import CapacityError, HypothesisError
from treeball.permcore import (Perm, PermGroup, _close, all_subgroups,
                               small_generating_set_of)
from treeball.universal import pk_local_action

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


def test_centered_hypothesis_failures():
    intransitive = PermGroup.generated([Perm((1, 0, 2))], 3)
    with pytest.raises(HypothesisError):
        build_centered(intransitive)
    s4 = PermGroup.symmetric(4)
    with pytest.raises(HypothesisError):
        build_centered(s4, center=s4.stabilizer(0))


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


def _block_lift(F, blocks):
    # the lift of F constant on each block, none pinned, one radius out
    return constructions._tower_step(radius_one(F), blocks, None)


def test_block_lifts_interpolate_between_diagonal_and_full(s3, gamma_s3,
                                                           phi_s3, sl23):
    whole = _block_lift(s3, [(0, 1, 2)])
    assert set(whole.elements) == set(gamma_s3.elements)
    single = _block_lift(s3, [(0,), (1,), (2,)])
    assert single.elements == phi_s3.elements
    assert single.generators == phi_s3.generators
    lifted = _block_lift(sl23, SL23_BLOCKS)
    assert lifted.order == 1944
    assert check_compatibility(lifted)


def test_block_lifts_are_one_tower_step(s3, sl23, monkeypatch):
    lifted = _block_lift(sl23, SL23_BLOCKS)
    level = build_tower(sl23, "partition", 2,
                        blocks=SL23_BLOCKS).level(2).group
    assert lifted.elements == level.elements
    assert lifted.generators == level.generators
    assert tuple(_close(lifted.generators, lifted.identity())) == lifted.elements
    # 1944 elements of 8 + 8 * 7 points: one cell past the budget refuses
    monkeypatch.setattr(errors, "TABLE_CELLS", 1944 * 64 - 1)
    with pytest.raises(CapacityError, match=r"^tower step: 1944 elements "
                       r"hold 124416 table cells, beyond the budget of "
                       r"124415$"):
        _block_lift(sl23, SL23_BLOCKS)
    # blocks are checked where towers take them
    with pytest.raises(HypothesisError,
                       match="blocks must partition the points"):
        build_tower(s3, "partition", 2, blocks=[[0, 1]])
    with pytest.raises(HypothesisError,
                       match="the group must map blocks to blocks"):
        build_tower(s3, "partition", 2, blocks=[[0, 1], [2]])


def test_full_lifts_are_glued_by_the_tower_step_alone(s3, phi_s3, flips6,
                                                      monkeypatch):
    # every step is one `_tower_step`, with its phase; no step closes the
    # lift's elements again, and the greedy runs only on the identity's
    # fibers below, one per direction: 2 elements at radius 1, 4 at 2
    def refuse(cls, elements):
        raise AssertionError("a full lift closed its elements again")

    steps, greedy = [], []
    real_step = constructions._tower_step
    real_greedy = constructions.small_generating_set_of

    def step(prev, blocks, pinned, phase="tower step"):
        steps.append((prev.radius, len(blocks), phase))
        return real_step(prev, blocks, pinned, phase)

    def spy(elements, identity):
        greedy.append((identity.radius, len(elements)))
        return real_greedy(elements, identity)

    monkeypatch.setattr(BallGroup, "from_elements", classmethod(refuse))
    monkeypatch.setattr(constructions, "_tower_step", step)
    monkeypatch.setattr(constructions, "small_generating_set_of", spy)
    assert build_full_lift(s3, radius=3).order == 3072
    assert steps == [(1, 3, "full lift"), (2, 3, "full lift")]
    assert greedy == [(1, 2)] * 3 + [(2, 4)] * 3
    assert pk_local_action(phi_s3, 3).order == 3072
    assert build_tower(flips6, "pinned-orbit", 2).levels[1].order == 128
    assert steps[2:] == [(2, 3, "full lift"), (1, 3, "tower step")]


def test_full_lift_refuses_a_radius_below_its_base(s3, gamma_s3):
    assert build_full_lift(s3, radius=1).elements == radius_one(s3).elements
    assert build_full_lift(gamma_s3, radius=2) is gamma_s3
    for F, radius in ((s3, 0), (gamma_s3, 1)):
        with pytest.raises(HypothesisError, match="below the base radius"):
            build_full_lift(F, radius=radius)


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


def _extension_outcome(build, cocycle, kernel):
    """The error a build raises, by type and text, or its group."""
    try:
        group = build(cocycle, kernel)
    except (HypothesisError, ValueError) as err:
        return type(err).__name__, str(err)
    return ([a.images for a in group.elements],
            [g.images for g in group.generators])


def _odd_kernels(pi_one):
    """Kernels that each fail one clause before the views are read."""
    ident = BallAut.identity(3, 3)
    lifted = find_involutive_cocycles(pi_one)[0].section(pi_one.elements[1])
    hidden = _order_two_kernel().elements[1]
    other = next(k for k in build_full_lift(pi_one).projection_kernel()
                 if k not in (ident, hidden))
    return {
        "wrong radius": [BallAut.identity(3, 2)],
        "not inner": [ident, lifted],
        "not a subgroup": [ident, hidden, other],
        "empty": [],
    }


def test_cocycle_extensions_match_the_element_by_element_reference(
        census_rows, gamma_s3, pi_one):
    # every (cocycle, kernel subgroup) pair the rigid-lift search meets,
    # the hidden swap against both groups it is tried on, and kernels
    # planted to fail a clause; each once more as a plain list, which keeps
    # nothing, so that every verdict a kernel group keeps is made afresh.
    # None of these reaches the inversion clause of (b); the degree-5
    # witness below does.
    pairs = []
    for row in census_rows:
        if row.has_cocycle:
            kernel = BallGroup.from_elements(
                build_full_lift(row.group).projection_kernel())
            for coc in find_involutive_cocycles(row.group):
                pairs.extend((coc, sub) for sub in all_subgroups(kernel))
    odd = [_order_two_kernel(), *_odd_kernels(pi_one).values()]
    for coc in find_involutive_cocycles(pi_one) + find_involutive_cocycles(
            gamma_s3):
        pairs.extend((coc, k) for k in odd)
    pairs += [(coc, list(k.elements) if hasattr(k, "elements") else k)
              for coc, k in pairs]
    texts = set()
    for coc, kernel in pairs:
        got = _extension_outcome(build_cocycle_extension, coc, kernel)
        assert got == _extension_outcome(
            brute_extension.build_cocycle_extension, coc, kernel)
        texts.add(got[1] if isinstance(got[1], str) else "built")
    assert texts == {
        "built",
        "kernel elements must live one radius up",
        "kernel elements must restrict to the identity inside",
        "the kernel must be a subgroup",
        "the lifted group must normalize the kernel",
        "kernel views must lie in the base group",
        "element set is not a group",
    }


def test_the_inversion_clause_refuses_cocycles_that_move_the_views():
    # Degree 5, radius 1: F = <(1 2), (3 4)> and the kernel of order 2 that
    # acts as (1 2) in the chart at neighbour 0 and trivially elsewhere. At
    # radius 1, (b) asks that the kernel's views in direction w, a normal
    # subgroup of the stabilizer F_w, be invariant under the involution
    # z(., w) of F_w. The views at 0 are <(1 2)>, and half of the cocycles
    # send (1 2) to (3 4) or (1 2)(3 4): every earlier clause passes, and
    # (b) alone refuses them. For d <= 4, F_w <= S3 has only characteristic
    # normal subgroups, so no radius-1 witness exists there.
    G = radius_one(PermGroup.generated([Perm((0, 2, 1, 3, 4)),
                                        Perm((0, 1, 2, 4, 3))]))
    swap = Perm((0, 2, 1, 3, 4))
    kernel = BallGroup.generated([BallAut(G.identity(), [BallAut(swap)] + [
        BallAut(Perm.identity(5))] * 4)])
    refused = ("HypothesisError",
               "no kernel element inverts the choice map in direction 0")
    verdicts = {}
    for coc in find_involutive_cocycles(G):
        got = _extension_outcome(build_cocycle_extension, coc, kernel)
        assert got == _extension_outcome(
            brute_extension.build_cocycle_extension, coc, kernel)
        verdicts.setdefault(coc.z(BallAut(swap), 0).root, []).append(
            got if got == refused else len(got[0]))
    assert verdicts == {swap: [8] * 8,
                        Perm((0, 1, 2, 4, 3)): [refused] * 4,
                        Perm((0, 2, 1, 4, 3)): [refused] * 4}


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


def test_one_slot_wreath_is_the_diagonal(s3, gamma_s3):
    # one slot leaves no other slot for an outer copy to act around
    w = build_wreath_local(s3, PermGroup.generated((), 1))
    assert w.group.order == 6
    assert w.group == gamma_s3
    assert all(g.is_identity() for g in w.outer[0].values())


@pytest.mark.parametrize("F, P", [
    (PermGroup.generated((), 1), PermGroup.symmetric(3)),
    (PermGroup.cyclic(2), PermGroup.generated((), 2)),
    (PermGroup.cyclic(3), PermGroup.generated((), 1)),
    (PermGroup.cyclic(2), PermGroup.generated((), 1)),
    (PermGroup.generated((), 3), PermGroup.generated((), 1)),
])
def test_small_wreaths_build_or_refuse_without_a_bug(F, P):
    try:
        w = build_wreath_local(F, P)
    except HypothesisError:
        assert F.degree * P.degree < 3
    else:
        copies = 2 * P.degree if P.degree > 1 else 1
        assert w.group.order == F.order ** copies * P.order


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


def _checked_tower_step(prev, blocks, pinned):
    """A tower level glued through the checking constructor, each partner
    found by scanning the level below for elements gluing along its block."""
    elems = []
    for a in prev.elements:
        options = [(a,) if i == pinned else
                   [c for c in prev.elements
                    if all(ball_compatible(a, c, w) for w in b)]
                   for i, b in enumerate(blocks)]
        for combo in itertools.product(*options):
            children = [None] * prev.degree
            for b, c in zip(blocks, combo):
                for w in b:
                    children[w] = c
            elems.append(BallAut(a, children))
    return BallGroup.from_elements(elems)


def _tower(kind, flips6, sl23, steps=3, **kw):
    if kind == "partition":
        return build_tower(sl23, kind, steps,
                           blocks=[(0, 1), (2, 5), (3, 7), (4, 6)], **kw)
    return build_tower(flips6, kind, steps, **kw)


@pytest.mark.parametrize("kind", ["pinned-orbit", "pinned-center",
                                  "partition"])
def test_tower_levels_match_the_checking_constructor(kind, flips6, sl23):
    tower = _tower(kind, flips6, sl23)
    built = [lv for lv in tower.levels[1:] if lv.group is not None]
    assert len(built) == (1 if kind == "partition" else 2)
    for below, level in zip(tower.levels, built):
        checked = _checked_tower_step(below.group, tower.blocks,
                                      tower.pinned_block)
        assert set(level.group.elements) == set(checked.elements)
        # the construction's own generators close to exactly the level
        assert tuple(_close(level.group.generators,
                            level.group.identity())) == level.group.elements


@pytest.mark.parametrize("kind", ["pinned-orbit", "pinned-center",
                                  "partition"])
def test_certified_levels_carry_the_built_levels_generators(kind, flips6,
                                                           sl23, monkeypatch):
    built = [lv for lv in _tower(kind, flips6, sl23).levels
             if lv.group is not None][-1]
    cells = built.order * len(ball_points(built.group.degree, built.radius))
    monkeypatch.setattr(errors, "TABLE_CELLS", cells - 1)
    tower = _tower(kind, flips6, sl23, steps=built.radius)
    cert = tower.levels[-1].certificate
    assert cert is not None and cert.order == built.order
    assert cert.generators == built.group.generators
    assert cert.seam in built.group
    assert len(cert.compat_witnesses) == (len(cert.generators)
                                          * built.group.degree)
    for (gi, w), partner in cert.compat_witnesses.items():
        assert partner in built.group
        assert ball_compatible(cert.generators[gi], partner, w)


def test_tower_step_refuses_a_pinned_partner_that_does_not_glue():
    # every element of Aut(B(3, 2)) is its own partner on the pinned block
    # {2}, and the second one does not glue to itself along direction 2
    full = BallGroup.from_elements(full_aut(3, 2))
    a = full.elements[1]
    assert not ball_compatible(a, a, 2)
    with pytest.raises(ValueError, match="child at 2 does not glue"):
        constructions._tower_step(full, [(0,), (1,), (2,)], 2)


def _sign(F):
    return {p: 0 if p.sign() == 1 else 1 for p in F.elements}


SL23_BLOCKS = [(0, 1), (2, 5), (3, 7), (4, 6)]

#: every build whose order is known before it makes an element: the phase
#: its refusal names, that order, the ball (degree, radius) of its tables,
#: the name in the module that would make the first element, and its inputs
#: from the fixtures, bound to the builder
KNOWN_ORDER_BUILDS = {
    "full_aut": ("full ball group", 3072, (3, 3), (balls, "_glue_fibers"),
                 lambda get: functools.partial(full_aut.__wrapped__, 3, 3)),
    "full lift": ("full lift", 3072, (3, 3),
                  (constructions, "_glue_fibers"),
                  lambda get: functools.partial(build_full_lift,
                                                get("phi_s3"))),
    "block-constant lift": (
        "tower step", 1944, (8, 2), (constructions, "_glue_fibers"),
        lambda get: functools.partial(_block_lift, get("sl23"),
                                      SL23_BLOCKS)),
    "parity lift": (
        "full lift", 48, (3, 2), (constructions, "_glue_fibers"),
        lambda get: functools.partial(build_parity_lift, get("s3"),
                                      _sign(get("s3")), 2, [1])),
    "pk-local": ("full lift", 3072, (3, 3), (constructions, "_glue_fibers"),
                 lambda get: functools.partial(pk_local_action,
                                               get("phi_s3"), 3)),
    "cocycle extension": (
        "cocycle extension", 48, (3, 3), (permcore, "_close"),
        lambda get: functools.partial(
            build_cocycle_extension, find_involutive_cocycles(
                get("pi_one"))[0], list(_order_two_kernel().elements))),
    "wreath": ("wreath extension", 32, (4, 2), (permcore, "_close"),
               lambda get: functools.partial(
                   build_wreath_local, PermGroup.cyclic(2),
                   PermGroup.cyclic(2))),
    "diagonal": ("diagonal extension", 6, (3, 2),
                 (constructions, "_as_radius2"),
                 lambda get: functools.partial(build_diagonal, get("s3"))),
    "centered": ("centered extension", 12, (3, 2),
                 (constructions, "_as_radius2"),
                 lambda get: functools.partial(build_centered, get("s3"))),
    "centered by a center": (
        "centered extension", 12, (3, 2), (constructions, "_as_radius2"),
        lambda get: functools.partial(build_centered, get("s3"),
                                      center=get("s3").stabilizer(0))),
    "kernel extension": (
        "kernel extension", 48, (3, 2), (constructions, "_as_radius2"),
        lambda get: functools.partial(build_kernel_extension, get("s3"),
                                      get("s3").stabilizer(0))),
    "split lift": (
        "split lift", 12, (3, 2), (constructions, "_as_radius2"),
        lambda get: functools.partial(build_split_lift, get("s3"),
                                      [id_tuple(), (FIX[0], FIX[1], FIX[2])])),
}


@pytest.mark.parametrize("name", list(KNOWN_ORDER_BUILDS))
def test_known_order_builds_refuse_past_the_cell_budget(name, request,
                                                        monkeypatch):
    phase, order, (degree, radius), (module, maker), bind = \
        KNOWN_ORDER_BUILDS[name]
    cells = order * len(ball_points(degree, radius))
    build = bind(request.getfixturevalue)
    # a budget of exactly its cells admits the build
    monkeypatch.setattr(errors, "TABLE_CELLS", cells)
    build()
    # one cell less refuses it, naming the phase, the order, the cells and
    # the budget, before the first element is glued, closed or made
    monkeypatch.setattr(errors, "TABLE_CELLS", cells - 1)
    monkeypatch.setattr(module, maker, None)
    with pytest.raises(CapacityError, match="^%s: %d elements hold %d table "
                       "cells, beyond the budget of %d$"
                       % (re.escape(phase), order, cells, cells - 1)):
        build()


def test_centered_build_is_refused_before_the_stabilizer_scan(monkeypatch):
    # without a center the twists are the whole stabilizer, of order
    # |S5| / 5 = 24, so the order 120 * 24 is known before any scan
    monkeypatch.setattr(errors, "TABLE_CELLS", 100)
    monkeypatch.setattr(PermGroup, "stabilizer", None)
    monkeypatch.setattr(PermGroup, "transversal", None)
    with pytest.raises(CapacityError, match="^centered extension: 2880 "
                       "elements hold 72000 table cells, beyond the budget "
                       "of 100$"):
        build_centered(PermGroup.symmetric(5))


def test_a_lift_under_500000_elements_is_refused_by_its_cells(monkeypatch):
    # D13's full lift has 212,992 elements, but on its 169 ball points that
    # is 35,995,648 cells: more than 67 points per element passes the budget
    monkeypatch.setattr(constructions, "_glue_fibers", None)
    with pytest.raises(CapacityError, match="^full lift: 212992 elements hold "
                       "35995648 table cells, beyond the budget of 33554432$"):
        build_full_lift(PermGroup.dihedral(13))


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
    # a root outside the level below, carried by the pinned block too
    r = BallAut(Perm((0, 1, 4, 3, 2, 5)))
    assert r not in below
    assert not tower_member(below, blocks, pinned, BallAut(r, (r,) * 6))
    # block-constant partners outside the level below
    c = BallAut(Perm((4, 1, 2, 3, 0, 5)))
    assert c not in below
    outside = BallAut(ident, (ident, ident, c, c, ident, ident))
    assert not tower_member(below, blocks, pinned, outside)


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


@pytest.mark.parametrize("kind, group, blocks, message", [
    ("pinned-orbit", "flips6", [[0, 1, 2], [3, 4, 5]],
     "pinned-orbit towers use the orbits as blocks"),
    ("pinned-center", "flips6", [[0, 1, 2], [3, 4, 5]],
     "pinned-center towers use the orbits as blocks"),
    ("pinned-orbit", "s3", None, "need at least three orbits"),
    ("pinned-center", "s3", None, "need at least three orbits"),
])
def test_pinned_towers_check_their_blocks_first(kind, group, blocks, message,
                                                request):
    with pytest.raises(HypothesisError, match="^%s$" % message):
        build_tower(request.getfixturevalue(group), kind, 2, blocks=blocks)


def test_ball_generating_set_regenerates(phi_s3):
    gens = small_generating_set_of(phi_s3.elements, phi_s3.identity())
    assert len(gens) < 10
    assert BallGroup.generated(list(gens)).order == 48


def _constructor_full_lift(group):
    # every lift, glued by the constructor that re-checks each child
    return tuple(sorted(
        BallAut(a, combo) for a in group.elements
        for combo in itertools.product(*(compat_set(group, a, w)
                                         for w in range(group.degree)))))


def test_full_lifts_match_the_constructor_route(census_rows, phi_s3):
    s4 = PermGroup.symmetric(4)
    bases = [row.group for row in census_rows if row.has_cocycle]
    assert len(bases) == 4
    bases += [phi_s3, BallGroup.generated([BallAut(p) for p in s4.generators])]
    for base in bases:
        assert build_full_lift(base).elements == _constructor_full_lift(base)
    assert build_full_lift(s4).elements == _constructor_full_lift(bases[-1])
