"""Standard ways to manufacture groups of ball automorphisms.

Each builder takes groups, its twist groups and kernels too, checks the
hypotheses it needs on their tables and generators (HypothesisError naming
the failing clause, TypeError for an argument that is no group), and
returns an explicit BallGroup. Orders are computed from the defining
parameters first, so every builder asks `errors.check_cells` for its tables
once before it makes an element, and the materialized group is checked
against that order, so a silent modelling mistake cannot slip through as a
wrong-sized group. Cocycle and wreath extensions are made by closing their
generators, so they are also bound by `errors.CLOSURE_CAP`.

Full lifts and tower levels are one step, keeping the generators it builds
(lifts of the level below's generators and one-block twists of the
identity): one lift per element below times the kernel glued once, or
per-element gluing past 256 points, where a product is a gather. A step
glues its level or refuses it through `check_cells`, or `_codec` past
two-byte entries; only `build_tower` turns a refused level into a
certificate, which carries the same generators. The full ball group
Aut(B_{d,k}) is the full lift of Sym(d) to radius k. Block-constant lifts
are the levels of a partition tower. The radius-2 groups K x| F are glued
one `_glue_fibers` call per element of F, a twist group one block.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, repeat
from typing import NamedTuple

from .balls import (
    BallAut,
    BallGroup,
    _automorphism_test,
    _branch,
    _glue_fibers,
    _glue_images,
    _root_and_chart,
    _step_rows,
    ball_compatible,
    ball_points,
    full_aut_order,
)
from .compat import (
    CompatCocycle,
    _first_partner,
    joint_compat_set,
    require_gluing,
)
from .errors import CapacityError, HypothesisError, check_cells
from .permcore import (Perm, PermGroup, _codec, _getter, _images, _inverse,
                       _slot_images, _slot_twists, center, classify_action,
                       small_generating_set_of)


def radius_one(F):
    """F as a group of radius-1 ball automorphisms on F's own table, as such
    a map's images are its level-1 action's: only generators are wrapped."""
    return BallGroup(F.degree, 1, None, map(BallAut, F.generators),
                     _table=F._table)


def _as_radius2(root_perm, child_perms):
    # the named generator families of `build_wreath_local`
    return BallAut(BallAut(root_perm), tuple(map(BallAut, child_perms)))


def _check_order(group, expected, what):
    if group.order != expected:
        raise RuntimeError(
            "%s has order %d, expected %d; bug" % (what, group.order, expected))
    return group


def _twist_group(what, F, twists, fibers, block_of=None):
    """The radius-2 group K x| F of order F.order * twists, once
    `check_cells` admits it, glued by one `_glue_fibers` call per a in F
    on the charts ``fibers(a)``, permutations, and
    `block_of` (a twist group is one block). It keeps the greedy's
    generators (`_of_table`); they pass `BallAut.from_images`'s test, and
    their closure within the table reaches every entry."""
    d, order = F.degree, F.order * twists
    check_cells(what, order, len(ball_points(d, 2)))
    group = BallGroup._of_table((d, 2), sorted(
        t for a in F.elements
        for t in _glue_fibers(BallAut(a), fibers(a), block_of)))
    if not all(map(_automorphism_test(d, 2), map(_images, group.generators))):
        raise RuntimeError("%s glued a map that is no automorphism; bug"
                           % what)
    return _check_order(group, order, what)


# ---------------------------------------------------------------------------
# radius-2 builders over a permutation group
# ---------------------------------------------------------------------------

def build_diagonal(F):
    """Each permutation extends by acting the same way around every neighbour."""
    d = F.degree
    group = _twist_group("diagonal extension", F, 1, lambda a: [[a]] * d)
    # the lifts of F's generators, each the one element over its root
    group.generators = tuple(next(group._run(a.images)) for a in F.generators)
    return group


def build_centered(F, center=None):
    """Extensions twisting the diagonal by a stabilizer element of point 0.

    Twists are moved to each neighbour w through f[w], F's transversal of 0.
    With `center` given (a subgroup of the center of the stabilizer of 0),
    the element for (a, c) acts around the neighbour w as a followed by the
    conjugate of c moved to w; the result is a group isomorphic to F x center
    and does not depend on the transversal. With `center` omitted, the whole
    stabilizer is used with the alternative twist f[a(w)] c f[w]^{-1}, which
    may genuinely depend on that choice of transversal.
    """
    if not F.is_transitive():
        raise HypothesisError("centered extension requires a transitive group")
    if center is None:  # the stabilizer's order is F.order / F.degree
        check_cells("centered extension", F.order * (F.order // F.degree),
                    len(ball_points(F.degree, 2)))
    stab = F.stabilizer(0)
    d, f = F.degree, F.transversal(0)
    if center is None:
        twists, left = stab.elements, lambda a, w: f[a(w)]
    else:
        if not isinstance(center, PermGroup):
            raise TypeError("expected a PermGroup")
        if not center.is_subgroup_of(stab):
            raise HypothesisError("center elements must fix the base point")
        if any(c * s != s * c for c in center.generators
               for s in stab.generators):
            raise HypothesisError(
                "center elements must be central in the stabilizer")
        twists, left = center.elements, lambda a, w: a * f[w]
    # the child at w for (a, c) is left(a, w) * c * f[w]^{-1}
    right = [[c * f[w].inverse() for c in twists] for w in range(d)]
    return _twist_group(
        "centered extension", F, len(twists),
        lambda a: [[left(a, w) * x for x in right[w]] for w in range(d)],
        [0] * d)


def build_kernel_extension(F, normal):
    """Extensions with an independent normal twist around every neighbour.

    `normal` must be a normal subgroup of the stabilizer of point 0; each
    element is a pair (a, one twist per neighbour) acting around w as a
    followed by the w-conjugate of the local twist, through F's transversal
    of 0. The resulting group is a semidirect product of F with a direct
    power of `normal`, and as a set it does not depend on the transversal.
    """
    if not F.is_transitive():
        raise HypothesisError("kernel extension requires a transitive group")
    if not isinstance(normal, PermGroup):
        raise TypeError("expected a PermGroup")
    stab = F.stabilizer(0)
    if not normal.is_subgroup_of(stab):
        raise HypothesisError("the twist group must fix the base point")
    if any(s * n * s.inverse() not in normal for s in stab.generators
           for n in normal.generators):
        raise HypothesisError(
            "the twist group must be normal in the stabilizer")
    d, f, nelems = F.degree, F.transversal(0), normal.elements
    # one block a direction: the twists at the neighbours are independent
    moved = [[f[w] * n * f[w].inverse() for n in nelems] for w in range(d)]
    return _twist_group("kernel extension", F, len(nelems) ** d,
                        lambda a: [[a * x for x in row] for row in moved])


def build_full_lift(F, radius=None):
    """The largest extension whose one-step local actions stay in F.

    Each step is one `_tower_step` whose blocks are the single directions,
    none pinned (one lift per element below times the kernel glued once;
    per-element gluing past 256 points), keeping the generators it glues. A
    BallGroup lifts one radius up, and one failing (C) is refused. A
    `radius` beyond the next iterates the step; one below the base's is
    refused, and so, before any step, is one past two-byte entries, its
    points counted as d((d-1)^r - 1)/(d-2), not listed. Lifts constant on
    blocks of directions are the levels of `build_tower`.
    """
    if isinstance(F, PermGroup):
        base = radius_one(F)
    else:
        base = F
        require_gluing(F, "the full lift does not map onto the group")
    if radius is None:
        radius = base.radius + 1
    if radius < base.radius:
        raise HypothesisError("lift radius %d is below the base radius %d"
                              % (radius, base.radius))
    d, r = base.degree, base.radius
    while r < radius and d * _branch(d, r) <= 1 << 16:
        r += 1
    _codec(d * _branch(d, r))
    blocks = [(w,) for w in range(base.degree)]
    group = base
    while group.radius < radius:
        group = _tower_step(group, blocks, None, "full lift")
    return group


@functools.lru_cache(maxsize=None)
def full_aut(degree, radius):
    """The group of every automorphism of the ball: the full lift of Sym(d),
    refused by its order before any level is glued, kept as its table."""
    check_cells("full ball group", full_aut_order(degree, radius),
                len(ball_points(degree, radius)))
    return build_full_lift(PermGroup.symmetric(degree), radius)


def build_parity_lift(F, weight, modulus, spheres, radius=None):
    """Full lift filtered by a weight balance over chosen spheres.

    `weight` maps every element of F to an integer, additively modulo
    `modulus` >= 1, and must be a homomorphism. An extension belongs to the
    result when the weights of its one-step local actions at all vertices
    on the chosen spheres sum to zero. Sphere 0 is the center.
    """
    spheres = sorted(set(spheres))
    if not spheres or spheres[0] < 0:
        raise HypothesisError("spheres must be nonnegative distances")
    if radius is None:
        radius = spheres[-1] + 1
    if radius < spheres[-1] + 1:
        raise HypothesisError("radius must see one step past every sphere")
    if modulus < 1:
        raise HypothesisError("modulus must be at least 1")
    if not all(a in weight for a in F.elements):
        raise HypothesisError("weight must be defined on all of F")
    if any((weight[a * g] - weight[a] - weight[g]) % modulus
           for a in F.elements for g in F.generators):
        raise HypothesisError("weight must be a homomorphism")
    ambient, d = build_full_lift(F, radius=radius), F.degree
    near = _getter([j for v, row in _step_rows(d, radius).items()
                    if len(v) in spheres for j in row])
    letter = [v[-1] for v in ball_points(d, radius)].__getitem__
    step = {a.images: weight[a] for a in F.elements}.__getitem__
    return ambient._of_table(ambient._shape(), [  # d letters a step action
        t for t in ambient._table if not sum(map(step, zip(*[map(
            letter, near(ambient._kind[1][1](t)))] * d))) % modulus])


def build_split_lift(F, kernel):
    """Extensions splitting as F against a chosen group of neighbour twists.

    `kernel` is a group of twist tuples on the d * d slot points
    (`permcore._slot_images`), one twist per point, each fixing its own
    point; it must be invariant under permuting coordinates and conjugating
    by group elements. The element for (a, k) acts around w as a followed
    by the twist at w.
    """
    d = F.degree
    if not isinstance(kernel, PermGroup):
        raise TypeError("expected a PermGroup")
    if kernel.degree != d * d:
        raise HypothesisError("need one twist per point")
    gens = [_slot_twists(g.images, d) for g in kernel.generators]
    if None in gens:
        raise HypothesisError("each twist must keep its own slot")
    for tw in gens:
        for w in range(d):
            if tw[w](w) != w:
                raise HypothesisError("each twist must fix its own point")
            if tw[w] not in F:
                raise HypothesisError("twists must come from the group")
    for a in F.generators:
        ai = a.inverse()
        for tw in gens:
            moved = tuple(a * tw[ai(w)] * ai for w in range(d))
            if Perm._raw(_slot_images(moved)) not in kernel:
                raise HypothesisError(
                    "the twist group must be invariant under the group action")
    # the twists at each neighbour
    rows = list(zip(*(_slot_twists(k.images, d) for k in kernel.elements)))
    return _twist_group("split lift", F, kernel.order,
                        lambda a: [[a * x for x in row] for row in rows],
                        [0] * d)


# ---------------------------------------------------------------------------
# cocycle extensions
# ---------------------------------------------------------------------------

def build_cocycle_extension(cocycle, kernel):
    """The group a cocycle's lifted generators generate with the kernel's.

    `kernel` is a BallGroup one radius above the cocycle's group whose
    elements restrict to the identity on the inner ball, read off its shape
    and its projection. Admissibility demands (a) the lifted group normalizes
    the kernel and (b) for every kernel element and direction, some kernel
    element's view in that direction is the inverse of the cocycle's choice
    at the original element's view. Both clauses are checked on image
    tuples, in that order.

    A kernel group's cache keeps its image set and views, and the cocycle
    keeps its lifted generators. A lifted generator lg normalizes K exactly
    when lg * k lies in K * lg for each generator k of K, and (b) passes or
    fails alike wherever a view recurs, so it runs over the distinct views
    in the order they first occur.
    """
    if not isinstance(cocycle, CompatCocycle):
        raise TypeError("expected a CompatCocycle")
    if not isinstance(kernel, BallGroup):
        raise TypeError("expected a BallGroup")
    F = cocycle.group
    d = F.degree
    if kernel._shape() != (d, F.radius + 1):
        raise HypothesisError("kernel elements must live one radius up")
    if kernel.project(F.radius).order > 1:
        raise HypothesisError(
            "kernel elements must restrict to the identity inside")
    kset, views = _kernel_facts(kernel)
    lifted_gens = cocycle._lifted_generators
    for lg in lifted_gens:
        coset = set(map(_getter(lg.images), kset))  # K * lg
        if any(_getter(k.images)(lg.images) not in coset
               for k in kernel.generators):
            raise HypothesisError(
                "the lifted group must normalize the kernel")
    z = cocycle._images
    for view, w in views:
        if view not in z:
            raise HypothesisError(
                "kernel views must lie in the base group")
        if (_inverse(z[view][w]), w) not in views:
            raise HypothesisError(
                "no kernel element inverts the choice map in direction %d"
                % w)
    expected = F.order * kernel.order
    check_cells("cocycle extension", expected,
                len(ball_points(d, F.radius + 1)))
    group = BallGroup.generated(lifted_gens + list(kernel.generators))
    return _check_order(group, expected, "cocycle extension")


def _kernel_facts(kernel):
    """The kernel group's image set and its (view, direction) pairs in
    first-seen order, kept in its cache."""
    facts = kernel._cache.get("extension_kernel")
    if facts is None:
        views = dict.fromkeys((_root_and_chart(k, w)[1], w)
                              for k in kernel for w in range(kernel.degree))
        facts = kernel._cache["extension_kernel"] = (
            set(map(_images, kernel)), views)
    return facts


# ---------------------------------------------------------------------------
# local wreath groups
# ---------------------------------------------------------------------------

class WreathLocal(NamedTuple):
    """A local wreath extension on pairs (point, slot).

    The point (w, l) is encoded as w + |Omega| * l. `group` is the extension;
    the three generator families are kept by name so tests and callers can
    refer to them: `inner[l][a]` acts as `a` on slot l both at the center and
    around that slot's points, `outer[l][a]` is trivial at the center and
    acts as `a` around the points of the other slots, and `top[rho]` is the
    diagonal extension of the slot permutation rho.
    """

    group: BallGroup
    inner: dict
    outer: dict
    top: dict
    point_degree: int
    slot_count: int

    def encode(self, point, slot):
        return point + self.point_degree * slot

    def decode(self, x):
        return (x % self.point_degree, x // self.point_degree)


def build_wreath_local(F, P):
    """Wreath-shaped extension of F slots arranged by P, one radius out.

    Acts on pairs (point of F, slot of P). The result is generated by slot
    copies of F at the center paired with either matching or complementary
    behaviour around the neighbours, plus diagonal slot permutations; it is
    isomorphic to (F^slots x F^slots) semidirect P, or to F with one slot.
    """
    n, m = F.degree, P.degree
    D = n * m
    if D < 3:
        raise HypothesisError("need at least three points overall")
    expected = F.order ** (2 * m if m > 1 else 1) * P.order
    check_cells("wreath extension", expected, len(ball_points(D, 2)))

    ident, slots = Perm.identity(D), [x // n for x in range(D)]
    inner, outer, top = {}, {}, {}
    for lam in range(m):  # a on the points of slot lam, the others fixed
        inner[lam], outer[lam] = {}, {}
        for a in F.elements:
            ia = Perm([a(x % n) + n * lam if s == lam else x
                       for x, s in enumerate(slots)])
            inner[lam][a] = _as_radius2(ia, [ia if s == lam else ident
                                             for s in slots])
            outer[lam][a] = _as_radius2(ident, [ident if s == lam else ia
                                                for s in slots])
    for rho in P.elements:  # the points of slot lam to slot rho(lam)
        sp = Perm([x % n + n * rho(s) for x, s in enumerate(slots)])
        top[rho] = _as_radius2(sp, [sp] * D)
    gens = [g[lam][a] for lam in range(m) for a in F.generators
            for g in (inner, outer)] + [top[rho] for rho in P.generators]
    group = BallGroup.generated(gens)
    _check_order(group, expected, "wreath extension")
    return WreathLocal(group=group, inner=inner, outer=outer, top=top,
                       point_degree=n, slot_count=m)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

class TowerCertificate(NamedTuple):
    """Evidence about a tower level too large to materialize.

    `order` comes from the layer formula. `generators` generate the level (the
    lifts of the previous level's generators plus one-block kernel twists).
    `compat_witnesses` maps (generator index, direction) to a member gluing to
    that generator, establishing nonempty fibers for the whole level;
    `seam` is a nontrivial member gluing to the identity, refuting rigidity;
    `central` is the full diagonal of a central element when one exists.
    """

    radius: int
    order: int
    generators: tuple
    compat_witnesses: dict
    seam: object
    central: object


class TowerLevel(NamedTuple):
    """One tower level; a materialized `group` and a `certificate` both
    carry the generators of `_tower_generators`, not a greedy's."""

    radius: int
    order: int
    group: object        # BallGroup, or None when only certified
    certificate: object  # TowerCertificate, or None when materialized


class Tower(NamedTuple):
    kind: str
    blocks: tuple
    pinned_block: object
    levels: tuple

    def level(self, radius):
        for lv in self.levels:
            if lv.radius == radius:
                return lv
        raise KeyError("no level of radius %d" % radius)


def build_tower(F, kind, levels, blocks=None, pinned_point=0):
    """Iterated block-constant self-extensions of a permutation group.

    Each step extends every element by gluing partners chosen from the level
    below, constant on each block of directions; the pinned kinds additionally
    force the partner on the pinned block to be the element itself. The three
    kinds differ only in their hypotheses:

    - "pinned-orbit": at least three orbits, used as the blocks; every block's
      pointwise stabilizer is nontrivial; the pinned block has at least two
      points.
    - "partition": a transitive group preserving the given blocks, where
      either the subgroup generated by point stabilizers is abelian, or the
      action is semiprimitive with a nontrivial center; block pointwise
      stabilizers must be nontrivial. No block is pinned.
    - "pinned-center": at least three orbits, used as the blocks; a central
      element moves the pinned point; the other blocks have nontrivial
      pointwise stabilizers.

    A level whose tables would pass the table-cell budget of
    `errors.check_cells`, which bounds their memory, or whose ball has more
    points than two-byte entries index, is refused by its step and
    certified here instead, and the tower stops after the first such
    level, so it can hold fewer levels than asked for; the `tower` command
    then says so on stderr.
    """
    blocks, pinned, zen = _tower_hypotheses(F, kind, blocks, pinned_point)
    group = radius_one(F)
    out = [TowerLevel(radius=1, order=F.order, group=group, certificate=None)]
    for _ in range(levels - 1):
        try:
            group = _tower_step(group, blocks, pinned)
        except CapacityError:  # the step's refusals: cells or point count
            cert = _tower_certificate(group, blocks, pinned,
                                      _central_block_preserving(
                                          F, zen, blocks, pinned_point, kind))
            out.append(TowerLevel(radius=cert.radius, order=cert.order,
                                  group=None, certificate=cert))
            break
        out.append(TowerLevel(radius=group.radius, order=group.order,
                              group=group, certificate=None))
    return Tower(kind=kind, blocks=tuple(blocks), pinned_block=pinned,
                 levels=tuple(out))


def _tower_hypotheses(F, kind, blocks, pinned_point):
    if kind == "partition":
        if blocks is None:
            raise HypothesisError("partition towers need explicit blocks")
        blocks = [tuple(sorted(b)) for b in blocks]
        if sorted(p for b in blocks for p in b) != list(range(F.degree)):
            raise HypothesisError("blocks must partition the points")
        if not F.is_transitive():
            raise HypothesisError("partition towers need a transitive group")
        if not _preserves_blocks(F.generators, blocks):
            raise HypothesisError("the group must map blocks to blocks")
        for b in blocks:
            if F.pointwise_stabilizer(b).order == 1:
                raise HypothesisError(
                    "every block needs a nontrivial pointwise stabilizer")
        plus_gens = []
        for p in range(F.degree):
            plus_gens.extend(F.stabilizer(p).generators)
        plus = PermGroup.generated(plus_gens, F.degree)
        abelian_route = (plus.is_abelian()
                         and _preserves_blocks(plus.generators, blocks))
        zen = None
        if not abelian_route:
            zen = center(F)
            if not (classify_action(F).semiprimitive and zen.order > 1
                    and _preserves_blocks(zen.generators, blocks)):
                raise HypothesisError(
                    "need either an abelian stabilizer closure or a "
                    "semiprimitive action with nontrivial center")
        return blocks, None, zen

    if kind not in ("pinned-orbit", "pinned-center"):
        raise ValueError("unknown tower kind %r" % (kind,))
    orbits = list(F.orbits())
    if blocks is not None and [tuple(sorted(b)) for b in blocks] != [
            tuple(o) for o in orbits]:
        raise HypothesisError("%s towers use the orbits as blocks" % kind)
    blocks = orbits
    if len(blocks) < 3:
        raise HypothesisError("need at least three orbits")

    if kind == "pinned-orbit":
        for b in blocks:
            if F.pointwise_stabilizer(b).order == 1:
                raise HypothesisError(
                    "every orbit needs a nontrivial pointwise stabilizer")
        pinned = _block_index(blocks, pinned_point)
        if len(blocks[pinned]) < 2:
            raise HypothesisError("the pinned orbit needs at least two points")
        return blocks, pinned, None

    zen = center(F)
    if not any(z(pinned_point) != pinned_point for z in zen.elements):
        raise HypothesisError(
            "need a central element moving the pinned point")
    pinned = _block_index(blocks, pinned_point)
    for i, b in enumerate(blocks):
        if i != pinned and F.pointwise_stabilizer(b).order == 1:
            raise HypothesisError("every other orbit needs a nontrivial "
                                  "pointwise stabilizer")
    return blocks, pinned, zen


def _block_index(blocks, point):
    for i, b in enumerate(blocks):
        if point in b:
            return i
    raise HypothesisError("pinned point is outside the blocks")


def _preserves_blocks(gens, blocks):
    """Do the permutations `gens`, and so the group they generate, map
    blocks to blocks?"""
    return all(len({_block_index(blocks, g(p)) for p in b}) == 1
               for g in gens for b in blocks)


def _central_block_preserving(F, zen, blocks, pinned_point, kind):
    """A nontrivial element of the center `zen` of F (computed when None)
    that maps blocks to blocks, and for pinned-center towers moves the
    pinned point; None if there is none."""
    for z in (center(F) if zen is None else zen).elements:
        if z.is_identity():
            continue
        if kind == "pinned-center" and z(pinned_point) == pinned_point:
            continue
        if _preserves_blocks([z], blocks):
            return z
    return None


def _check_self_gluing(gens, block):
    """Do `gens`, which must keep `block`, glue to themselves across it? So
    do their products then: fiber(ab, w) holds fiber(a, b(w)) fiber(b, w)."""
    for a in gens:
        if not set(block).issuperset(a.images[w] for w in block):
            raise RuntimeError("generator moves the pinned block; bug")
        for w in block:
            if not ball_compatible(a, a, w):
                raise ValueError("child at %d does not glue to the root" % w)


def _tower_generators(prev, id_fibers, place):
    """Generators of the tower level above `prev`.

    The level maps onto `prev` by restriction, with kernel the product of
    the identity's block fibers, so it is generated by one lift `place(a)`
    of each generator a of `prev` and, per block i, a twist `place(e, i, x)`
    of the identity e on that block alone by each greedy generator x of its
    fiber; the pinned fiber (e,) gives none.
    """
    ident = prev.identity()
    return [place(a) for a in prev.generators] + [
        place(ident, i, x) for i, fib in enumerate(id_fibers)
        for x in small_generating_set_of(fib, ident) if not x.is_identity()]


def _step_fibers(prev, blocks, pinned):
    """The plan of one step above `prev`, each fact decided once: each
    direction's block; fiber(a, i), a's joint partners on block i, or a
    alone on the `pinned` block, across which the generators below must
    glue to themselves; the identity's fibers (cached in `prev`); and
    place(a, i, x), a glued to x on block i (on none when i is None) and to
    its first partner (`_first_partner`, scanned once a pair) on every
    other block, each distinct map glued once: x may be that partner."""
    if pinned is not None:
        _check_self_gluing(prev.generators, blocks[pinned])
    block_of = [_block_index(blocks, w) for w in range(prev.degree)]

    def fiber(a, i):
        return (a,) if i == pinned else joint_compat_set(prev, a, blocks[i])

    @functools.cache
    def first(a, i):
        b = a if i == pinned else _first_partner(prev, a, blocks[i])
        if b is None:
            raise RuntimeError("tower fiber empty; bug")
        return b

    @functools.cache
    def glued(a, picks):  # a placement's map, so each is glued once
        return BallAut._raw(prev.degree, prev.radius + 1, _glue_images(
            a, [picks[j] for j in block_of]))

    def place(a, i=None, x=None):
        return glued(a, tuple([x if j == i else first(a, j)
                               for j in range(len(blocks))]))

    id_fibers = [fiber(prev.identity(), i) for i in range(len(blocks))]
    return block_of, fiber, id_fibers, place


def _tower_step(prev, blocks, pinned, phase="tower step"):
    """The level above `prev`, every full lift and tower level, with the
    generators of `_tower_generators`, each of which `tower_member` must
    admit: up to 256 points one lift per element below times the kernel,
    the identity's fibers glued once (`_coset_table`); past that, where a
    product is a gather, each element's fibers glued. Its `CapacityError`s
    come before the first glue: `check_cells`, naming `phase`, or `_codec`
    refusing a ball past two-byte entries."""
    d, radius = prev.degree, prev.radius + 1
    block_of, fiber, id_fibers, place = _step_fibers(prev, blocks, pinned)
    sizes = list(map(len, id_fibers))
    expected, n = prev.order * math.prod(sizes), len(ball_points(d, radius))
    check_cells(phase, expected, n)
    gens = _tower_generators(prev, id_fibers, place)
    if n <= 256:
        table = _coset_table(prev, gens, _glue_fibers(
            prev.identity(), [id_fibers[i] for i in block_of], block_of), n)
    else:
        table = []
        for a in prev.elements:
            options = [fiber(a, i) for i in range(len(blocks))]
            if list(map(len, options)) != sizes:
                raise RuntimeError("tower fibers are not uniform; bug")
            table.extend(_glue_fibers(a, [options[i] for i in block_of],
                                      block_of))
    table.sort()
    if not all(tower_member(prev, blocks, pinned, g) for g in gens):
        raise RuntimeError("tower generator is not in its level; bug")
    return _check_order(BallGroup(d, radius, None, gens, _table=table),
                        expected, phase)


def _coset_table(prev, gens, kernel, n):
    """The byte packs r * k of the level above `prev` on n <= 256 points,
    k in its kernel (the packs `kernel`, generated by the twists, the
    `gens` after the lifts) and r a lift of each element below, made in a
    breadth-first walk over the lifts keyed by root prefix. By Schreier's
    lemma it is a group: each lift normalizes the kernel, and every other
    edge of the walk lands back in its coset, over an element below."""
    pad, kset = bytes(range(n, 256)), set(kernel)
    lifts = [(bytes(g.images) + pad, bytes(_inverse(g.images)) + pad)
             for g in gens[:len(prev.generators)]]
    if any(g[:n].translate(bytes(t.images) + pad).translate(gi) not in kset
           for g, gi in lifts for t in gens[len(lifts):]):
        raise RuntimeError("tower lift does not normalize its kernel; bug")
    e, m = bytes(range(256)), len(prev._table[0])
    inverse_of = dict.fromkeys(prev._table)  # root prefix -> r^-1, padded
    inverse_of[e[:m]] = e
    walk = [(e, e)]
    for r, ri in walk:  # grows as it goes
        for g, gi in lifts:
            y = g.translate(r)  # r * g
            yi = inverse_of.get(y[:m], b"")  # b"": a root outside `prev`
            if yi is None:
                inverse_of[y[:m]] = yi = ri.translate(gi)
                walk.append((y, yi))
            elif not yi or y[:n].translate(yi) not in kset:
                raise RuntimeError("tower walk does not close; bug")
    return list(chain.from_iterable(map(bytes.translate, kernel, repeat(r))
                                    for r, _ in walk))


def _tower_certificate(prev, blocks, pinned, z):
    """The certificate of the level above `prev` that its step refused,
    lifting the central element `z` (None when there is none). Its
    generators are the step's; g's witness on block i is
    `place(p, i, g.root)`, over g's child p there, and the seam is the
    first twist of the identity by a non-identity partner, each distinct
    map glued once."""
    _, _, id_fibers, place = _step_fibers(prev, blocks, pinned)
    gens = _tower_generators(prev, id_fibers, place)

    witnesses = {}
    for gi, g in enumerate(gens):
        root, children = g.root, g.children
        for i, b in enumerate(blocks):
            witness = place(children[b[0]], i, root)
            for w in b:
                if not ball_compatible(g, witness, w):
                    raise RuntimeError(
                        "constructed witness does not glue; bug")
                witnesses[(gi, w)] = witness

    ident = prev.identity()
    seam = next((place(ident, i, x) for i, fib in enumerate(id_fibers)
                 for x in fib if not x.is_identity()), None)

    central_lift = None
    if z is not None:
        # climb the central element to the previous radius as a full diagonal
        c = BallAut(z)
        while c.radius < prev.radius:
            c = BallAut(c, (c,) * prev.degree)
        if c in prev:
            central_lift = BallAut(c, (c,) * prev.degree)
            for g in gens:
                if central_lift * g != g * central_lift:
                    raise RuntimeError("diagonal central element does not "
                                       "commute; bug")

    return TowerCertificate(radius=prev.radius + 1,
                            order=prev.order * math.prod(map(len, id_fibers)),
                            generators=tuple(gens),
                            compat_witnesses=witnesses,
                            seam=seam, central=central_lift)


def tower_member(level_below, blocks, pinned, candidate):
    """Does `candidate` belong to the tower level above `level_below`?

    Decidable without materializing the level: the root and every partner
    must belong below, the partners must be constant on blocks, and the
    pinned block must carry the root itself. A ball automorphism glues to
    its root in every direction already, so gluing is not tested again.
    """
    root, children = candidate.root, candidate.children
    return root in level_below and all(
        all(children[w] == children[b[0]] for w in b[1:])
        and (children[b[0]] == root if i == pinned
             else children[b[0]] in level_below)
        for i, b in enumerate(blocks))
