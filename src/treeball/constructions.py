"""Standard ways to manufacture groups of ball automorphisms.

Each builder takes finite permutation data, checks the hypotheses it actually
needs (raising HypothesisError with the failing clause in the message), and
returns an explicit BallGroup. Orders are computed from the defining
parameters first, so every builder asks `errors.check_cells` for its tables
once before it makes an element, and the materialized group is checked
against that order, so a silent modelling mistake cannot slip through as a
wrong-sized group. Cocycle and wreath extensions are made by closing their
generators, so they are also bound by `errors.CLOSURE_CAP`.

Full lifts and tower levels are one step, glued from matched fibers, and
keep the generators the step builds (lifts of the level below's generators
and one-block twists of the identity). A step glues its level or refuses it
through `check_cells`; only `build_tower` turns a refused level into a
certificate, which carries the same generators. Block-constant lifts are
the levels of a partition tower.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .balls import (
    BallAut,
    BallGroup,
    _glue_fibers,
    _glue_images,
    _need_key,
    _offer_key,
    _root_and_chart,
    ball_compatible,
    ball_points,
    words_of_length,
)
from .compat import (
    CompatCocycle,
    joint_compat_set,
    require_gluing,
)
from .errors import CapacityError, HypothesisError, check_cells
from .permcore import (Perm, PermGroup, _codec, _getter, _inverse, center,
                       classify_action, small_generating_set_of)


def _r1(perm):
    return BallAut(perm)


def radius_one(F):
    """The permutation group F as a group of radius-1 ball automorphisms."""
    return BallGroup(F.degree, 1, [_r1(p) for p in F.elements],
                     [_r1(p) for p in F.generators])


def _as_radius2(root_perm, child_perms):
    return BallAut(_r1(root_perm), tuple(_r1(c) for c in child_perms))


def _check_order(group, expected, what):
    if group.order != expected:
        raise RuntimeError(
            "%s has order %d, expected %d; bug" % (what, group.order, expected))
    return group


def _radius2_group(what, F, twists, elements):
    """The group of the lazy radius-2 `elements`, one per element of F and
    twist, made once `check_cells` admits their tables; checked to have
    that order."""
    order = F.order * twists
    check_cells(what, order, len(ball_points(F.degree, 2)))
    return _check_order(BallGroup.from_elements(elements), order, what)


# ---------------------------------------------------------------------------
# radius-2 builders over a permutation group
# ---------------------------------------------------------------------------

def build_diagonal(F):
    """Each permutation extends by acting the same way around every neighbour."""
    check_cells("diagonal extension", F.order,
                len(ball_points(F.degree, 2)))
    elems = [_as_radius2(a, [a] * F.degree) for a in F.elements]
    gens = [_as_radius2(a, [a] * F.degree) for a in F.generators]
    return _check_order(
        BallGroup(F.degree, 2, elems, gens), F.order, "diagonal extension")


def build_centered(F, center=None):
    """Extensions twisting the diagonal by a stabilizer element of point 0.

    Twists are moved to each neighbour w through f[w], F's transversal of 0.
    With `center` given (a subset of the center of the stabilizer of 0), the
    element for (a, c) acts around the neighbour w as a followed by the
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
    transversal = F.transversal(0)
    d = F.degree

    if center is not None:
        cent = list(center.elements if isinstance(center, PermGroup) else center)
        for c in cent:
            if c not in stab:
                raise HypothesisError("center elements must fix the base point")
            if any(c * s != s * c for s in stab.elements):
                raise HypothesisError(
                    "center elements must be central in the stabilizer")
        celems = set(cent)
        if not celems or any(
                a * b not in celems for a in celems for b in celems):
            raise HypothesisError("center must be a subgroup of the stabilizer")
        return _radius2_group("centered extension", F, len(celems), (
            _as_radius2(a, [a * transversal[w] * c * transversal[w].inverse()
                            for w in range(d)])
            for a in F.elements for c in celems))

    return _radius2_group("centered extension", F, stab.order, (
        _as_radius2(a, [transversal[a(w)] * c * transversal[w].inverse()
                        for w in range(d)])
        for a in F.elements for c in stab.elements))


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
    stab = F.stabilizer(0)
    nelems = tuple(normal.elements if isinstance(normal, PermGroup) else normal)
    nset = set(nelems)
    if not all(map(stab.__contains__, nset)):
        raise HypothesisError("the twist group must fix the base point")
    if any(a * b not in nset for a in nset for b in nset):
        raise HypothesisError("the twist set must be a subgroup")
    for s in stab.generators:
        si = s.inverse()
        if any(s * n * si not in nset for n in nset):
            raise HypothesisError(
                "the twist group must be normal in the stabilizer")
    d = F.degree
    conj = {w: (f, f.inverse()) for w, f in F.transversal(0).items()}
    return _radius2_group("kernel extension", F, len(nelems) ** d, (
        _as_radius2(a, [a * conj[w][0] * tw[w] * conj[w][1]
                        for w in range(d)])
        for a in F.elements for tw in itertools.product(nelems, repeat=d)))


def build_full_lift(F, radius=None):
    """The largest extension whose one-step local actions stay in F.

    Each step is one `_tower_step` whose blocks are the single directions,
    none pinned, so the lift keeps the generators its steps glue. A
    BallGroup lifts one radius up, and one failing (C) is refused. A
    `radius` beyond the next iterates the step; one below the base's is
    refused. Lifts constant on blocks of directions are the levels of
    `build_tower`.
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
    blocks = [(w,) for w in range(base.degree)]
    group = base
    while group.radius < radius:
        group = _tower_step(group, blocks, None, "full lift")
    return group


def build_parity_lift(F, weight, modulus, spheres, radius=None):
    """Full lift filtered by a weight balance over chosen spheres.

    `weight` maps every element of F to an integer, additively modulo
    `modulus`, and must be a homomorphism. An extension belongs to the result
    when the weights of its one-step local actions at all vertices on the
    chosen spheres sum to zero. Sphere 0 is the center.
    """
    spheres = sorted(set(spheres))
    if not spheres or spheres[0] < 0:
        raise HypothesisError("spheres must be nonnegative distances")
    if radius is None:
        radius = spheres[-1] + 1
    if radius < spheres[-1] + 1:
        raise HypothesisError("radius must see one step past every sphere")
    for a in F.elements:
        if a not in weight:
            raise HypothesisError("weight must be defined on all of F")
        for b in F.elements:
            if (weight[a * b] - weight[a] - weight[b]) % modulus:
                raise HypothesisError("weight must be a homomorphism")
    ambient = build_full_lift(F, radius=radius)
    elems = []
    for alpha in ambient.elements:
        total = 0
        for r in spheres:
            for v in words_of_length(F.degree, r):
                total += weight[alpha.step_action(v)]
        if total % modulus == 0:
            elems.append(alpha)
    return BallGroup.from_elements(elems)


def build_split_lift(F, kernel):
    """Extensions splitting as F against a chosen group of neighbour twists.

    `kernel` is a subgroup of the product of point stabilizers, one twist per
    point, each fixing its own point; it must be invariant under permuting
    coordinates and conjugating by group elements. The element for (a, k)
    acts around w as a followed by the twist at w.
    """
    d = F.degree
    tuples = list(kernel.elements if hasattr(kernel, "elements") else kernel)
    if not tuples:
        raise HypothesisError("the twist group must contain the identity tuple")
    tset = set(tuples)
    for tw in tuples:
        if len(tw) != d:
            raise HypothesisError("need one twist per point")
        for w in range(d):
            if tw[w](w) != w:
                raise HypothesisError("each twist must fix its own point")
            if tw[w] not in F:
                raise HypothesisError("twists must come from the group")
    ident = tuple(Perm.identity(F.degree) for _ in range(d))
    if ident not in tset:
        raise HypothesisError("the twist group must contain the identity tuple")
    for x in tuples:
        for y in tuples:
            if tuple(p * q for p, q in zip(x, y)) not in tset:
                raise HypothesisError("the twist set must be a subgroup")
    for a in F.generators:
        ai = a.inverse()
        for tw in tuples:
            moved = tuple(a * tw[ai(w)] * ai for w in range(d))
            if moved not in tset:
                raise HypothesisError(
                    "the twist group must be invariant under the group action")
    return _radius2_group("split lift", F, len(tuples), (
        _as_radius2(a, [a * tw[w] for w in range(d)])
        for a in F.elements for tw in tuples))


# ---------------------------------------------------------------------------
# cocycle extensions
# ---------------------------------------------------------------------------

def build_cocycle_extension(cocycle, kernel):
    """The group generated by a cocycle's lift together with kernel elements.

    `kernel` is a group of automorphisms one radius above the cocycle's group
    that restrict to the identity on the inner ball. Admissibility demands
    (a) the lifted group normalizes the kernel and (b) for every kernel
    element and direction, some kernel element's view in that direction is
    the inverse of the cocycle's choice at the original element's view. Both
    clauses are checked on image tuples, in that order, after the kernel's
    shape and that it is a subgroup.

    Each piece of work is done once. A kernel group's cache keeps what the
    kernel alone decides (whether it is a subgroup, its generators, its
    views) and the elements of each extension it took part in, keyed by the
    cosets K * lg of the lifted generators lg, which fix the group they
    generate with K; the cocycle keeps its lifted generators. Once K is a
    subgroup, lg normalizes it exactly when lg * k lies in K * lg for each of
    its generators k, and (b) passes or fails alike wherever a view recurs,
    so it runs over the distinct views in the order they first occur.
    """
    if not isinstance(cocycle, CompatCocycle):
        raise TypeError("expected a CompatCocycle")
    F = cocycle.group
    d = F.degree
    kelems = list(kernel.elements if hasattr(kernel, "elements") else kernel)
    inner = BallAut.identity(d, F.radius).images
    for k in kelems:
        if (k.degree, k.radius) != (F.degree, F.radius + 1):
            raise HypothesisError("kernel elements must live one radius up")
        if k.images[:len(inner)] != inner:
            raise HypothesisError(
                "kernel elements must restrict to the identity inside")
    kset, kernel_gens, views, made = _kernel_facts(
        kernel, kelems, BallAut.identity(d, F.radius + 1))
    if kernel_gens is None:
        raise HypothesisError("the kernel must be a subgroup")
    lifted_gens = cocycle._lifted_generators
    cosets = []
    for lg in lifted_gens:
        coset = set(map(_getter(lg.images), kset))  # K * lg
        if any(_getter(k.images)(lg.images) not in coset
               for k in kernel_gens):
            raise HypothesisError(
                "the lifted group must normalize the kernel")
        cosets.append(min(coset))
    z = cocycle._images
    for view, w in views:
        if view not in z:
            raise HypothesisError(
                "kernel views must lie in the base group")
        if (_inverse(z[view][w]), w) not in views:
            raise HypothesisError(
                "no kernel element inverts the choice map in direction %d"
                % w)
    expected = F.order * len(kelems)
    check_cells("cocycle extension", expected,
                len(ball_points(d, F.radius + 1)))
    # the group is <lifted generators, kernel>, which the cosets K * lg fix
    cosets = frozenset(cosets)
    gens = lifted_gens + list(kernel_gens)
    if cosets in made:
        group = BallGroup(d, F.radius + 1, made[cosets], gens)
    else:
        group = BallGroup.generated(gens)
    made[cosets] = _check_order(group, expected, "cocycle extension").elements
    return group


def _kernel_facts(kernel, kelems, identity):
    """The kernel's image set, its greedy generators (None when it is not a
    subgroup), its (view, direction) pairs in first-seen order and a dict
    for the elements of its extensions by their cosets, kept in the cache of
    a kernel group. A nonempty finite set closed under products is a group,
    which is what the greedy's closure checks."""
    facts = getattr(kernel, "_cache", {}).get("extension_kernel")
    if facts is None:
        try:
            gens = small_generating_set_of(kelems, identity)
        except ValueError:
            if not kelems:  # vacuously closed: the greedy's refusal stands
                raise
            gens = None
        views = dict.fromkeys((_root_and_chart(k, w)[1], w) for k in kelems
                              for w in range(identity.degree))
        facts = ({k.images for k in kelems}, gens, views, {})
        if hasattr(kernel, "_cache"):
            kernel._cache["extension_kernel"] = facts
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

    def iota(a, lam):
        images = list(range(D))
        for w in range(n):
            images[w + n * lam] = a(w) + n * lam
        return Perm(images)

    def slotperm(rho):
        images = list(range(D))
        for lam in range(m):
            for w in range(n):
                images[w + n * lam] = w + n * rho(lam)
        return Perm(images)

    inner = {}
    outer = {}
    for lam in range(m):
        inner[lam] = {}
        outer[lam] = {}
        for a in F.elements:
            ia = iota(a, lam)
            ident = Perm.identity(D)
            children_in = []
            children_out = []
            for x in range(D):
                slot = x // n
                children_in.append(ia if slot == lam else ident)
                children_out.append(ident if slot == lam else ia)
            inner[lam][a] = _as_radius2(ia, children_in)
            outer[lam][a] = _as_radius2(ident, children_out)
    top = {}
    for rho in P.elements:
        sp = slotperm(rho)
        top[rho] = _as_radius2(sp, [sp] * D)

    gens = []
    for lam in range(m):
        for a in F.generators:
            gens.append(inner[lam][a])
            gens.append(outer[lam][a])
    for rho in P.generators:
        gens.append(top[rho])
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
    `errors.check_cells`, which bounds their memory, is refused by its step
    and certified here instead, and the tower stops after the first such
    level, so it can hold fewer levels than asked for; the `tower` command
    then says so on stderr.
    """
    blocks, pinned, zen = _tower_hypotheses(F, kind, blocks, pinned_point)
    group = radius_one(F)
    out = [TowerLevel(radius=1, order=F.order, group=group, certificate=None)]
    for _ in range(levels - 1):
        try:
            group = _tower_step(group, blocks, pinned)
        except CapacityError:  # the step's one refusal: its cell budget
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


def _first_partner(prev, a, block):
    """``joint_compat_set(prev, a, block)[0]``, found with no run keyed."""
    roots, charts = zip(*[_need_key(a, w) for w in block])
    if len(set(roots)) == 1:
        for b in prev._run(roots[0]):
            if all(_offer_key(b, w)[1] == c for w, c in zip(block, charts)):
                return b
    raise RuntimeError("tower fiber empty; bug")


def _check_self_gluing(a, block):
    # no fiber vouches for a pinned partner, `a` itself
    for w in block:
        if not ball_compatible(a, a, w):
            raise ValueError("child at %d does not glue to the root" % w)


def _tower_generators(prev, blocks, pinned, id_fibers, block_of):
    """Generators of the tower level above `prev`.

    The level maps onto `prev` by restriction, with kernel the product of
    the unpinned blocks' identity fibers, so it is generated by one lift of
    each generator of `prev` (its first joint partner on every unpinned
    block, itself on the pinned one) and, per unpinned block, a twist of the
    identity on that block alone by each greedy generator of its fiber.
    """
    ident = prev.identity()
    gens = []
    for a in prev.generators:
        picks = [a if i == pinned else _first_partner(prev, a, b)
                 for i, b in enumerate(blocks)]
        gens.append(_glue_images(a, [picks[i] for i in block_of]))
    for i, fib in enumerate(id_fibers):
        if i == pinned:
            continue
        for x in small_generating_set_of(fib, ident):
            if not x.is_identity():
                gens.append(_glue_images(
                    ident, [x if j == i else ident for j in block_of]))
    return [BallAut._raw(prev.degree, prev.radius + 1, t) for t in gens]


def _step_fibers(prev, blocks, pinned):
    """Each direction's block, and each block's identity fiber (cached in
    `prev`) and fiber size one radius up, 1 on the `pinned` block."""
    block_of = [_block_index(blocks, w) for w in range(prev.degree)]
    id_fibers = [joint_compat_set(prev, prev.identity(), b) for b in blocks]
    sizes = [1 if i == pinned else len(f) for i, f in enumerate(id_fibers)]
    return block_of, id_fibers, sizes


def _tower_step(prev, blocks, pinned, phase="tower step"):
    """The level above `prev`, glued from one partner per block out of each
    element's joint fibers (itself on a `pinned` block), with the generators
    of `_tower_generators`: every full lift and tower level. It checks that
    the order is the fiber product's and every generator lies in the level.
    Its one `CapacityError` is `check_cells` refusing first, naming
    `phase`."""
    d, radius = prev.degree, prev.radius + 1
    block_of, id_fibers, sizes = _step_fibers(prev, blocks, pinned)
    expected = prev.order * math.prod(sizes)
    check_cells(phase, expected, len(ball_points(d, radius)))
    pack, table = _codec(len(ball_points(d, radius)))[0], []
    for a in prev.elements:
        if pinned is not None:
            _check_self_gluing(a, blocks[pinned])
        options = [(a,) if i == pinned else joint_compat_set(prev, a, b)
                   for i, b in enumerate(blocks)]
        if list(map(len, options)) != sizes:
            raise RuntimeError("tower fibers are not uniform; bug")
        # partners glue by choice of fiber; packed per root, not per level
        table.extend(map(pack, _glue_fibers(a, options, block_of)))
    table.sort()  # linear: roots and fibers already come in image order
    gens = _tower_generators(prev, blocks, pinned, id_fibers, block_of)
    level = BallGroup(d, radius, None, gens, _table=table)
    if not all(g in level for g in level.generators):
        raise RuntimeError("tower generator outside its level; bug")
    return _check_order(level, expected, phase)


def _tower_certificate(prev, blocks, pinned, z):
    """The certificate of the level above `prev` that its step refused,
    lifting the central element `z` (None when there is none)."""
    d, radius = prev.degree, prev.radius + 1
    block_of, id_fibers, sizes = _step_fibers(prev, blocks, pinned)
    gens = _tower_generators(prev, blocks, pinned, id_fibers, block_of)

    witnesses = {}
    for gi, g in enumerate(gens):
        root, children = g.root, g.children
        for i, b in enumerate(blocks):
            # g's partner on block b carries g's root on b, its own first
            # partners on the other unpinned blocks and itself on the pinned
            partner_root = children[b[0]]
            if pinned is not None:
                _check_self_gluing(partner_root, blocks[pinned])
            picks = [root if j == i else partner_root if j == pinned
                     else _first_partner(prev, partner_root, c)
                     for j, c in enumerate(blocks)]
            witness = BallAut._raw(d, radius, _glue_images(
                partner_root, [picks[j] for j in block_of]))
            for w in b:
                if not ball_compatible(g, witness, w):
                    raise RuntimeError(
                        "constructed witness does not glue; bug")
                witnesses[(gi, w)] = witness

    ident = prev.identity()
    seam = None
    for i, fib in enumerate(id_fibers):
        x = next((x for x in fib if not x.is_identity()), None)
        if i != pinned and x is not None:
            seam = BallAut._raw(d, radius, _glue_images(
                ident, [x if j == i else ident for j in block_of]))
            break

    central_lift = None
    if z is not None:
        # climb the central element to the previous radius as a full diagonal
        c = _r1(z)
        while c.radius < prev.radius:
            c = BallAut(c, (c,) * d)
        if c in prev:
            central_lift = BallAut(c, (c,) * d)
            for g in gens:
                if central_lift * g != g * central_lift:
                    raise RuntimeError("diagonal central element does not "
                                       "commute; bug")

    return TowerCertificate(radius=radius,
                            order=prev.order * math.prod(sizes),
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
    if root not in level_below:
        return False
    for i, b in enumerate(blocks):
        c = children[b[0]]
        if any(children[w] != c for w in b[1:]):
            return False
        if pinned is not None and i == pinned:
            if c != root:
                return False
            continue
        if c not in level_below:
            return False
    return True
