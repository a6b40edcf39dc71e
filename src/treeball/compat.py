"""Gluing behaviour of a group of ball automorphisms.

For a group F of automorphisms of the radius-k ball, the central question is
which elements of F can sit at a neighbouring vertex while a given element
acts at the center. The fiber of such partners in a fixed direction controls
whether local data extends outward: a group where every fiber is nonempty
extends one step in every direction, and a group where the identity's fibers
are trivial extends in at most one way.

Every gluing question is read off the group's packed table: a partner
restricts to the center's chart toward it, so a fiber lies in one run of
the table, found by bisection, and one routine (`balls._pack_charts`)
charts a run's packs with one translate table; element objects are made
only for the fibers returned. (C) scans a run only up to a first partner,
and the compatibility core prunes the table direction by direction.

Compatibility cocycles are the homomorphic sections of the lifted group one
radius up. At degree 3 its kernel over F is elementary abelian, and the
sections are solved for as one affine system over GF(2) whose unknowns are
kernel bitmasks, one per generator; at higher degree they are searched.
Either way they stream lazily, kept involutive on the generators; existence
stops at the first, and the search asks `errors.check_cells` before it lists
a generator's lifts, as every build of known size does.
"""

from __future__ import annotations

import functools
import itertools
import math

from .balls import (BallAut, _glue_fibers, _glue_images, _need_key,
                    _pack_charts, _root_and_chart, ball_points)
from .errors import HypothesisError, check_cells
from .linear import echelon, solve, walk
from .permcore import _codec, _getter, _grow


def _class_fibers(group, directions, root, charts):
    """The fiber, in element order, of the packs of the run starting with
    `root` whose charts in `directions` are `charts`. The run is keyed once
    into table indices, cached, and a fiber made into elements when asked."""
    cache = group._cache.setdefault("class_fibers", {})
    fibers = cache.get((directions, root))
    if fibers is None:
        fibers = cache[directions, root] = {}
        run = group._bounds(root)
        packs = group._table[run]
        keyed = zip(*[_pack_charts(group.degree, group.radius, root, packs, w)
                      for w in directions])
        for i, key in enumerate(keyed, run.start):
            fibers.setdefault(key, []).append(i)
    fiber = fibers.get(charts, ())
    if type(fiber) is list:
        fiber = fibers[charts] = tuple(group._run(fiber))
    return fiber


def compat_set(group, alpha, direction):
    """All elements of the group that glue to `alpha` in the given direction,
    in element order: one lookup in the run restricting to alpha's chart."""
    root, chart = _need_key(alpha, direction)
    return _class_fibers(group, (direction,), root, (chart,))


def joint_compat_set(group, alpha, directions):
    """Elements gluing to `alpha` in every one of the given directions."""
    directions = tuple(directions)
    if not directions:
        return group.elements
    roots, charts = zip(*[_need_key(alpha, w) for w in directions])
    # a partner has one root, so alpha's charts toward the block must agree
    if len(set(roots)) > 1:
        return ()
    return _class_fibers(group, directions, roots[0], charts)


def _first_partner(group, alpha, block):
    """``joint_compat_set(group, alpha, block)[0]`` or None, keying no run:
    the run's packs are charted up to the first that matches."""
    roots, charts = zip(*[_need_key(alpha, w) for w in block])
    if len(set(roots)) > 1:
        return None
    run = group._bounds(roots[0])
    packs = group._table[run]
    keyed = zip(*[_pack_charts(group.degree, group.radius, roots[0], packs, w)
                  for w in block])
    for i, key in enumerate(keyed, run.start):
        if key == charts:
            return next(group._run([i]))  # the one element made
    return None


def first_compat_failure(group):
    """A (generator, direction) pair with an empty fiber, or None; cached."""
    found = group._cache.get("compat_failure")
    if found is None or found[0] is not group.generators:
        found = group._cache["compat_failure"] = group.generators, next(
            ((a, w) for a in group.generators for w in range(group.degree)
             if _first_partner(group, a, (w,)) is None), None)
    return found[1]


def require_gluing(group, consequence):
    """Refuse a group failing (C), naming its first failing direction and
    the `consequence` drawn from it."""
    failure = first_compat_failure(group)
    if failure is not None:
        raise HypothesisError("gluing fails at direction %d, so %s"
                              % (failure[1], consequence))


def check_compatibility(group):
    """Does every element have a gluing partner in every direction?

    Fibers of a product contain products of fibers, and fibers of an inverse
    are images of fibers, so checking the generators alone already settles
    the question for the whole group.
    """
    return first_compat_failure(group) is None


def seam_witness(group):
    """A nontrivial element gluing to the identity, or None."""
    ident = group.identity()
    return next(((b, w) for w in range(group.degree)
                 for b in compat_set(group, ident, w) if not b.is_identity()),
                None)


def check_trivial_seams(group):
    """Is the identity's gluing fiber trivial in every direction?"""
    return seam_witness(group) is None


def compatibility_core(group):
    """The largest subgroup in which every fiber stays nonempty.

    One direction at a time, discard the table's packs whose fiber there
    misses the survivors, until every direction in turn discards nothing.
    That greatest fixpoint does not depend on the order of the discards,
    and it is closed under products and inverses (partners of a product can
    be assembled from partners of the factors), so it is a subgroup;
    `_of_table` re-verifies that, and a failure raises, since it would mean
    a bug rather than bad input. A pass charts the survivors run by run and
    makes no element object. When nothing is pruned, as the generators
    show, the result is `group`.
    """
    if check_compatibility(group):
        return group
    # at radius 1 each element is its own partner, so here radius > 1, and
    # a partner offers (root, chart) where the need it meets is (chart, root)
    d, r, ident = group.degree, group.radius, group.identity()
    pack, unpack, _ = _codec(len(ident.images))
    cut = len(pack(ident.images[:len(ball_points(d, r - 1))]))
    live, w, calm = list(group._table), 0, 0
    while calm < d:
        keyed = []
        for prefix, run in itertools.groupby(live, lambda y: y[:cut]):
            run, root = list(run), unpack(prefix)
            keyed += zip(run, itertools.repeat(root),
                         _pack_charts(d, r, root, run, w))
        offered = {(root, chart) for _, root, chart in keyed}
        keep = [y for y, root, chart in keyed if (chart, root) in offered]
        # a pass keeps the partners of what it keeps: calm once it is done
        calm = calm + 1 if len(keep) == len(live) else 1
        live, w = keep, (w + 1) % d
    try:
        return group._of_table(group._shape(), live)
    except ValueError as exc:
        raise RuntimeError("pruning fixpoint is not a subgroup; bug") from exc


# ---------------------------------------------------------------------------
# compatibility cocycles
# ---------------------------------------------------------------------------

class CompatCocycle:
    """A coherent choice of gluing partner for every element and direction.

    The choice map z must pick z(a, w) inside a's fiber in direction w,
    satisfy z(a*b, w) = z(a, b(w)) * z(b, w), and be involutive in the sense
    that choosing a partner for the partner returns the original element.
    Such a map is exactly what is needed to extend every element of the group
    one ball radius outward in a group-compatible way. It keeps rows, each
    element's image tuple to its choices', and makes `table` when read.
    """

    def __init__(self, group, table, _rows=None):
        self.group = group
        self._images = _rows or {a.images: [
            getattr(table.get((a, w)), "images", None)
            for w in range(a.degree)] for a in group.elements}
        self.verify()

    @functools.cached_property
    def table(self):
        make = self.group.identity()._from
        return {(make(a), w): make(b) for a, row in self._images.items()
                for w, b in enumerate(row)}

    def z(self, alpha, direction):
        return alpha._from(self._images[alpha.images][direction])

    def verify(self):
        """Check fibers, involutivity and the product rule.

        The checks run in this order, each with its own message, on the rows
        of choices the cocycle keeps, one image tuple for each element and
        direction: every (a, w) has a choice, in the group, a partner of a
        (`_need_key` on each side, listed once per group and flipped
        past radius 1 as `ball_compatible` reads it), whose own choice is a;
        and z(a * b, w) = z(a, b(w)) * z(b, w), each product one gather. The
        product rule is checked for b among the generators only: if it holds
        for b1 and b2 against every a, it holds for b1 * b2, so by induction
        on word length it holds for every b.
        """
        group, z, d = self.group, self._images, self.group.degree
        keys = group._cache.get("partner_keys")
        if keys is None:
            keys = group._cache["partner_keys"] = {
                a.images: [_need_key(a, w) for w in range(d)]
                for a in group.elements}
        flip = slice(None, None, -1 if group.radius > 1 else 1)
        for a in group.elements:
            for w, b in enumerate(z[a.images]):
                if b is None:
                    raise ValueError("choice map misses (%r, %d)" % (a, w))
                if b not in keys:
                    raise ValueError("choice at (%r, %d) leaves the group" % (a, w))
                if keys[b][w][flip] != keys[a.images][w]:
                    raise ValueError("choice at (%r, %d) is not a partner" % (a, w))
        if any(z[b][w] != a for a, row in z.items() for w, b in enumerate(row)):
            raise ValueError("choice map is not involutive")
        for b in group.generators:
            step, moved = _getter(b.images), b.images[:d]
            right = list(zip(map(_getter, z[b.images]), moved))
            if any(z[step(a)] != [f(row[x]) for f, x in right]
                   for a, row in z.items()):
                raise ValueError("choice map breaks the product rule")

    @functools.cached_property
    def _lifted_generators(self):
        """The sections of the group's generators, built once: a verified
        table stays fixed (it is hashed), and every extension of the cocycle
        by a kernel starts from them."""
        return [self.section(g) for g in self.group.generators]

    def section(self, alpha):
        """The one-step-larger automorphism this choice map assigns to alpha:
        its partners passed `verify`, so they glue without a second check."""
        children = map(alpha._from, self._images[alpha.images])
        return BallAut._raw(alpha.degree, alpha.radius + 1,
                            _glue_images(alpha, children))

    def table_key(self):
        return tuple(sorted((a, w, b) for a, row in self._images.items()
                            for w, b in enumerate(row)))

    def __eq__(self, other):
        return (isinstance(other, CompatCocycle)
                and self.group == other.group
                and self.table == other.table)

    def __hash__(self):
        return hash((self.group, self.table_key()))

    def __repr__(self):
        return "CompatCocycle(group order %d, degree %d)" % (
            self.group.order, self.group.degree)


def find_involutive_cocycles(group):
    """All involutive choice maps on the group, sorted by table.

    A coherent choice map is a homomorphic section of the lifted group one
    radius up. At degree 3 the sections solve one affine GF(2) system
    (`_cocycle_system`, eliminated by `linear.solve`) and stream in a
    Gray-code walk over its solutions (`linear.walk`); an inconsistent
    system means none. At higher degree the kernel is not abelian, and a
    search grows one closure of lifts a generator at a time
    (permcore._grow), dropping a prefix whose closure passes the group
    order or meets the kernel, since a faithful projection allows neither.
    A rigid group is the one-solution case of both.

    Both stream lazily from `_involutive_sections`, which a count or an
    existence check reads with no table; the search refuses a generator's
    lifts past the table-cell budget before listing them. A cocycle's rows
    are its section's charts, image tuples verified as they are.
    """
    return sorted((CompatCocycle(group, None, {a.images: [
        _root_and_chart(s, w)[1] for w in range(group.degree)]
        for a, s in zip(group.elements, map(lift, group.elements))})
        for lift in _involutive_sections(group)), key=CompatCocycle.table_key)


def _involutive_sections(group):
    """Lazily, as maps from element to lift, each section s whose z(a, w),
    the w-th child of s(a), has z(z(g, w), w) = g for every generator g and
    direction w. A partner moves its direction as its element does, so the
    product rule gives z(z(ab, w), w) = z(z(a, b(w)), b(w)) * z(z(b, w), w),
    and the generators settle every element."""
    if first_compat_failure(group) is not None:
        return
    d, r = group.degree, group.radius
    gens = [g for g in group.generators if not g.is_identity()]
    solve = _solved_sections if d == 3 else _searched_sections
    for lift in solve(group, gens):
        if all(lift(lift(g)._chart(w, r))._chart(w, r) == g
               for g in gens for w in range(d)):
            yield lift


def _searched_sections(group, gens):
    d = group.degree
    ident = BallAut.identity(d, group.radius + 1)
    cells = len(ident.images)
    pack, unpack, by = _codec(cells)
    options = []
    for g in gens:
        g_order = g.order()
        fibers = [compat_set(group, g, w) for w in range(d)]
        count = math.prod(map(len, fibers))
        check_cells("cocycle search", count, cells, "lifts of a generator")
        lifts = [t for t in _glue_fibers(g, fibers)
                 if ident._from(unpack(t)).order() == g_order]
        if not lifts:
            return
        options.append(lifts)
    options.sort(key=len)

    kernel_key = pack(ident.images[:len(ball_points(d, group.radius))])

    def outside_kernel(h):
        return None if h.startswith(kernel_key) else h

    def descend(level, members, seen, chosen):
        if level < len(options):
            for lift in options[level]:
                grown = (list(members), set(seen), list(chosen))
                if _grow(*grown, lift, group.order, outside_kernel, by):
                    yield from descend(level + 1, *grown)
        elif len(members) == group.order:
            # a closure holds one lift of each generator, so distinct choice
            # paths give distinct sections and nothing needs deduplicating
            yield {h.root: h for h in map(ident._from,
                                          map(unpack, members))}.__getitem__

    yield from descend(0, [pack(ident.images)], {pack(ident.images)}, [])


def _cocycle_system(group, gens):
    """The degree-3 sections of the lifted group as one GF(2) system.

    Bit j of a kernel element one radius up swaps the two children of the
    j-th sphere vertex, the points kids[j] and kids[j] + 1. With one lift
    t(g) per generator, the unknowns are the k_g in K_F with s(g) = t(g) k_g;
    bit m * dim + i is the i-th basis coordinate of the m-th one. A
    breadth-first Schreier tree writes s(x) = T(x) kappa(x) with T(xg) =
    T(x) t(g) and kappa(xg) = kappa(x)^t(g) + k_g, conjugation permuting the
    bits; every other edge asks kappa(y) + kappa(x)^t(g) + k_g to be the
    bits of T(y)^-1 T(x) t(g). The K_F basis is `linear.echelon`'s, and
    `linear.solve` eliminates those rows.

    Returns (dim K_F, rank, particular, null basis, lifts), rank and
    particular None when the system is inconsistent; lifts maps the image
    tuple of each x to (T(x), kappa(x)), one unknown mask per bit.
    """
    d, r = group.degree, group.radius
    ident, up = group.identity(), BallAut.identity(d, r + 1).images
    lo, kids = len(ball_points(d, r - 1)), range(len(ident.images), len(up), 2)
    glued = (_glue_images(ident, [b if v == w else ident for v in range(d)])
             for w in range(d) for b in compat_set(group, ident, w))
    basis = echelon(sum(1 << j for j, c in enumerate(kids) if h[c] != up[c])
                    for h in glued)
    dim = len(basis)
    steps = []
    for m, g in enumerate(gens):
        t = _glue_images(g, [compat_set(group, g, w)[0] for w in range(d)])
        form = [sum(1 << (m * dim + i) for i, e in enumerate(basis)
                    if e >> j & 1) for j in range(len(kids))]
        perm = [g.images[lo + j] - lo for j in range(len(kids))]
        steps.append((_getter(g.images), _getter(t), perm, form))
    lifts = {ident.images: (up, (0,) * len(kids))}
    queue, rows = [ident.images], set()
    for x in queue:
        tx, kx = lifts[x]
        for g, t, perm, form in steps:
            y, ty = g(x), t(tx)
            ky = tuple([kx[p] ^ f for p, f in zip(perm, form)])
            if y not in lifts:
                lifts[y] = (ty, ky)
                queue.append(y)
                continue
            ty0, ky0 = lifts[y]
            for a, b, c in zip(ky0, ky, kids):
                rows.add((a ^ b) << 1 | (ty[c] != ty0[c]))
    particular, null = solve(rows, dim * len(gens)) or (None, [])
    rank = None if particular is None else dim * len(gens) - len(null)
    return dim, rank, particular, null, lifts


def _solved_sections(group, gens):
    _, _, particular, null, lifts = _cocycle_system(group, gens)
    if particular is None:
        return
    d, r = group.degree, group.radius
    kids = range(len(ball_points(d, r)), len(ball_points(d, r + 1)), 2)

    def section(u, a):
        tx, kx = lifts[a.images]
        out = list(tx)
        for k, c in zip(kx, kids):
            if (k & u).bit_count() & 1:
                out[c], out[c + 1] = tx[c + 1], tx[c]
        return BallAut._raw(d, r + 1, tuple(out))

    for u in walk(particular, null):
        yield functools.partial(section, u)
