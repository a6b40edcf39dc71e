"""Gluing behaviour of a group of ball automorphisms.

For a group F of automorphisms of the radius-k ball, the central question is
which elements of F can sit at a neighbouring vertex while a given element
acts at the center. The fiber of such partners in a fixed direction controls
whether local data extends outward: a group where every fiber is nonempty
extends one step in every direction, and a group where the identity's fibers
are trivial extends in at most one way.

Everything here works on materialised groups and answers every gluing
question from one fiber index: a partner restricts to the center's chart
toward it, so a fiber lies in one run of the sorted elements, found by
bisection; only runs that queries reach are keyed.

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
import math

from .balls import (BallAut, BallGroup, _glue_fibers, _glue_images,
                    _need_key, _offer_key, ball_points)
from .errors import HypothesisError, check_cells
from .linear import echelon, solve, walk
from .permcore import _codec, _getter, _grow


def _class_fibers(group, directions, root):
    """The fibers in `directions` of the run of elements restricting to
    `root`, in element order, keyed by their charts there; cached."""
    cache = group._cache.setdefault("class_fibers", {})
    fibers = cache.get((directions, root))
    if fibers is None:
        fibers = {}
        for b in group._run(root):
            key = tuple([_offer_key(b, w)[1] for w in directions])
            fibers.setdefault(key, []).append(b)
        fibers = {k: tuple(v) for k, v in fibers.items()}
        cache[directions, root] = fibers
    return fibers


def compat_set(group, alpha, direction):
    """All elements of the group that glue to `alpha` in the given direction,
    in element order: one lookup in the run restricting to alpha's chart."""
    root, chart = _need_key(alpha, direction)
    return _class_fibers(group, (direction,), root).get((chart,), ())


def joint_compat_set(group, alpha, directions):
    """Elements gluing to `alpha` in every one of the given directions."""
    directions = tuple(directions)
    if not directions:
        return group.elements
    roots, charts = zip(*[_need_key(alpha, w) for w in directions])
    # a partner has one root, so alpha's charts toward the block must agree
    if len(set(roots)) > 1:
        return ()
    return _class_fibers(group, directions, roots[0]).get(charts, ())


def first_compat_failure(group):
    """A (generator, direction) pair with an empty fiber, or None."""
    for a in group.generators:
        for w in range(group.degree):
            if not compat_set(group, a, w):
                return (a, w)
    return None


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
    for w in range(group.degree):
        for b in compat_set(group, ident, w):
            if not b.is_identity():
                return (b, w)
    return None


def check_trivial_seams(group):
    """Is the identity's gluing fiber trivial in every direction?"""
    return seam_witness(group) is None


def compatibility_core(group):
    """The largest subgroup in which every fiber stays nonempty.

    Repeatedly discard elements whose fiber in some direction misses the
    surviving set; the greatest fixpoint of this pruning is closed under
    products and inverses (partners of a product can be assembled from
    partners of the factors), so the result really is a subgroup. That
    closure is re-verified here and a failure raises, since it would mean a
    bug rather than bad input. When nothing is pruned, as the generators
    show, the result is `group`.
    """
    if check_compatibility(group):
        return group
    live = set(group.elements)
    while True:
        keep = {a for a in live
                if all(not live.isdisjoint(compat_set(group, a, w))
                       for w in range(group.degree))}
        if keep == live:
            break
        live = keep
    try:
        return BallGroup.from_elements(sorted(live))
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
    one ball radius outward in a group-compatible way.
    """

    def __init__(self, group, table):
        self.group = group
        self.table = dict(table)
        self.verify()

    def z(self, alpha, direction):
        return self.table[(alpha, direction)]

    def verify(self):
        """Check fibers, involutivity and the product rule.

        The checks run in this order, each with its own message, on image
        tuples: every (a, w) has a choice, in the group, in a's fiber (read
        from the fiber index, which decides ball_compatible for members of
        the group, once per group), whose own choice is a; and z(a * b, w) =
        z(a, b(w)) * z(b, w), each product one gather. They read one map from
        each element's tuple to its row of choices, which the cocycle keeps
        for its extensions. The product rule is checked for b among the
        generators only: if it holds for b1 and b2 against every a, it holds
        for b1 * b2, so by induction on word length it holds for every b.
        """
        group = self.group
        d = group.degree
        fibers = group._cache.get("fiber_images")
        if fibers is None:
            fibers = group._cache["fiber_images"] = {
                a.images: [{b.images for b in compat_set(group, a, w)}
                           for w in range(d)] for a in group.elements}
        z = {}
        for a in group.elements:
            row = z[a.images] = []
            for w, partners in enumerate(fibers[a.images]):
                b = self.table.get((a, w))
                if b is None:
                    raise ValueError("choice map misses (%r, %d)" % (a, w))
                if b not in group:
                    raise ValueError("choice at (%r, %d) leaves the group" % (a, w))
                if b.images not in partners:
                    raise ValueError("choice at (%r, %d) is not a partner" % (a, w))
                row.append(b.images)
        if any(z[b][w] != a for a, row in z.items() for w, b in enumerate(row)):
            raise ValueError("choice map is not involutive")
        for b in group.generators:
            step, moved = _getter(b.images), b.images[:d]
            right = list(zip(map(_getter, z[b.images]), moved))
            if any(z[step(a)] != [f(row[x]) for f, x in right]
                   for a, row in z.items()):
                raise ValueError("choice map breaks the product rule")
        self._images = z

    @functools.cached_property
    def _lifted_generators(self):
        """The sections of the group's generators, built once: a verified
        table stays fixed (it is hashed), and every extension of the cocycle
        by a kernel starts from them."""
        return [self.section(g) for g in self.group.generators]

    def section(self, alpha):
        """The one-step-larger automorphism this choice map assigns to alpha:
        its partners passed `verify`, so they glue without a second check."""
        children = [self.table[(alpha, w)] for w in range(alpha.degree)]
        return BallAut._raw(alpha.degree, alpha.radius + 1,
                            _glue_images(alpha, children))

    def table_key(self):
        items = sorted((a.images, w, b.images)
                       for (a, w), b in self.table.items())
        return tuple(items)

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
    lifts past the table-cell budget before listing them.
    """
    out = [CompatCocycle(group, {(a, w): b for a in group.elements
                                 for w, b in enumerate(lift(a).children)})
           for lift in _involutive_sections(group)]
    out.sort(key=lambda c: c.table_key())
    return out


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
