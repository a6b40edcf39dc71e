"""Gluing behaviour of a group of ball automorphisms.

For a group F of automorphisms of the radius-k ball, the central question is
which elements of F can sit at a neighbouring vertex while a given element
acts at the center. The fiber of such partners in a fixed direction controls
whether local data extends outward: a group where every fiber is nonempty
extends one step in every direction, and a group where the identity's fibers
are trivial extends in at most one way.

Everything here works with explicit element lists; fibers are resolved
through hash buckets rather than pairwise scans, which keeps the fixpoint
computation below quadratic in practice.
"""

from __future__ import annotations

import itertools

from .balls import (BallAut, BallGroup, _need_key, _offer_key,
                    ball_compatible, ball_points)
from .errors import HypothesisError
from .permcore import _grow


def _buckets(group, direction):
    cache = group._cache.setdefault("compat_buckets", {})
    if direction not in cache:
        buckets = {}
        for b in group.elements:
            buckets.setdefault(_offer_key(b, direction), []).append(b)
        cache[direction] = {k: tuple(v) for k, v in buckets.items()}
    return cache[direction]


def compat_set(group, alpha, direction):
    """All elements of the group that glue to `alpha` in the given direction."""
    if isinstance(group, BallGroup):
        return _buckets(group, direction).get(_need_key(alpha, direction), ())
    return tuple(b for b in group if ball_compatible(alpha, b, direction))


def joint_compat_set(group, alpha, directions):
    """Elements gluing to `alpha` in every one of the given directions."""
    directions = tuple(directions)
    if not directions:
        return tuple(group.elements if isinstance(group, BallGroup) else group)
    out = compat_set(group, alpha, directions[0])
    for w in directions[1:]:
        need = _need_key(alpha, w)
        out = tuple(b for b in out if _offer_key(b, w) == need)
    return out


def first_compat_failure(group, generators_only=False):
    """An (element, direction) pair with an empty fiber, or None."""
    todo = group.generators if generators_only else group.elements
    for a in todo:
        for w in range(group.degree):
            if not compat_set(group, a, w):
                return (a, w)
    return None


def check_compatibility(group, generators_only=False):
    """Does every element have a gluing partner in every direction?

    Fibers of a product contain products of fibers, and fibers of an inverse
    are images of fibers, so checking the generators alone already settles
    the question for the whole group.
    """
    return first_compat_failure(group, generators_only) is None


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

    Repeatedly discard elements with an empty fiber relative to the surviving
    set; the greatest fixpoint of this pruning is closed under products and
    inverses (partners of a product can be assembled from partners of the
    factors), so the result really is a subgroup. That closure is re-verified
    here and a failure raises, since it would mean a bug rather than bad input.
    """
    live = set(group.elements)
    d = group.degree
    while True:
        buckets = []
        for w in range(d):
            bw = {}
            for b in live:
                bw.setdefault(_offer_key(b, w), []).append(b)
            buckets.append(bw)
        keep = {a for a in live
                if all(_need_key(a, w) in buckets[w] for w in range(d))}
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

    def __init__(self, group, table, validate=True):
        self.group = group
        self.table = dict(table)
        if validate:
            self.verify()

    def z(self, alpha, direction):
        return self.table[(alpha, direction)]

    def verify(self):
        """Check fibers, involutivity and the product rule.

        The product rule is checked for b among the generators only: if it
        holds for b1 and b2 against every a, it holds for b1 * b2, so by
        induction on word length it holds for every b.
        """
        group = self.group
        d = group.degree
        for a in group.elements:
            for w in range(d):
                b = self.table.get((a, w))
                if b is None:
                    raise ValueError("choice map misses (%r, %d)" % (a, w))
                if b not in group:
                    raise ValueError("choice at (%r, %d) leaves the group" % (a, w))
                if not ball_compatible(a, b, w):
                    raise ValueError("choice at (%r, %d) is not a partner" % (a, w))
        for a in group.elements:
            for w in range(d):
                if self.table[(self.table[(a, w)], w)] != a:
                    raise ValueError("choice map is not involutive")
        for b in group.generators:
            lv1 = b.level1()
            for a in group.elements:
                ab = a * b
                for w in range(d):
                    if self.table[(ab, w)] != (
                            self.table[(a, lv1(w))] * self.table[(b, w)]):
                        raise ValueError("choice map breaks the product rule")

    def section(self, alpha):
        """The one-step-larger automorphism this choice map assigns to alpha."""
        children = tuple(self.table[(alpha, w)] for w in range(self.group.degree))
        return BallAut(alpha, children)

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


def canonical_cocycle(group):
    """The unique choice map of a group with nonempty, rigid fibers.

    When every fiber is nonempty and the identity's fibers are trivial, each
    fiber is a single element; picking it is forced, and the product rule and
    involutivity hold automatically. Raises when the hypotheses fail.
    """
    if not check_compatibility(group):
        raise HypothesisError("fibers must be nonempty in every direction")
    if not check_trivial_seams(group):
        raise HypothesisError("the identity's fibers must be trivial")
    table = {}
    for a in group.elements:
        for w in range(group.degree):
            fiber = compat_set(group, a, w)
            if len(fiber) != 1:
                raise RuntimeError("fiber not a singleton despite rigidity; bug")
            table[(a, w)] = fiber[0]
    return CompatCocycle(group, table, validate=True)


def find_involutive_cocycles(group, validate=True, generators=None):
    """All involutive choice maps on the group, deduplicated.

    Any coherent choice map is determined by its values on a generating set:
    the section it induces generates a subgroup one radius up that projects
    bijectively back. The search therefore branches over fiber choices for
    the generators. Each prefix of choices hands its closure down, and the
    next choice grows a copy of it by that one lift (permcore._grow), so no
    prefix is closed from scratch. A prefix dies as soon as its closure grows
    past the group order or picks up an element acting trivially on the
    inner ball, since a faithful projection allows neither. Groups with rigid
    fibers short-circuit to their unique map.
    """
    if first_compat_failure(group, generators_only=True) is not None:
        return []
    if check_trivial_seams(group):
        coc = canonical_cocycle(group)
        if not _table_involutive(coc.table):
            return []
        return [coc]

    d = group.degree
    ident = BallAut.identity(d, group.radius + 1)
    target = group.order

    if generators is None:
        generators = group.generators
    gens = [g for g in generators if not g.is_identity()]
    options = []
    for g in gens:
        g_order = g.order()
        lifts = []
        fibers = [compat_set(group, g, w) for w in range(d)]
        for combo in itertools.product(*fibers):
            lift = BallAut(g, combo)
            if lift.order() == g_order:
                lifts.append(lift)
        if not lifts:
            return []
        options.append(lifts)
    options.sort(key=len)

    inner = len(ball_points(d, group.radius))
    kernel_key = ident.images[:inner]

    def in_kernel(h):
        return h.images[:inner] == kernel_key

    found = set()

    def descend(level, members, seen, chosen):
        if level == len(options):
            if len(members) == target:
                found.add(frozenset(seen))
            return
        for lift in options[level]:
            grown = (list(members), set(seen), list(chosen))
            if _grow(*grown, lift, target, in_kernel):
                descend(level + 1, *grown)

    descend(0, [ident], {ident}, [])

    # Each closure is the lifted group itself: its elements are the sections,
    # so they list the whole table, and distinct closures give distinct tables.
    out = []
    for closed in found:
        table = {}
        for h in closed:
            a = h.root
            if a not in group:
                break
            for w, child in enumerate(h.children):
                table[(a, w)] = child
        if len(table) == target * d and _table_involutive(table):
            out.append(CompatCocycle(group, table, validate=validate))
    out.sort(key=lambda c: c.table_key())
    return out


def _table_involutive(table):
    return all(table[(b, w)] == a for (a, w), b in table.items())
