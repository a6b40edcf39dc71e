"""Finite windows onto the universal completion of a ball group.

The group of all tree automorphisms whose local actions of the group's radius
lie in the group is infinite, so nothing here ever materializes it. What is
computable: how many distinct restrictions it has to a ball of radius R, the
closed form |F| * P^S (`count_restrictions`), the restrictions themselves
(streamed, assembled chart by chart), the seam groups its kernel leaves on
the boundary, and whether the completion is discrete. The label-respecting
isometries of the labelled tree round out the geometric side; they are the
translations and inversions every such completion contains.

A restriction to radius R is assembled from one radius-k chart per site (a
word of length at most R - k) by gathers through ``balls._assembly_table``,
cached per (degree, R, k): the center's chart gives the image tuple up to
length k, and each later site v its segment, the points k steps past v, its
chart's images moved out from v's image. Streams place and check each
segment a site's fiber offers once, joined by one lazy product per depth.
Gluing a root to its children is R = k + 1.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import partial
from itertools import chain, product
from math import prod

from .balls import (BallAut, _assembly_table, _branch, _parents,
                    _site_points, ball_points, follow, words_of_length)
from .compat import (
    check_trivial_seams,
    compat_set,
    compatibility_core,
    require_gluing,
)
from .constructions import build_full_lift, radius_one
from .errors import CapacityError, HypothesisError
from .permcore import PermGroup, _getter, factorize, format_factors


def count_restrictions(group, radius):
    """How many ball maps of `radius` fix the center and have all their
    local actions in `group`.

    When the group can always be glued to itself (generator fibers nonempty),
    these are exactly the restrictions to the ball of the center-stabilizing
    part of its universal completion. Fibers are cosets of the identity's,
    so one takes an element of F at the center and one of f_w fiber
    partners at each of the S = ((d-1)^(R-k) - 1)/(d-2) sites behind
    neighbour w: |F| * P^S, P the product of the f_w. Counts of 2**63 or
    more, past the int64 range, raise, with the prime factorization in the
    message, rather than pretending such a group could be handled further.
    """
    total, factors = _restriction_count(group, radius)
    if total >= 2 ** 63:
        raise CapacityError(
            "restriction count reaches 2^63; factored: %s"
            % format_factors(factors))
    return total


def _restriction_count(group, radius):
    """|F| * P^S saturated at 2**63, and its (prime, exponent) pairs: |F|'s
    plus P's times S. No S is made for P == 1, nor once S alone has more
    digits than the interpreter prints, by default where its limit is off;
    such an exponent is refused."""
    _require_gluing(group, radius, "restriction counting does not factor")
    d, n = group.degree, radius - group.radius
    P = prod(len(compat_set(group, group.identity(), w)) for w in range(d))
    if P == 1:
        return group.order, factorize(group.order)
    # a limit of 0 is none: the default bounds S then, so that either
    # setting refuses the same inputs
    limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)()
             or getattr(sys.int_info, "default_max_str_digits", 4300))
    # S >= 2^(n-1) has more than `limit` digits once n - 1 > 4 * limit
    if n - 1 <= 4 * limit:
        S = _branch(d, n)
        exps = Counter(dict(factorize(group.order))) + Counter(
            {p: e * S for p, e in factorize(P)})
        if max(exps.values()) < 10 ** limit:
            return (min(group.order * P ** min(S, 63), 2 ** 63),  # P >= 2
                    sorted(exps.items()))
    raise CapacityError(
        "restriction count at radius %d: a prime's exponent has more than "
        "%d digits, the limit for printing an integer" % (radius, limit))


def _require_gluing(group, radius, consequence):
    if radius < group.radius:
        raise HypothesisError("radius must be at least the group's own")
    require_gluing(group, consequence)


def iter_extensions(group, radius):
    """Yield every ball map of `radius` whose local actions lie in `group`.

    Streams through chart assignments: one group element per vertex down to
    depth radius-k, each gluing to its parent's chart, one product per depth,
    with the full map joined only at the leaves. Order of the stream is the
    sorted order of the assignment choices, not of the resulting maps.
    """
    if radius != group.radius:
        _require_gluing(group, radius, "extensions may not exist")
    for root in group.elements:
        yield from _extensions_of_seed(group, root, radius)


def extend_to_ball(group, seed, radius):
    """Every distinct extension of one group element to a larger ball whose
    charts stay in the group, as an iterator.

    Each restricts to the seed on the inner ball. The hypotheses are checked
    on the call, before the first item; the first item takes the least
    compatible chart at every site.
    """
    _require_gluing(group, radius, "extensions may not exist")
    if seed not in group:
        raise HypothesisError("the seed must belong to the group")
    return _extensions_of_seed(group, seed, radius)


def _extensions_of_seed(group, seed, radius):
    # one frame per depth, whose sites lazy products walk in ball_points
    # order (the sorted order of the choices). Each chart a site's fiber
    # offers is placed once as a segment, which must hold distinct children
    # of the images of its points' parents: past a seed passing from_images,
    # that is its test, as parents map one to one by induction and differ
    # under different sites. Site i's parent is its point's, parent[i].
    d, k = group.degree, group.radius
    BallAut.from_images(d, k, seed.images)  # the seed's check
    sites, tails, reach = _assembly_table(d, radius, k)
    parent, m = _parents(d, radius), (d - 1) ** k  # m: a segment's points
    charts, leaf = [seed] * (len(sites) + 1), partial(BallAut._raw, d, radius)

    def descend(depth, images):
        lo, hi = len(ball_points(d, depth - 1)), len(ball_points(d, depth))
        fibers = [compat_set(group, charts[parent[i] + 1], sites[i][1])
                  for i in range(lo, hi)]
        segs = [[_site_points(reach, tails[b], images[s], c) for c in f]
                for (s, b), f in zip(sites[lo:hi], fibers)]
        for j, placed in zip(range(len(images), len(parent), m), segs):
            above = _getter(parent[j:j + m])(images)
            if any(len(set(seg)) < m or _getter(seg)(parent) != above
                   for seg in placed):
                raise ValueError("table is not a ball automorphism")
        *head, last = segs  # each head of choices meets every last one
        for charts[lo + 1:hi], choice in zip(product(*fibers[:-1]),
                                             product(*head)):
            grown = images + tuple(chain.from_iterable(choice))
            if hi == len(sites):  # leaves are made in C; no chart is kept
                yield from map(leaf, map(grown.__add__, last))
            else:
                for charts[hi], seg in zip(fibers[-1], last):
                    yield from descend(depth + 1, grown + seg)

    yield from descend(1, seed.images) if sites else (seed,)


def pk_local_action(group, target_radius):
    """The local action at `target_radius` of the group's universal completion.

    Below the group's own radius this is the plain restriction; above it,
    the iterated full lift: all maps one radius out whose charts lie in the
    level below.
    """
    if isinstance(group, PermGroup):
        group = radius_one(group)
    require_gluing(group, "the completion has no well-defined local action")
    if target_radius < 1:
        raise HypothesisError("radius must be positive")
    if target_radius <= group.radius:
        return group.project(target_radius)
    return build_full_lift(group, radius=target_radius)


def seam_groups(group):
    """The one-step actions at depth k-1 of maps restricting to the identity.

    Returns a mapping from each word of length k-1 to the permutation group
    formed there by the kernel of restriction-to-the-inner-ball. Each seam
    group sits subnormally, with depth at most k-1, inside the stabilizer of
    the word's last letter in the one-step local group (`local_action_group`).
    Every kernel element fixes w, so the step action at w is a homomorphism
    on the kernel, and the images of its generators generate its image.
    """
    k = group.radius
    if k < 2:
        raise HypothesisError("seams only exist past radius one")
    gens = group.projection_kernel().generators
    return {w: PermGroup.generated(sorted({g.step_action(w) for g in gens}),
                                   group.degree)
            for w in words_of_length(group.degree, k - 1)}


def local_action_group(group):
    """The closure of every one-step local action of the group's elements."""
    perms = set()
    for g in group.generators:
        for v in ((),) + ball_points(group.degree, group.radius - 1):
            perms.add(g.step_action(v))
    return PermGroup.generated(sorted(perms), group.degree)


def is_discrete_universal(group):
    """Whether the group's universal completion is discrete.

    The completion only sees the largest subgroup that glues to itself, and
    it is discrete exactly when that core leaves no seam: no nontrivial
    member glues to the identity.
    """
    return check_trivial_seams(compatibility_core(group))


# ---------------------------------------------------------------------------
# label-respecting isometries of the labelled tree
# ---------------------------------------------------------------------------

def label_respecting_map(center_image):
    """The unique tree isometry with identity local actions sending the
    center to `center_image`.

    Acts on reduced words by prepending the target and cancelling backtracks.
    Composing two of these is another one; the ones indexed by a single
    letter are the edge inversions, and only even-length targets can give
    translations.
    """
    base = tuple(center_image)

    def act(word):
        return follow(base, tuple(word))

    return act


def edge_inversion(direction):
    """Swap the center with its neighbour along `direction`, labels intact."""
    return label_respecting_map((direction,))
