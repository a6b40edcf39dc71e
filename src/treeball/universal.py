"""Finite windows onto the universal completion of a ball group.

The group of all tree automorphisms whose local actions of the group's radius
lie in the group is infinite, so nothing here ever materializes it. What is
computable: how many distinct restrictions it has to a ball of given radius,
the restrictions themselves (streamed, assembled chart by chart), the seam
groups its kernel leaves on the boundary, and whether the completion is
discrete. The label-respecting isometries of the labelled tree round out the
geometric side; they are the translations and inversions every such
completion contains.

A restriction to radius R is assembled from one radius-k chart per site (a
word of length at most R - k) by gathers through ``balls._assembly_table``,
cached per (degree, R, k): the center's chart gives the image tuple up to
length k, and each later site v the points k steps past v, its chart's
images moved out from v's image. Gluing a root to its children is R = k + 1.
"""

from __future__ import annotations

import sys

from .balls import (
    BallAut,
    _assembly_table,
    _parents,
    _site_points,
    ball_points,
    follow,
    words_of_length,
)
from .compat import (
    check_trivial_seams,
    compat_set,
    compatibility_core,
    require_gluing,
)
from .constructions import build_full_lift, radius_one
from .errors import CapacityError, HypothesisError
from .permcore import PermGroup


def count_restrictions(group, radius):
    """How many ball maps of `radius` fix the center and have all their
    local actions in `group`.

    When the group can always be glued to itself (generator fibers nonempty),
    these are exactly the restrictions to the ball of the center-stabilizing
    part of its universal completion. The count factors over the assignment
    tree because fibers are cosets of the identity's fiber: the root
    contributes the group order and every deeper chart contributes the fiber
    size of its last direction. Counts of 2**63 or more, past the int64
    range, raise, with the factorization in the message, rather than
    pretending such a group could be handled further.
    """
    total, factors = _restriction_count(group, radius)
    if total >= 2 ** 63:
        raise CapacityError(
            "restriction count reaches 2^63; factored: %s"
            % " * ".join(factors))
    return total


def _restriction_count(group, radius):
    """The restriction count, saturated at 2**63 before any larger power is
    made, and its factors as strings, refused before any is formatted when
    an exponent has more digits than the interpreter prints."""
    _require_gluing(group, radius, "restriction counting does not factor")
    k = group.radius
    ident = group.identity()
    fiber = [len(compat_set(group, ident, w)) for w in range(group.degree)]
    # the largest exponent is base^top, of more than `limit` digits once
    # top passes 4 * limit (2^4 > 10), so no huge power is made to see it
    base, top = group.degree - 1, radius - k - 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    if limit and top > 0 and any(f != 1 for f in fiber) and (
            top > 4 * limit or base ** top >= 10 ** limit):
        raise CapacityError(
            "restriction count at radius %d: its factor exponent %d^%d has "
            "more than %d digits, the limit for printing an integer"
            % (radius, base, top, limit))
    total = group.order
    factors = [str(group.order)]
    for depth in range(1, radius - k + 1):
        per_letter = base ** (depth - 1)
        for w in range(group.degree):
            if fiber[w] != 1:
                factors.append("%d^%d" % (fiber[w], per_letter))
                # a fiber of 2 or more to the 63rd passes 2**63 alone
                total = min(total * fiber[w] ** min(per_letter, 63), 2 ** 63)
    return total, factors


def _require_gluing(group, radius, consequence):
    if radius < group.radius:
        raise HypothesisError("radius must be at least the group's own")
    require_gluing(group, consequence)


def iter_extensions(group, radius):
    """Yield every ball map of `radius` whose local actions lie in `group`.

    Streams depth first through chart assignments: one group element per
    vertex down to depth radius-k, each gluing to its parent's chart, with the
    full map assembled only at the leaves. Order of the stream is the sorted
    order of the assignment choices, not of the resulting maps.
    """
    if radius == group.radius:
        yield from group.elements
        return
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
    # sites are the words of length at most radius - k, center first, so a
    # site's number is its ball_points index plus one; the image list grows
    # by one site's points on the way down and is cut back on the way up
    d, k = group.degree, group.radius
    if radius == k:
        yield seed
        return
    sites, tails, reach = _assembly_table(d, radius, k)
    parents = [p + 1 for p in _parents(d, radius - k)]
    charts = [seed] * (len(sites) + 1)
    images = list(seed.images)

    def descend(i):
        (site, back), cut = sites[i], len(images)
        for choice in compat_set(group, charts[parents[i]], back):
            charts[i + 1] = choice
            images.extend(_site_points(reach, tails[back], images[site],
                                       choice))
            if i + 1 == len(sites):
                yield BallAut.from_images(d, radius, images)
            else:
                yield from descend(i + 1)
            del images[cut:]

    yield from descend(0)


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
    """
    k = group.radius
    if k < 2:
        raise HypothesisError("seams only exist past radius one")
    kernel = group.projection_kernel()
    out = {}
    for w in words_of_length(group.degree, k - 1):
        perms = {g.step_action(w) for g in kernel}
        out[w] = PermGroup.from_elements(perms)
    return out


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
