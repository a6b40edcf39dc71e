"""Reference gluing fibers, (C) check and compatibility core by scanning.

treeball looks a fiber up in the one run of the packed table whose packs
restrict to the asked chart, charts only that run off the packs, decides
(C) on the generators, and prunes the compatibility core on the packs one
direction at a time. The versions here test every element object of the
group against `ball_compatible`, check (C) on every element, and prune all
directions at once with hash buckets of offered keys rebuilt over the
surviving set each round. Slower, but with nothing to get wrong; tests
require the same tuples, in the same order, and the same cores.
"""

from treeball.balls import (BallGroup, _need_key, _root_and_chart,
                            ball_compatible)


def offer_key(beta, w):
    """What `beta` shows a center at the neighbour w, to meet that center's
    `_need_key`: its root and its chart there, or at radius 1 () and its
    image of w."""
    if beta.radius == 1:
        return (), beta.images[w]
    return _root_and_chart(beta, w)


def fiber(group, alpha, directions):
    """Elements gluing to `alpha` in every one of `directions`, in element
    order."""
    return tuple(b for b in group.elements
                 if all(ball_compatible(alpha, b, w) for w in directions))


def check_c(group):
    """Does every element have a partner in every direction? Every element
    is checked, against the keys every element offers."""
    for w in range(group.degree):
        offers = {offer_key(b, w) for b in group.elements}
        if any(_need_key(a, w) not in offers for a in group.elements):
            return False
    return True


def projection_kernel(group):
    """Elements restricting to the identity one radius down."""
    return tuple(a for a in group.elements if a.root.is_identity())


def compatibility_core(group):
    """The greatest fixpoint of discarding elements with an empty fiber
    relative to the survivors; `group` itself when nothing is discarded."""
    live = set(group.elements)
    d = group.degree
    while True:
        buckets = []
        for w in range(d):
            bw = {}
            for b in live:
                bw.setdefault(offer_key(b, w), []).append(b)
            buckets.append(bw)
        keep = {a for a in live
                if all(_need_key(a, w) in buckets[w] for w in range(d))}
        if keep == live:
            break
        live = keep
    if len(live) == group.order:
        return group
    return BallGroup.from_elements(sorted(live))
