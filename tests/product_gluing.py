"""Reference product gluing that glues every combination again, site by site.

treeball builds full lifts, full automorphism groups and tower levels by
gathering each partner's site segment once per root and growing the image
tuples as a prefix tree (`balls._glue_fibers`). The versions here are the
loops that came before: every combination of partners, in
itertools.product order, is glued from scratch through `balls._glue_images`.
They are slower but share no segment between combinations; tests require
both to give identical lists, order included.
"""

import itertools

from treeball import full_aut
from treeball.balls import _glue_images, _need_key, _offer_key
from treeball.compat import compat_set


def glue_fibers(root, fibers):
    """Image tuples of root glued with every choice of one chart per
    neighbour, in itertools.product order."""
    return [_glue_images(root, combo) for combo in itertools.product(*fibers)]


def glue_blocks(root, options, blocks):
    """Image tuples of root glued with one partner per block, the same at
    every neighbour of the block, in product order over the blocks."""
    block_of = {w: i for i, b in enumerate(blocks) for w in b}
    return [_glue_images(root, [combo[block_of[w]]
                                for w in range(root.degree)])
            for combo in itertools.product(*options)]


def one_step_full_lift(group):
    """The image tuples of the full lift one radius up, in build order: the
    roots in element order, each with its partners' product."""
    out = []
    for a in group.elements:
        out.extend(glue_fibers(a, [compat_set(group, a, w)
                                   for w in range(group.degree)]))
    return out


def full_aut_images(degree, radius):
    """Every automorphism of the ball as a sorted list of image tuples, from
    treeball's full group one radius down."""
    if radius == 1:
        return sorted(itertools.permutations(range(degree)))
    inner = full_aut(degree, radius - 1)
    offers = [{} for _ in range(degree)]
    for b in inner:
        for w in range(degree):
            offers[w].setdefault(_offer_key(b, w), []).append(b)
    out = []
    for root in inner:
        out.extend(glue_fibers(root, [offers[w].get(_need_key(root, w), ())
                                      for w in range(degree)]))
    return sorted(out)

