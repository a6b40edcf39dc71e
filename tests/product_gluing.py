"""Reference product gluing that glues every combination again, site by site.

treeball builds full lifts, full automorphism groups and tower levels in one
step. Up to 256 points it makes one lift per element below and multiplies
it by the kernel of restriction, glued once, one translate per kernel
element (`constructions._coset_table`). Past 256 points, where a product is
a gather and not a translate, each element below is glued with its own
fibers, each partner's site segment gathered once and the image tuples
grown as a prefix tree (`balls._glue_fibers`). The versions here are the
loops that came before: every combination of partners, in
itertools.product order, is glued from scratch through `balls._glue_images`.
They are slower but share no segment between combinations and make no
coset; tests require both to give identical lists, order included where
treeball keeps one.
"""

import itertools

from scanning_fibers import offer_key
from treeball import full_aut
from treeball.balls import _glue_images, _need_key
from treeball.compat import compat_set, joint_compat_set
from treeball.permcore import small_generating_set_of


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


def one_step_level(group, blocks, pinned=None):
    """The image tuples of the level one radius above `group` that is
    constant on each of `blocks`, in build order, and of its generators.
    Each element carries one partner per block, out of its joint fibers,
    and itself on the `pinned` block. The generators are each generator's
    lift, its first joint partner on every other block, then per unpinned
    block the twists of the identity by the greedy generators of that
    block's identity fiber."""
    ident = group.identity()

    def options(a):
        return [[a] if i == pinned else list(joint_compat_set(group, a, b))
                for i, b in enumerate(blocks)]

    table = [t for a in group.elements
             for t in glue_blocks(a, options(a), blocks)]
    gens = [glue_blocks(a, [o[:1] for o in options(a)], blocks)[0]
            for a in group.generators]
    for i, fiber in enumerate(options(ident)):
        if i != pinned:
            gens.extend(glue_blocks(ident, [[x] if j == i else [ident]
                                            for j in range(len(blocks))],
                                    blocks)[0]
                        for x in small_generating_set_of(fiber, ident)
                        if not x.is_identity())
    return table, gens


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
            offers[w].setdefault(offer_key(b, w), []).append(b)
    out = []
    for root in inner:
        out.extend(glue_fibers(root, [offers[w].get(_need_key(root, w), ())
                                      for w in range(degree)]))
    return sorted(out)

