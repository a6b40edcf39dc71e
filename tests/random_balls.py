"""Random ball automorphisms, drawn layer by layer: a random permutation of
the center's neighbours, then, one radius at a time, a random chart at each
neighbour among those that glue to the automorphism drawn so far.
"""

from treeball.balls import BallAut, _glue_images
from treeball.permcore import Perm


def random_fiber_element(alpha, direction, rng):
    """Uniformly random automorphism gluing to `alpha` at the neighbour."""
    d = alpha.degree
    if alpha.radius == 1:
        rest = [w for w in range(d) if w != direction]
        images = [0] * d
        images[direction] = alpha.root(direction)
        targets = [w for w in range(d) if w != images[direction]]
        rng.shuffle(targets)
        for w, img in zip(rest, targets):
            images[w] = img
        return BallAut(Perm(tuple(images)))
    root = alpha.children[direction]
    children = [None] * d
    children[direction] = alpha.root
    for w in range(d):
        if w != direction:
            children[w] = random_fiber_element(root, w, rng)
    return BallAut._raw(d, alpha.radius, _glue_images(root, children))


def random_ball_aut(degree, radius, rng):
    """Uniformly random automorphism of the ball."""
    images = list(range(degree))
    rng.shuffle(images)
    a = BallAut(Perm(tuple(images)))
    for _ in range(radius - 1):
        children = tuple(random_fiber_element(a, w, rng)
                         for w in range(degree))
        a = BallAut._raw(degree, a.radius + 1, _glue_images(a, children))
    return a
