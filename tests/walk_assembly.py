"""Reference extension assembly that walks each vertex through chart objects.

treeball assembles an extension from its charts by one index lookup per
point through a cached table. The version here follows every word of the
ball one letter at a time, reading each step's label from the chart that
owns it as a one-step local action, and rebuilds the map from its word
table. It is slower but has no table to get wrong; tests require the
streams built on both to agree element for element, in order.
`assemble_extension` is the table route on explicit charts, checked
against the walk.
"""

from treeball.balls import (BallAut, _assemble, ball_compatible, ball_points,
                            follow)
from treeball.compat import compat_set


def assemble_extension(degree, radius, assignments):
    """Glue charts into one ball map by the cached assembly table.

    `assignments` maps each word of length at most radius-k (k the charts'
    radius) to the chart at that vertex. Every chart must glue to its
    parent's chart along the edge between them; the first site and direction
    where one does not, or a missing site, raises ValueError. The map is then
    assembled by one gather per site.
    """
    if () not in assignments:
        raise ValueError("no chart at the center")
    center = assignments[()]
    k = center.radius
    if center.degree != degree or radius < k:
        raise ValueError("charts must have the ball's degree and at most "
                         "its radius")
    charts = []
    for v in ball_points(degree, radius - k):
        if v not in assignments:
            raise ValueError("no chart at site %r" % (v,))
        if not ball_compatible(assignments[v[:-1]], assignments[v], v[-1]):
            raise ValueError("charts do not glue at site %r in direction %d"
                             % (v[:-1], v[-1]))
        charts.append(assignments[v])
    return BallAut.from_images(degree, radius,
                               _assemble(radius, center, charts))


def assemble(degree, radius, assignments):
    """The ball map whose label at each step is read from the owning chart."""
    charts = dict(assignments)
    k = charts[()].radius

    def one_step_action(v):
        head, tail = v[:radius - k], v[radius - k:]
        return charts[head].local_action(tail, 1).root

    mapping = {}
    for w in ball_points(degree, radius):
        img = ()
        for j, letter in enumerate(w):
            img = follow(img, (one_step_action(w[:j])(letter),))
        mapping[w] = img
    return BallAut.from_wordmap(degree, radius, mapping)


def extensions_of_seed(group, seed, radius):
    """Every extension of `seed`, depth first over the sites' fibers."""
    k = group.radius
    if radius == k:
        yield seed
        return
    sites = ball_points(group.degree, radius - k)

    def descend(assignments, i):
        if i == len(sites):
            yield assemble(group.degree, radius, assignments)
            return
        v = sites[i]
        for choice in compat_set(group, assignments[v[:-1]], v[-1]):
            assignments[v] = choice
            yield from descend(assignments, i + 1)
        del assignments[v]

    yield from descend({(): seed}, 0)


def iter_extensions(group, radius):
    """The extensions of every group element, seeds in element order."""
    for root in group.elements:
        yield from extensions_of_seed(group, root, radius)


def extend_least(group, seed, radius):
    """The extension of `seed` taking the least compatible chart everywhere."""
    if radius == group.radius:
        return seed
    assignments = {(): seed}
    for v in ball_points(group.degree, radius - group.radius):
        assignments[v] = compat_set(group, assignments[v[:-1]], v[-1])[0]
    return assemble(group.degree, radius, assignments)
