"""Automorphisms of finite balls in a labelled regular tree.

A ball of radius ``r`` in the tree of degree ``d`` has its vertices addressed
by words over the alphabet ``{0, ..., d-1}`` in which consecutive letters
differ: each edge carries one label, the labels around every vertex are
pairwise distinct, and a word spells the labels along the unique reduced path
from the ball's center. The empty word is the center itself.

An automorphism fixing the center is stored flat: one tuple holding, for
every other vertex in ``ball_points`` order (by length, then by word), the
index of its image. Products and inverses are tuple gathers, as for
permutations; closures multiply packs by the product `permcore._codec`
picks, one translate up to 256 points and a tuple gather past that, and
gluing a level packs each site segment once and concatenates packs. Within
one length the points are in word order, so comparing index tuples orders
automorphisms exactly as comparing their word tables. Restriction to a
smaller concentric ball is a prefix of the tuple.

The recursive view is derived from the tuple on demand, through index
tables computed once per (degree, radius): ``root`` is the restriction one
step smaller, and ``children[w]`` the induced automorphism of the radius
``r - 1`` ball around the neighbour ``w``, read in that neighbour's local
coordinates. The two overlap, so a pair (root, children) only describes a
genuine automorphism when every child glues to the root; the constructor
enforces that.

A `BallGroup` is built by the constructors `permcore` writes once for every
group kind, and adds the ball views: projections, the level-1 action and the
projection kernel. Tests draw random automorphisms from tests/random_balls.py.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, itemgetter

from .errors import HypothesisError
from .permcore import (Element, FiniteGroup, Perm, PermGroup, _codec,
                       _getter, _identity_images)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def words_of_length(degree, length):
    """All reduced words of exactly `length` letters, lexicographically."""
    if length == 0:
        yield ()
        return
    def rec(prefix):
        if len(prefix) == length:
            yield prefix
            return
        for x in range(degree):
            if prefix and prefix[-1] == x:
                continue
            yield from rec(prefix + (x,))
    yield from rec(())


@functools.lru_cache(maxsize=None)
def ball_points(degree, radius):
    """All vertices of the ball except its center, sorted by (length, word)."""
    out = []
    for n in range(1, radius + 1):
        out.extend(words_of_length(degree, n))
    return tuple(out)


def follow(base, rel):
    """Endpoint of the walk starting at vertex `base` spelling `rel`.

    Walking the label of the edge just used goes back up, so matching letters
    cancel; the result is again a reduced word.
    """
    out = list(base)
    for x in rel:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def word_path(a, b):
    """The reduced word spelling the path from vertex `a` to vertex `b`."""
    c = 0
    while c < len(a) and c < len(b) and a[c] == b[c]:
        c += 1
    return tuple(reversed(a[c:])) + tuple(b[c:])


def is_reduced_word(degree, word):
    if any(not (0 <= x < degree) for x in word):
        return False
    return all(word[i] != word[i + 1] for i in range(len(word) - 1))


# ---------------------------------------------------------------------------
# index tables
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _point_index(degree, radius):
    return {p: i for i, p in enumerate(ball_points(degree, radius))}


@functools.lru_cache(maxsize=None)
def _parents(degree, radius):
    """Index of each point's parent; -1 stands for the center."""
    index = _point_index(degree, radius)
    return tuple(index[p[:-1]] if len(p) > 1 else -1
                 for p in ball_points(degree, radius))


@functools.lru_cache(maxsize=None)
def _automorphism_test(degree, radius):
    """The test of BallAut.from_images: is an image tuple a bijection that
    maps the center's neighbours among themselves and every other point's
    parent to its image's parent? That is exactly an automorphism of the
    ball fixing the center: lengths are kept by induction, so each sphere
    maps onto itself and each edge onto an edge."""
    parent = _parents(degree, radius)
    points, parents_of_images = (frozenset(range(len(parent))),
                                 _getter(parent[degree:]))
    return lambda images: not (
        degree < 3 or len(images) != len(parent) or points.difference(images)
        or max(images[:degree]) >= degree
        or radius > 1 and (itemgetter(*images[degree:])(parent)
                           != parents_of_images(images)))


@functools.lru_cache(maxsize=None)
def _chart_tables(degree, radius):
    """Index tables between the ball and its charts at the neighbours.

    For each neighbour w: ``local[w][i]`` is point i read from w (-1 when
    out of reach), and ``getters[w]`` gathers from an image tuple, at each
    j, the point that the j-th word of the radius ``r - 1`` ball reaches
    from w. The local word (w,) leads back to the center; there the getter
    reads w and ``local[w][w]`` holds w, so the center still lands on the
    local index of the image neighbour. Up to 256 points ``local[w]`` is
    bytes, a translate table (-1 as 255, read by no chart) for packs.
    """
    pts = ball_points(degree, radius)
    inner = _point_index(degree, radius - 1)
    index = _point_index(degree, radius)
    gather, local = [], []
    for w in range(degree):
        gather.append(tuple(index.get(follow((w,), u), w)
                            for u in ball_points(degree, radius - 1)))
        loc = [inner.get(word_path((w,), p), -1) for p in pts]
        loc[w] = w
        local.append(tuple(loc) if len(pts) > 256
                     else bytes(i % 256 for i in loc).ljust(256))
    return tuple(local), tuple(map(_getter, gather))


@functools.lru_cache(maxsize=None)
def _assembly_table(degree, radius, k):
    """Index tables that glue radius-k charts into one map of the ball.

    Sites are the words of length at most radius - k, center first. The
    center's chart gives the points up to length k, and each later site v,
    in order, its segment: the points k steps past v (`_site_points`).
    ``sites`` holds (index, last letter) of each later site, ``tails[x]``
    gathers a chart's images of its sphere points not starting with x, and
    ``reach[i][j]`` is the point chart point j reaches out from point i (i
    itself where it reaches back). `_assemble`, `_glue_fibers` and the
    extension stream all join segments.
    """
    index = _point_index(degree, radius)
    chart = ball_points(degree, k)
    pts = ball_points(degree, radius - k)
    sites = tuple((index[v], v[-1]) for v in pts)
    tails = tuple(_getter([j for j, u in enumerate(chart)
                           if len(u) == k and u[0] != x]) for x in range(degree))
    reach = tuple(tuple(index.get(v + u, i) for u in chart)
                  for i, v in enumerate(pts))
    return sites, tails, reach


def _site_points(reach, tail, at, chart):
    """A chart's images of the `tail` points, moved out from point `at`."""
    return _getter(tail(chart.images))(reach[at])


def _assemble(radius, center, charts):
    """Image tuple of the ball map glued from charts, by gathers.

    `center` is the center's chart, and `charts` lists the later sites' charts
    of the same shape in site order, each gluing to its parent site's chart.
    A site's points are its chart's images moved out from the site's image.
    """
    sites, tails, reach = _assembly_table(center.degree, radius, center.radius)
    images = list(center.images)
    for (site, back), chart in zip(sites, charts):
        images.extend(_site_points(reach, tails[back], images[site], chart))
    return tuple(images)


def _glue_fibers(root, fibers, block_of=None):
    """Packs (`_codec`) of every map glued from `root` and a chart per
    neighbour w out of fibers[w], the directions of one block (block_of[w],
    by default each its own) taking charts at one index together, in
    itertools.product order over the blocks as they first occur. Each
    (w, chart) segment is gathered and packed once; the packs grow as a
    prefix tree by ``prefix + segment``.
    """
    _, tails, reach = _assembly_table(root.degree, root.radius + 1,
                                      root.radius)
    pack = _codec(len(ball_points(root.degree, root.radius + 1)))[0]
    # a block's choice changes every stride[block] packs of the level
    level, stride = [pack(root.images)], {}
    for w, at in enumerate(root.images[:root.degree]):
        b = w if block_of is None else block_of[w]
        segs = [pack(_site_points(reach, tails[w], at, c)) for c in fibers[w]]
        if b not in stride:
            level = [p + s for p in level for s in segs]
            stride = {c: n * len(segs) for c, n in stride.items()}
            stride[b] = 1
        else:
            run = [s for s in segs for _ in range(stride[b])]
            level = list(map(add, level, itertools.cycle(run)))
    return level


def _glue_images(root, children):
    """Image tuple of the map built from a root and one child per neighbour."""
    return _assemble(root.radius + 1, root, children)


# ---------------------------------------------------------------------------
# the automorphism class
# ---------------------------------------------------------------------------

class BallAut(Element):
    """An automorphism of the radius `radius` ball fixing the center.

    ``images[i]`` is the ball_points index of the image of point i, and the
    algebra on it is `Element`'s. ``BallAut(perm)`` builds a radius-1
    automorphism; ``BallAut(root, children)`` glues one radius ``r - 1``
    automorphism per neighbour, each in the neighbour's own coordinates, onto
    the restriction ``root``.
    """

    __slots__ = ("degree", "radius")

    def __init__(self, root, children=None):
        if children is None:
            if not isinstance(root, Perm):
                raise TypeError("radius-1 automorphism wraps a Perm")
            if root.degree < 3:
                raise HypothesisError("tree degree must be at least 3")
            self.degree = root.degree
            self.radius = 1
            self.images = root.images
        else:
            if not isinstance(root, BallAut):
                raise TypeError("root must be a BallAut one radius down")
            children = tuple(children)
            if len(children) != root.degree:
                raise ValueError("need one child per neighbour label")
            for w, child in enumerate(children):
                if child.degree != root.degree or child.radius != root.radius:
                    raise ValueError("children must match the root's shape")
                if not ball_compatible(root, child, w):
                    raise ValueError(
                        "child at %d does not glue to the root" % w)
            self.degree = root.degree
            self.radius = root.radius + 1
            self.images = _glue_images(root, children)
        self._hash = None

    @classmethod
    def _raw(cls, degree, radius, images):
        # Internal fast path: caller guarantees `images` is an automorphism.
        b = cls.__new__(cls)
        b.degree = degree
        b.radius = radius
        b.images = images
        b._hash = None
        return b

    def _from(self, images):
        return BallAut._raw(self.degree, self.radius, images)

    @property
    def shape(self):
        return (self.degree, self.radius)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def identity(cls, degree, radius):
        n = len(ball_points(degree, radius))
        return cls._raw(degree, radius, _identity_images(n))

    @classmethod
    def from_images(cls, degree, radius, images):
        """The automorphism with the given ball_points image indices;
        ValueError unless it passes `_automorphism_test`."""
        images = tuple(images)
        if not _automorphism_test(degree, radius)(images):
            raise ValueError("table is not a ball automorphism")
        return cls._raw(degree, radius, images)

    # -- structure ----------------------------------------------------------

    @property
    def root(self):
        """Restriction one radius down; the level-1 Perm at radius 1."""
        if self.radius == 1:
            return Perm._raw(self.images)
        return self.project(self.radius - 1)

    @property
    def children(self):
        """The chart at each neighbour, one radius down; None at radius 1."""
        if self.radius == 1:
            return None
        return tuple(self._chart(w, self.radius - 1)
                     for w in range(self.degree))

    def _chart(self, w, radius):
        # the automorphism induced around neighbour w, up to `radius`: a
        # prefix of the whole chart, as the chart's points are ball_points
        n = len(ball_points(self.degree, radius))
        return BallAut._raw(self.degree, radius,
                            _root_and_chart(self, w)[1][:n])

    def level1(self):
        """The induced permutation of the center's neighbour labels."""
        return Perm._raw(self.images[:self.degree])

    def project(self, radius):
        """Restriction to the concentric ball of the given radius."""
        if not 1 <= radius <= self.radius:
            raise ValueError("projection radius out of range")
        if radius == self.radius:
            return self
        n = len(ball_points(self.degree, radius))
        return BallAut._raw(self.degree, radius, self.images[:n])

    def local_action(self, vertex, radius=None):
        """The automorphism induced around `vertex`, in local coordinates.

        The ball of the requested radius around the vertex must sit inside
        this automorphism's domain, so len(vertex) + radius <= self.radius.
        """
        vertex = tuple(vertex)
        if not is_reduced_word(self.degree, vertex):
            raise ValueError("not a vertex of the ball: %r" % (vertex,))
        available = self.radius - len(vertex)
        if radius is None:
            radius = available
        if radius < 1 or radius > available:
            raise ValueError("radius %r not available at %r" % (radius, vertex))
        a = self
        for i, x in enumerate(vertex):
            a = a._chart(x, radius + len(vertex) - 1 - i)
        return a.project(radius)

    def step_action(self, vertex):
        """``local_action(vertex, 1).root`` for an inner vertex, read off the
        assembly table: the last letters of the images of its neighbours."""
        vertex = tuple(vertex)
        if not vertex:
            return self.level1()
        i = _point_index(self.degree, self.radius - 1).get(vertex)
        if i is None:
            raise ValueError("not an inner vertex of the ball: %r" % (vertex,))
        # the letter back to the parent reaches the vertex itself, whose
        # image ends in where that label goes
        row = _assembly_table(self.degree, self.radius, 1)[2][i]
        pts, im = ball_points(self.degree, self.radius), self.images
        return Perm._raw(tuple([pts[im[j]][-1] for j in row]))

    def apply(self, word):
        """Image of the vertex addressed by `word`: the action on words the
        paper defines, kept public though src/ reads the image table."""
        word = tuple(word)
        if len(word) > self.radius:
            raise ValueError("word is longer than the radius")
        if not is_reduced_word(self.degree, word):
            raise ValueError("not a vertex of the ball: %r" % (word,))
        if not word:
            return ()
        index = _point_index(self.degree, self.radius)
        return ball_points(self.degree, self.radius)[self.images[index[word]]]

    def flat(self):
        """Images of all non-center vertices in ball_points order."""
        pts = ball_points(self.degree, self.radius)
        return tuple([pts[j] for j in self.images])

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other):
        # (a * b) first applies b, then a, like permutation composition here.
        if (self.degree, self.radius) != (other.degree, other.radius):
            raise ValueError("mismatched ball shapes")
        return Element.__mul__(self, other)

    def __eq__(self, other):
        # at one degree, automorphisms with as many images share a radius
        return (type(other) is type(self) and self.images == other.images
                and self.degree == other.degree)

    __hash__ = Element.__hash__

    def __repr__(self):
        if self.radius == 1:
            return "BallAut(d=%d, r=1, %r)" % (self.degree, self.root)
        moved = sum(1 for i, j in enumerate(self.images) if i != j)
        return "BallAut(d=%d, r=%d, moves %d of %d vertices)" % (
            self.degree, self.radius, moved, len(self.images))

    # -- conversions -----------------------------------------------------------

    def to_wordmap(self):
        """The vertex-image table as a word-to-word dict, the inverse of
        `from_wordmap`: kept public as what the benchmark's oracle checks
        read, though src/ writes documents from the image table."""
        pts = ball_points(self.degree, self.radius)
        return dict(zip(pts, self.flat()))

    @classmethod
    def from_wordmap(cls, degree, radius, mapping):
        """Rebuild an automorphism from an explicit vertex-image table.

        The table must cover every non-center vertex; images must be reduced
        words of the same length, and the table an automorphism. A table that
        fails is rejected with a ValueError naming its first defect: a missing
        vertex, a bad image, or else the local step of the first inner vertex,
        in point order, whose neighbours' images do not leave its own image by
        distinct letters.
        """
        index = _point_index(degree, radius)
        try:
            return cls.from_images(degree, radius, [
                index[tuple(mapping[p])] for p in ball_points(degree, radius)])
        except (KeyError, TypeError, ValueError):
            pass
        image = {(): ()}
        for p in ball_points(degree, radius):
            if p not in mapping:
                raise ValueError("mapping misses vertex %r" % (p,))
            img = image[p] = tuple(mapping[p])
            if len(img) != len(p) or not is_reduced_word(degree, img):
                raise ValueError("bad image %r for vertex %r" % (img, p))
        # With lengths kept, the step at v (the first letters of the paths
        # to its neighbours' images) is a permutation exactly when v's
        # outward neighbours extend its image by distinct letters. A reading
        # root first, then one chart per neighbour, as in the recursive
        # reference, meets the inner vertices in point order too, so Perm
        # refuses the same vertex with the same message.
        for v in ((),) + ball_points(degree, radius - 1):
            at = image[v]
            Perm(tuple([word_path(at, image[follow(v, (x,))])[0]
                        for x in range(degree)]))
            if degree < 3:  # refused once the center's step is read
                raise HypothesisError("tree degree must be at least 3")
        raise RuntimeError("table passes every local step but not the "
                           "one-pass check; bug")


# ---------------------------------------------------------------------------
# compatibility of neighbours and enumeration
# ---------------------------------------------------------------------------

def _root_and_chart(aut, w):
    # image tuples of aut.root and of aut._chart(w, radius - 1), as gathers
    local, getters = _chart_tables(aut.degree, aut.radius)
    im = aut.images
    chart = getters[w](im)
    return im[:len(chart)], _getter(chart)(local[im[w]])


def _offer_key(beta, direction):
    """How `beta` looks to a center from the neighbour `direction`: its root
    (() at radius 1) and what it shows back along the edge."""
    if beta.radius == 1:
        return (), beta.images[direction]
    return _root_and_chart(beta, direction)


def _need_key(alpha, direction):
    """What `alpha` demands of a partner at the neighbour `direction`."""
    if alpha.radius == 1:
        return (), alpha.images[direction]
    root, chart = _root_and_chart(alpha, direction)
    return chart, root


def ball_compatible(alpha, beta, direction):
    """Can `beta` act at the neighbour `direction` while `alpha` acts here?

    Two automorphisms of the same radius glue along an edge when each one,
    restricted to the overlap of the two balls, looks like the other: beta's
    restriction matches alpha's view toward the neighbour, and beta's view
    back along the same edge label matches alpha's restriction.
    """
    if (alpha.degree, alpha.radius) != (beta.degree, beta.radius):
        raise ValueError("mismatched ball shapes")
    return _need_key(alpha, direction) == _offer_key(beta, direction)


def _require_ball(degree, radius):
    if degree < 3:
        raise HypothesisError("tree degree must be at least 3")
    if radius < 1:
        raise ValueError("ball radius must be at least 1")


def _branch(degree, n):
    """Sites up to n - 1 steps behind a neighbour: ((d-1)^n - 1) / (d-2)."""
    return ((degree - 1) ** n - 1) // (degree - 2)


def full_aut_order(degree, radius):
    """Order of the full automorphism group of the ball: d! at the center
    and (d-1)! at each of the d * _branch(d, r-1) other inner vertices."""
    _require_ball(degree, radius)
    return math.factorial(degree) * math.factorial(degree - 1) ** (
        degree * _branch(degree, radius - 1))


def _full_aut_log10(degree, radius):
    """log10 of `full_aut_order` by lgamma, inf past the float range."""
    _require_ball(degree, radius)
    try:
        inner = degree * ((degree - 1.0) ** (radius - 1) - 1) / (degree - 2)
    except OverflowError:
        return math.inf
    return ((math.lgamma(degree + 1) + inner * math.lgamma(degree))
            / math.log(10))


# ---------------------------------------------------------------------------
# groups of ball automorphisms
# ---------------------------------------------------------------------------

class BallGroup(FiniteGroup):
    """A group of automorphisms of one ball, stored as explicit elements."""

    __slots__ = ("degree", "radius")
    _element = BallAut
    # bench/tracing.py times the constructors it finds in a class's own
    # __dict__, so the shared ones it reads here are bound here too
    generated = FiniteGroup.__dict__["generated"]
    from_elements = FiniteGroup.__dict__["from_elements"]

    def __init__(self, degree, radius, elements, generators, _table=None):
        self.degree = degree
        self.radius = radius
        super().__init__(elements, generators, _table)

    def _shape(self):
        return (self.degree, self.radius)

    def __repr__(self):
        return ("BallGroup(degree=%d, radius=%d, order=%d)"
                % (self.degree, self.radius, self.order))

    def project(self, radius=None):
        """Image under restriction to a smaller concentric ball."""
        if radius is None:
            radius = self.radius - 1
        if radius == self.radius:
            return self
        if radius == 0:
            raise ValueError("projection radius must be at least 1")
        elems = {a.project(radius) for a in self.elements}
        return BallGroup.from_elements(elems)

    def level1(self):
        """The permutation group induced on the center's neighbour labels."""
        return PermGroup.from_elements({a.level1() for a in self.elements})

    def projection_kernel(self):
        """Elements restricting to the identity on the next smaller ball."""
        if self.radius == 1:
            raise ValueError("radius-1 groups have no inner ball")
        inner = len(ball_points(self.degree, self.radius - 1))
        return tuple(self._run(_identity_images(inner)))
