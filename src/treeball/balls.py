"""Automorphisms of finite balls in a labelled regular tree.

A ball of radius ``r`` in the tree of degree ``d`` has its vertices addressed
by words over the alphabet ``{0, ..., d-1}`` in which consecutive letters
differ: each edge carries one label, the labels around every vertex are
pairwise distinct, and a word spells the labels along the unique reduced path
from the ball's center. The empty word is the center itself.

An automorphism fixing the center is stored flat: one tuple holding, for
every other vertex in ``ball_points`` order (by length, then by word), the
index of its image. Products and inverses are tuple gathers, as for
permutations. Within one length the points are in word order, so comparing
index tuples orders automorphisms exactly as comparing their word tables.
Restriction to a smaller concentric ball is a prefix of the tuple.

The recursive view is derived from the tuple on demand, through index
tables computed once per (degree, radius): ``root`` is the restriction one
step smaller, and ``children[w]`` the induced automorphism of the radius
``r - 1`` ball around the neighbour ``w``, read in that neighbour's local
coordinates. The two overlap, so a pair (root, children) only describes a
genuine automorphism when every child glues to the root; the constructor
enforces that.
"""

from __future__ import annotations

import functools
import itertools

from .errors import CapacityError, HypothesisError
from .permcore import (FiniteGroup, Perm, PermGroup, _close,
                       small_generating_set_of)

#: Largest group of ball automorphisms that full_aut will materialize.
MATERIALIZE_CAP = 500_000


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


def ball_size(degree, radius):
    """Number of vertices in the ball, center included."""
    n = 1
    sphere = 1
    for i in range(radius):
        sphere *= degree if i == 0 else degree - 1
        n += sphere
    return n


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
def _identity_images(n):
    return tuple(range(n))


@functools.lru_cache(maxsize=None)
def _chart_tables(degree, radius):
    """Index tables between the ball and its charts at the neighbours.

    For each neighbour w: ``gather[w][j]`` is the point that the j-th word of
    the radius ``r - 1`` ball reaches from w, ``local[w][i]`` is point i read
    from w (-1 when out of reach), and ``tails[w]`` lists, in ball_points
    order, the local words of the sphere points starting with w. The local
    word (w,) leads back to the center; there ``gather`` holds w and
    ``local[w][w]`` holds w, so the center still lands on the local index of
    the image neighbour.
    """
    pts = ball_points(degree, radius)
    inner = _point_index(degree, radius - 1)
    index = _point_index(degree, radius)
    gather, local, tails = [], [], []
    for w in range(degree):
        gather.append(tuple(index.get(follow((w,), u), w)
                            for u in ball_points(degree, radius - 1)))
        loc = [inner.get(word_path((w,), p), -1) for p in pts]
        loc[w] = w
        local.append(tuple(loc))
        tails.append(tuple(inner[p[1:]] for p in pts
                           if len(p) == radius and p[0] == w))
    return tuple(gather), tuple(local), tuple(tails)


def _glue_images(root, children):
    """Image tuple of the map built from a root and one child per neighbour."""
    gather, _, tails = _chart_tables(root.degree, root.radius + 1)
    rim = root.images
    images = list(rim)
    for w, child in enumerate(children):
        out = gather[rim[w]]
        cim = child.images
        images.extend([out[cim[j]] for j in tails[w]])
    return tuple(images)


# ---------------------------------------------------------------------------
# the automorphism class
# ---------------------------------------------------------------------------

class BallAut:
    """An automorphism of the radius `radius` ball fixing the center.

    ``images[i]`` is the ball_points index of the image of point i.
    ``BallAut(perm)`` builds a radius-1 automorphism; ``BallAut(root,
    children)`` glues one radius ``r - 1`` automorphism per neighbour, each in
    the neighbour's own coordinates, onto the restriction ``root``.
    """

    __slots__ = ("degree", "radius", "images", "_hash")

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

    @classmethod
    def identity(cls, degree, radius):
        n = len(ball_points(degree, radius))
        return cls._raw(degree, radius, _identity_images(n))

    @classmethod
    def from_images(cls, degree, radius, images):
        """The automorphism with the given ball_points image indices.

        Raises ValueError unless the table is a bijection that maps the
        center's neighbours among themselves and every other point's parent
        to its image's parent. That is exactly an automorphism of the ball
        fixing the center: lengths are kept by induction, so each sphere
        maps onto itself and each edge onto an edge.
        """
        images = tuple(images)
        n = len(ball_points(degree, radius))
        parent = _parents(degree, radius)
        if (degree < 3 or len(images) != n
                or set(images) != set(_identity_images(n))
                or max(images[:degree]) >= degree
                or [parent[j] for j in images[degree:]]
                != [images[p] for p in parent[degree:]]):
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
        # the automorphism induced around neighbour w, up to `radius`
        gather, local, _ = _chart_tables(self.degree, self.radius)
        im = self.images
        loc = local[im[w]]
        n = len(ball_points(self.degree, radius))
        return BallAut._raw(self.degree, radius,
                            tuple([loc[im[g]] for g in gather[w][:n]]))

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

    def apply(self, word):
        """Image of the vertex addressed by `word`."""
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
        a = self.images
        return BallAut._raw(self.degree, self.radius,
                            tuple([a[x] for x in other.images]))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return BallAut._raw(self.degree, self.radius, tuple(inv))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = BallAut.identity(self.degree, self.radius)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self):
        return self.images == _identity_images(len(self.images))

    def order(self):
        n, a = 1, self
        while not a.is_identity():
            a = a * self
            n += 1
        return n

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BallAut):
            return NotImplemented
        return (self.degree == other.degree and self.radius == other.radius
                and self.images == other.images)

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self):
        if self.radius == 1:
            return "BallAut(d=%d, r=1, %r)" % (self.degree, self.root)
        moved = sum(1 for i, j in enumerate(self.images) if i != j)
        return "BallAut(d=%d, r=%d, moves %d of %d vertices)" % (
            self.degree, self.radius, moved, len(self.images))

    # -- conversions -----------------------------------------------------------

    def to_wordmap(self):
        pts = ball_points(self.degree, self.radius)
        return dict(zip(pts, self.flat()))

    @classmethod
    def from_wordmap(cls, degree, radius, mapping):
        """Rebuild an automorphism from an explicit vertex-image table.

        The table must cover every non-center vertex; images must be reduced
        words of the same length, and the table an automorphism. A table that
        fails is rebuilt layer by layer to name the first failure, raised as
        ValueError.
        """
        index = _point_index(degree, radius)
        try:
            return cls.from_images(degree, radius, [
                index[tuple(mapping[p])] for p in ball_points(degree, radius)])
        except (KeyError, TypeError, ValueError):
            pass
        pts = ball_points(degree, radius)
        for p in pts:
            if p not in mapping:
                raise ValueError("mapping misses vertex %r" % (p,))
            img = tuple(mapping[p])
            if len(img) != len(p) or not is_reduced_word(degree, img):
                raise ValueError("bad image %r for vertex %r" % (img, p))
        try:
            aut = _rebuild(degree, radius, mapping)
        except (KeyError, IndexError) as err:
            raise ValueError(
                "table is not a ball automorphism (%s)" % (err,)) from err
        for p, img in zip(pts, aut.flat()):
            if img != tuple(mapping[p]):
                raise ValueError(
                    "table is not a ball automorphism near vertex %r"
                    % (p,))
        raise RuntimeError("rebuilt automorphism fails the one-pass check; bug")


def _rebuild(degree, radius, mapping):
    # The layer-by-layer reading of a word table: root, then one chart per
    # neighbour, each glued by the constructor. Only used to name the first
    # defect of a table that is not an automorphism.
    lv1 = Perm(tuple(mapping[(w,)][0] for w in range(degree)))
    if radius == 1:
        return BallAut(lv1)
    inner = {p: tuple(mapping[p]) for p in ball_points(degree, radius - 1)}
    root = _rebuild(degree, radius - 1, inner)
    children = []
    for w in range(degree):
        local = {}
        img_anchor = (lv1(w),)
        for u in ball_points(degree, radius - 1):
            glob = follow((w,), u)
            img = tuple(mapping[glob]) if glob else ()
            local[u] = word_path(img_anchor, img)
        children.append(_rebuild(degree, radius - 1, local))
    return BallAut(root, children)


# ---------------------------------------------------------------------------
# compatibility of neighbours, enumeration, sampling
# ---------------------------------------------------------------------------

def _offer_key(beta, direction):
    """How `beta` looks to a center when placed at the neighbour `direction`."""
    if beta.radius == 1:
        return beta.images[direction]
    return (beta.root.images, beta._chart(direction, beta.radius - 1).images)


def _need_key(alpha, direction):
    """What `alpha` demands of a partner at the neighbour `direction`."""
    if alpha.radius == 1:
        return alpha.images[direction]
    return (alpha._chart(direction, alpha.radius - 1).images, alpha.root.images)


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


def full_aut_order(degree, radius):
    """Order of the full automorphism group of the ball, by layer counting."""
    import math
    total = math.factorial(degree)
    fiber = math.factorial(degree - 1)
    for _ in range(radius - 1):
        total *= fiber ** degree
        fiber = fiber ** (degree - 1)
    return total


@functools.lru_cache(maxsize=None)
def full_aut(degree, radius, cap=MATERIALIZE_CAP):
    """Every automorphism of the ball, sorted by vertex-image table."""
    expected = full_aut_order(degree, radius)
    if expected > cap:
        raise CapacityError(
            "the full group has order %d, beyond the cap of %d"
            % (expected, cap))
    if radius == 1:
        out = [BallAut(Perm(images))
               for images in itertools.permutations(range(degree))]
    else:
        inner = full_aut(degree, radius - 1, cap)
        offers = [{} for _ in range(degree)]
        for b in inner:
            for w in range(degree):
                offers[w].setdefault(_offer_key(b, w), []).append(b)
        out = []
        for root in inner:
            fibers = [offers[w].get(_need_key(root, w), ())
                      for w in range(degree)]
            for combo in itertools.product(*fibers):
                out.append(BallAut._raw(degree, radius,
                                        _glue_images(root, combo)))
    out.sort()
    if len(out) != expected:
        raise RuntimeError("ball enumeration does not match layer count; bug")
    return tuple(out)


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


# ---------------------------------------------------------------------------
# groups of ball automorphisms
# ---------------------------------------------------------------------------

class BallGroup(FiniteGroup):
    """A group of automorphisms of one ball, stored as explicit elements."""

    __slots__ = ("degree", "radius")

    def __init__(self, degree, radius, elements, generators):
        self.degree = degree
        self.radius = radius
        super().__init__(elements, generators)

    def _shape(self):
        return (self.degree, self.radius)

    @classmethod
    def generated(cls, gens, cap=MATERIALIZE_CAP):
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        degree, radius = gens[0].degree, gens[0].radius
        for g in gens:
            if (g.degree, g.radius) != (degree, radius):
                raise ValueError("mixed ball shapes in generating set")
        elements = _close(gens, BallAut.identity(degree, radius), cap)
        return cls(degree, radius, elements, gens)

    @classmethod
    def from_elements(cls, elements):
        """The group of an element list; ValueError if it is not a group."""
        elements = sorted(elements)  # once: later sorts are then linear
        if not elements:
            raise ValueError("a group has at least the identity")
        degree, radius = elements[0].degree, elements[0].radius
        gens = small_generating_set_of(elements,
                                       BallAut.identity(degree, radius))
        return cls(degree, radius, elements, gens)

    @classmethod
    def full(cls, degree, radius):
        elems = full_aut(degree, radius)
        return cls.from_elements(elems)

    def identity(self):
        return BallAut.identity(self.degree, self.radius)

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
        return PermGroup.from_elements({a.level1() for a in self.elements},
                                       self.degree)

    def projection_kernel(self):
        """Elements restricting to the identity on the next smaller ball."""
        if self.radius == 1:
            raise ValueError("radius-1 groups have no inner ball")
        return tuple(a for a in self.elements if a.root.is_identity())
