"""Automorphisms of finite balls in a labelled regular tree.

A ball of radius ``r`` in the tree of degree ``d`` has its vertices addressed
by words over the alphabet ``{0, ..., d-1}`` in which consecutive letters
differ: each edge carries one label, the labels around every vertex are
pairwise distinct, and a word spells the labels along the unique reduced path
from the ball's center. The empty word is the center itself.

An automorphism is stored recursively: its restriction to the ball one step
smaller (``root``) together with, for each neighbour ``w`` of the center, the
induced automorphism of the radius ``r - 1`` ball around that neighbour
(``children[w]``), both read in local coordinates. The two layers overlap, so
a pair (root, children) only describes a genuine automorphism when every
child glues to the root; the constructor enforces that.
"""

from __future__ import annotations

import functools
import itertools

from .errors import CapacityError, HypothesisError
from .permcore import Perm, PermGroup, _close, small_generating_set_of

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
# the automorphism class
# ---------------------------------------------------------------------------

class BallAut:
    """An automorphism of the radius `radius` ball fixing the center.

    Radius 1 wraps a permutation of the neighbour labels; larger radii hold
    the restriction to the smaller ball plus one radius ``r - 1`` automorphism
    per neighbour, each in the neighbour's own coordinates.
    """

    __slots__ = ("degree", "radius", "root", "children", "_flat", "_hash")

    def __init__(self, root, children=None):
        if children is None:
            if not isinstance(root, Perm):
                raise TypeError("radius-1 automorphism wraps a Perm")
            if root.degree < 3:
                raise HypothesisError("tree degree must be at least 3")
            self.degree = root.degree
            self.radius = 1
            self.root = root
            self.children = None
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
            self.root = root
            self.children = children
        self._flat = None
        self._hash = None

    @classmethod
    def _raw(cls, degree, radius, root, children):
        # Internal fast path: caller guarantees the gluing conditions.
        b = cls.__new__(cls)
        b.degree = degree
        b.radius = radius
        b.root = root
        b.children = children
        b._flat = None
        b._hash = None
        return b

    @classmethod
    def identity(cls, degree, radius):
        a = cls(Perm.identity(degree))
        for _ in range(radius - 1):
            a = cls._raw(degree, a.radius + 1, a, (a,) * degree)
        return a

    # -- structure ----------------------------------------------------------

    def level1(self):
        """The induced permutation of the center's neighbour labels."""
        a = self
        while a.radius > 1:
            a = a.root
        return a.root

    def project(self, radius):
        """Restriction to the concentric ball of the given radius."""
        if not 1 <= radius <= self.radius:
            raise ValueError("projection radius out of range")
        a = self
        while a.radius > radius:
            a = a.root
        return a

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
        for x in vertex:
            a = a.children[x]
        return a.project(radius)

    def apply(self, word):
        """Image of the vertex addressed by `word`."""
        word = tuple(word)
        if len(word) > self.radius:
            raise ValueError("word is longer than the radius")
        if not is_reduced_word(self.degree, word):
            raise ValueError("not a vertex of the ball: %r" % (word,))
        return self._apply(word)

    def _apply(self, word):
        if not word:
            return ()
        first = self.level1()(word[0])
        if len(word) == 1:
            return (first,)
        return (first,) + self.children[word[0]]._apply(word[1:])

    def flat(self):
        """Images of all non-center vertices in ball_points order."""
        if self._flat is None:
            self._flat = tuple(self._apply(p)
                               for p in ball_points(self.degree, self.radius))
        return self._flat

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other):
        # (a * b) first applies b, then a, like permutation composition here.
        if (self.degree, self.radius) != (other.degree, other.radius):
            raise ValueError("mismatched ball shapes")
        return self._mul(other)

    def _mul(self, other):
        if self.radius == 1:
            return BallAut._raw(self.degree, 1, self.root * other.root, None)
        lv1 = other.level1()
        children = tuple(
            self.children[lv1(w)]._mul(other.children[w])
            for w in range(self.degree)
        )
        return BallAut._raw(self.degree, self.radius,
                            self.root._mul(other.root), children)

    def inverse(self):
        if self.radius == 1:
            return BallAut._raw(self.degree, 1, self.root.inverse(), None)
        lv1inv = self.level1().inverse()
        children = tuple(
            self.children[lv1inv(w)].inverse() for w in range(self.degree)
        )
        return BallAut._raw(self.degree, self.radius,
                            self.root.inverse(), children)

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
        if self.radius == 1:
            return self.root.is_identity()
        return self.root.is_identity() and all(
            c.is_identity() for c in self.children)

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
                and self.flat() == other.flat())

    def __lt__(self, other):
        return self.flat() < other.flat()

    def __le__(self, other):
        return self.flat() <= other.flat()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.degree, self.radius, self.flat()))
        return self._hash

    def __repr__(self):
        if self.radius == 1:
            return "BallAut(d=%d, r=1, %r)" % (self.degree, self.root)
        moved = sum(1 for p, q in zip(
            ball_points(self.degree, self.radius), self.flat()) if p != q)
        return "BallAut(d=%d, r=%d, moves %d of %d vertices)" % (
            self.degree, self.radius, moved,
            len(ball_points(self.degree, self.radius)))

    # -- conversions -----------------------------------------------------------

    def to_perm(self):
        """This automorphism as a permutation of the non-center vertices."""
        index = _point_index(self.degree, self.radius)
        return Perm(tuple(index[img] for img in self.flat()))

    def to_wordmap(self):
        pts = ball_points(self.degree, self.radius)
        return dict(zip(pts, self.flat()))

    @classmethod
    def from_wordmap(cls, degree, radius, mapping):
        """Rebuild an automorphism from an explicit vertex-image table.

        The table must cover every non-center vertex; images must be reduced
        words of the same length. Gluing failures surface as ValueError from
        the constructor.
        """
        pts = ball_points(degree, radius)
        for p in pts:
            if p not in mapping:
                raise ValueError("mapping misses vertex %r" % (p,))
            img = tuple(mapping[p])
            if len(img) != len(p) or not is_reduced_word(degree, img):
                raise ValueError("bad image %r for vertex %r" % (img, p))
        try:
            aut = cls._from_wordmap_checked(degree, radius, mapping)
        except (KeyError, IndexError) as err:
            raise ValueError(
                "table is not a ball automorphism (%s)" % (err,)) from err
        for p, img in zip(pts, aut.flat()):
            if img != tuple(mapping[p]):
                raise ValueError(
                    "table is not a ball automorphism near vertex %r"
                    % (p,))
        return aut

    @classmethod
    def _from_wordmap_checked(cls, degree, radius, mapping):
        lv1 = Perm(tuple(mapping[(w,)][0] for w in range(degree)))
        if radius == 1:
            return cls(lv1)
        inner = {p: tuple(mapping[p]) for p in ball_points(degree, radius - 1)}
        root = cls._from_wordmap_checked(degree, radius - 1, inner)
        children = []
        for w in range(degree):
            local = {}
            img_anchor = (lv1(w),)
            for u in ball_points(degree, radius - 1):
                glob = follow((w,), u)
                img = tuple(mapping[glob]) if glob else ()
                local[u] = word_path(img_anchor, img)
            children.append(cls._from_wordmap_checked(degree, radius - 1, local))
        return cls(root, children)


@functools.lru_cache(maxsize=None)
def _point_index(degree, radius):
    return {p: i for i, p in enumerate(ball_points(degree, radius))}


# ---------------------------------------------------------------------------
# compatibility of neighbours, enumeration, sampling
# ---------------------------------------------------------------------------

def ball_compatible(alpha, beta, direction):
    """Can `beta` act at the neighbour `direction` while `alpha` acts here?

    Two automorphisms of the same radius glue along an edge when each one,
    restricted to the overlap of the two balls, looks like the other: beta's
    restriction matches alpha's view toward the neighbour, and beta's view
    back along the same edge label matches alpha's restriction.
    """
    if (alpha.degree, alpha.radius) != (beta.degree, beta.radius):
        raise ValueError("mismatched ball shapes")
    if alpha.radius == 1:
        return alpha.root(direction) == beta.root(direction)
    return (beta.root == alpha.children[direction]
            and beta.children[direction] == alpha.root)


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
        fibers = {}
        out = []
        for root in inner:
            per_direction = []
            for w in range(degree):
                key = _fiber_key(root, w)
                if key not in fibers:
                    fibers[key] = tuple(
                        b for b in inner if ball_compatible(root, b, w))
                per_direction.append(fibers[key])
            for combo in itertools.product(*per_direction):
                out.append(BallAut._raw(degree, radius, root, combo))
    out.sort()
    if len(out) != expected:
        raise RuntimeError("ball enumeration does not match layer count; bug")
    return tuple(out)


def _fiber_key(root, direction):
    if root.radius == 1:
        return (direction, root.root(direction))
    return (direction, root.children[direction], root.root)


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
    return BallAut._raw(d, alpha.radius, root, tuple(children))


def random_ball_aut(degree, radius, rng):
    """Uniformly random automorphism of the ball."""
    images = list(range(degree))
    rng.shuffle(images)
    a = BallAut(Perm(tuple(images)))
    for _ in range(radius - 1):
        children = tuple(random_fiber_element(a, w, rng)
                         for w in range(degree))
        a = BallAut._raw(degree, a.radius + 1, a, children)
    return a


# ---------------------------------------------------------------------------
# permutation shadows
# ---------------------------------------------------------------------------

def ball_action(elements):
    """Realize ball automorphisms as a permutation group on the vertices.

    Returns (group, points, back) where `back` sends each permutation to the
    automorphism it came from. The element list must be closed under products
    for the group to make sense; that is not re-checked here.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one automorphism")
    first = elements[0]
    points = ball_points(first.degree, first.radius)
    back = {a.to_perm(): a for a in elements}
    perms = sorted(back)  # sorted once: re-sorting below is then linear
    ident = Perm.identity(len(points))
    group = PermGroup(len(points), perms, small_generating_set_of(perms, ident))
    return group, points, back


def ballaut_from_perm(perm, degree, radius):
    """Inverse of BallAut.to_perm for the standard point ordering."""
    pts = ball_points(degree, radius)
    mapping = {p: pts[perm(i)] for i, p in enumerate(pts)}
    return BallAut.from_wordmap(degree, radius, mapping)


class BallGroup:
    """A group of automorphisms of one ball, stored as explicit elements."""

    __slots__ = ("degree", "radius", "elements", "generators", "_eset", "_cache")

    def __init__(self, degree, radius, elements, generators):
        self.degree = degree
        self.radius = radius
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self._eset = frozenset(self.elements)
        self._cache = {}

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
    def from_elements(cls, elements, verify=True):
        elements = list(elements)
        if not elements:
            raise ValueError("a group has at least the identity")
        degree, radius = elements[0].degree, elements[0].radius
        shadow, points, back = ball_action(elements)
        if verify:
            closed = PermGroup.generated(shadow.generators, len(points))
            if closed._eset != shadow._eset:
                raise ValueError("element set is not a group")
        gens = tuple(back[p] for p in shadow.generators if p in back)
        if not gens:
            gens = (BallAut.identity(degree, radius),)
        return cls(degree, radius, elements, gens)

    @classmethod
    def full(cls, degree, radius):
        elems = full_aut(degree, radius)
        return cls.from_elements(list(elems), verify=False)

    @property
    def order(self):
        return len(self.elements)

    def identity(self):
        return BallAut.identity(self.degree, self.radius)

    def __contains__(self, a):
        return a in self._eset

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, BallGroup)
                and (self.degree, self.radius) == (other.degree, other.radius)
                and self._eset == other._eset)

    def __hash__(self):
        return hash((self.degree, self.radius, self._eset))

    def __repr__(self):
        return ("BallGroup(degree=%d, radius=%d, order=%d)"
                % (self.degree, self.radius, self.order))

    def is_subgroup_of(self, other):
        return self._eset <= other._eset

    def project(self, radius=None):
        """Image under restriction to a smaller concentric ball."""
        if radius is None:
            radius = self.radius - 1
        if radius == self.radius:
            return self
        if radius == 0:
            raise ValueError("projection radius must be at least 1")
        elems = {a.project(radius) for a in self.elements}
        return BallGroup.from_elements(list(elems), verify=False)

    def level1(self):
        """The permutation group induced on the center's neighbour labels."""
        perms = {a.level1() for a in self.elements}
        ident = Perm.identity(self.degree)
        return PermGroup(self.degree, perms,
                         small_generating_set_of(perms, ident))

    def projection_kernel(self):
        """Elements restricting to the identity on the next smaller ball."""
        if self.radius == 1:
            raise ValueError("radius-1 groups have no inner ball")
        return tuple(a for a in self.elements if a.root.is_identity())

    def perm_group(self):
        """Permutation shadow on the ball vertices, with the back map."""
        if "perm" not in self._cache:
            group, points, back = ball_action(self.elements)
            self._cache["perm"] = (group, points, back)
        return self._cache["perm"]
