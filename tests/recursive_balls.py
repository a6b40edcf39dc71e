"""Reference implementation: ball automorphisms stored as recursive trees.

An automorphism of the radius-r ball is its restriction one radius down
(``root``) plus, for each neighbour ``w`` of the center, the induced
automorphism of the radius r - 1 ball around ``w`` in local coordinates
(``children[w]``). Products, inverses and word images recurse through that
tree. It shares only the word utilities with ``treeball.balls`` and is kept
as an oracle for the flat image-tuple representation there.
"""

from treeball.balls import ball_points, follow, is_reduced_word, word_path
from treeball.permcore import Perm


class RecursiveBallAut:
    __slots__ = ("degree", "radius", "root", "children", "_flat")

    def __init__(self, root, children=None):
        if children is None:
            if not isinstance(root, Perm):
                raise TypeError("radius-1 automorphism wraps a Perm")
            if root.degree < 3:
                raise ValueError("tree degree must be at least 3")
            self.degree = root.degree
            self.radius = 1
            self.root = root
            self.children = None
        else:
            children = tuple(children)
            if len(children) != root.degree:
                raise ValueError("need one child per neighbour label")
            for w, child in enumerate(children):
                if child.degree != root.degree or child.radius != root.radius:
                    raise ValueError("children must match the root's shape")
                if not recursive_compatible(root, child, w):
                    raise ValueError(
                        "child at %d does not glue to the root" % w)
            self.degree = root.degree
            self.radius = root.radius + 1
            self.root = root
            self.children = children
        self._flat = None

    @classmethod
    def _raw(cls, degree, radius, root, children):
        b = cls.__new__(cls)
        b.degree = degree
        b.radius = radius
        b.root = root
        b.children = children
        b._flat = None
        return b

    def level1(self):
        a = self
        while a.radius > 1:
            a = a.root
        return a.root

    def project(self, radius):
        if not 1 <= radius <= self.radius:
            raise ValueError("projection radius out of range")
        a = self
        while a.radius > radius:
            a = a.root
        return a

    def local_action(self, vertex, radius=None):
        vertex = tuple(vertex)
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
        word = tuple(word)
        if not word:
            return ()
        first = self.level1()(word[0])
        if len(word) == 1:
            return (first,)
        return (first,) + self.children[word[0]].apply(word[1:])

    def flat(self):
        if self._flat is None:
            self._flat = tuple(self.apply(p)
                               for p in ball_points(self.degree, self.radius))
        return self._flat

    def __mul__(self, other):
        if self.radius == 1:
            return RecursiveBallAut(self.root * other.root)
        lv1 = other.level1()
        children = tuple(self.children[lv1(w)] * other.children[w]
                         for w in range(self.degree))
        return RecursiveBallAut._raw(self.degree, self.radius,
                                     self.root * other.root, children)

    def inverse(self):
        if self.radius == 1:
            return RecursiveBallAut(self.root.inverse())
        lv1inv = self.level1().inverse()
        children = tuple(self.children[lv1inv(w)].inverse()
                         for w in range(self.degree))
        return RecursiveBallAut._raw(self.degree, self.radius,
                                     self.root.inverse(), children)

    def __eq__(self, other):
        return (isinstance(other, RecursiveBallAut)
                and (self.degree, self.radius) == (other.degree, other.radius)
                and self.flat() == other.flat())

    def __lt__(self, other):
        return self.flat() < other.flat()

    def __hash__(self):
        return hash((self.degree, self.radius, self.flat()))

    def to_wordmap(self):
        return dict(zip(ball_points(self.degree, self.radius), self.flat()))

    @classmethod
    def from_wordmap(cls, degree, radius, mapping):
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
                    "table is not a ball automorphism near vertex %r" % (p,))
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
            children.append(
                cls._from_wordmap_checked(degree, radius - 1, local))
        return cls(root, children)


def recursive_compatible(alpha, beta, direction):
    if alpha.radius == 1:
        return alpha.root(direction) == beta.root(direction)
    return (beta.root == alpha.children[direction]
            and beta.children[direction] == alpha.root)
