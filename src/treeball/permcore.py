"""Finite groups of permutations and of ball automorphisms.

A group is stored as the sorted table of its elements' image tuples, each
packed into bytes that sort and compare like the tuple (`_codec`), and each
algorithm walks sorted lists: Dimino's coset closure, the lattice by cyclic
extension, subgroup conjugacy by one conjugation per coset. A closure of
unknown order stops at `errors.CLOSURE_CAP` elements, and the lattice is
refused past `errors.SUBGROUP_LATTICE_CAP`, decided from the group's order.
Every element is one image tuple (`Element`), whose product is one C-level
gather. Closures and the generating-set greedy run on the packs, and
`_codec`, the one place with two product forms, picks theirs: one
translate up to 256 points, a tuple gather past that. The table alone
answers membership, by bisection, and equality and hashing, as a tuple;
element objects are made from it only when a group's `elements` are read.
`FiniteGroup` holds what needs only products, inverses and image tuples:
the two constructors (`generated` over the one closure, `from_elements`
over the one generating-set greedy), containers, transitivity by the one
orbit walk, the subgroup lattice, conjugacy classes and subgroup
conjugacy; `PermGroup` adds the point actions, and `balls.BallGroup` the
ball views.
The answers feed frozen regression values, so determinism comes first.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from bisect import bisect_left
from operator import attrgetter, eq, itemgetter
from typing import NamedTuple

from . import errors
from .errors import CapacityError, HypothesisError
from .linear import echelon, walk


_images = attrgetter("images")


def _getter(images):
    """The gather t -> tuple(t[i] for i in images), run in C: every product
    y * g of image tuples is ``_getter(g)(y)``. itemgetter of one index
    returns a bare entry, so short tuples take a comprehension instead."""
    if len(images) > 1:
        return itemgetter(*images)
    return lambda t: tuple([t[i] for i in images])


def _inverse(images):
    """The image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


@functools.lru_cache(maxsize=None)
def _identity_images(n):
    return tuple(range(n))


@functools.lru_cache(maxsize=None)
def _codec(n):
    """Pack, unpack and product of n-point image tuples, the one place that
    picks their form. A pack, of these or of a gluing segment, sorts like
    its tuple: up to 256 points it is bytes, and ``by(g)`` maps a pack y to
    the pack of g * y by one translate through g; past that an entry takes
    two big-endian bytes, a product is a tuple gather between unpack and
    pack, and entries unpack to the identity's ints, not a fresh int each."""
    if n > 1 << 16:
        raise CapacityError("%d points are past the %d that two-byte image "
                            "entries index" % (n, 1 << 16))
    if n <= 256:
        def by(g, pad=bytes(range(256))):
            table = g + pad[len(g):]
            return lambda y: y.translate(table)
        return bytes, tuple, by
    ident = _identity_images(n)

    def pack(t):
        return struct.pack(">%dH" % len(t), *t)

    def entries(b):
        return struct.unpack(">%dH" % (len(b) // 2), b)

    def by(g):
        g = entries(g)
        return lambda y: pack(_getter(entries(y))(g))
    return pack, (lambda b: _getter(entries(b))(ident)), by


class Element:
    """Algebra shared by elements stored as one image tuple.

    ``images[i]`` is the image of point i, and (a * b)(x) = a(b(x)). Hashing,
    equality, ordering and every product work on the tuple. A subclass
    supplies ``degree``, ``shape`` (the arguments of its ``identity``),
    ``identity`` and ``_from(images)``, an element of its own kind and shape,
    and extends equality if the tuple does not fix that shape.
    """

    __slots__ = ("images", "_hash")

    def __mul__(self, other):
        return self._from(_getter(other.images)(self.images))

    def inverse(self):
        return self._from(_inverse(self.images))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result, base = _identity_images(len(self.images)), self.images
        while n:
            if n & 1:
                result = _getter(base)(result)
            base = _getter(base)(base)
            n >>= 1
        return self._from(result)

    def order(self):
        ident, step = _identity_images(len(self.images)), _getter(self.images)
        n, p = 1, self.images
        while p != ident:
            p = step(p)
            n += 1
        return n

    def is_identity(self):
        return self.images == _identity_images(len(self.images))

    def __eq__(self, other):
        return type(other) is type(self) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash


class Perm(Element):
    """A permutation of {0, ..., n-1} stored as its image tuple."""

    __slots__ = ()

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n-1: %r" % (images,))
        self.images = images
        self._hash = None

    @classmethod
    def _raw(cls, images):
        # Internal fast path: caller guarantees `images` is a valid tuple.
        p = cls.__new__(cls)
        p.images = images
        p._hash = None
        return p

    def _from(self, images):
        return Perm._raw(images)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def identity(cls, degree):
        return cls._raw(_identity_images(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build a permutation from disjoint cycles, e.g. ((0, 1), (2, 3, 4))."""
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    @property
    def shape(self):
        return (len(self.images),)

    def __call__(self, point):
        return self.images[point]

    def cycles(self):
        """The cycles of length at least two, each from its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while not seen[x]:  # also ends on a raw tuple that is no bijection
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def sign(self):
        s = 1
        for cyc in self.cycles():
            if len(cyc) % 2 == 0:
                s = -s
        return s

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Perm.id(%d)" % self.degree
        return "Perm%s" % "".join(str(c) for c in cyc)


def _grow(members, seen, gens, x, limit=math.inf, within=None, by=None):
    """Grow the closure H of `gens` in place to the closure of gens + [x].

    Elements are image tuples. On entry the list `members` and the set
    `seen` both hold exactly H, closed; `gens` gains x unless x is in H.
    The new group is a union of cosets H * r, and H * r * g = H * (r * g),
    so Dimino's step fills the coset of x, then multiplies each new coset
    representative r by every generator: a product r * g outside `seen`
    starts a new coset, filled by one gather per member of H. Cosets are
    disjoint, so every element is made once and only representatives are
    looked up. `by(g)` may replace the gather by another map y -> product of
    y and g, such as a Cayley-table row g * y: then fills and steps both run
    on left cosets, and the closure is the same. `within(y)` gives the tuple
    to keep for an element y made, or None if y is not allowed, such as the
    ``get`` of a dict from each allowed tuple to itself. Returns False,
    leaving the closure partial, once it would pass `limit` elements or
    makes one that is not allowed; True otherwise.
    """
    if x in seen:
        return True
    mult = by or _getter
    gens.append(x)
    steps = [mult(g) for g in gens]
    old, reps = members[:], []
    # reps grows inside the loop, and the generator reads it as it grows
    for z in itertools.chain([x], (step(r) for r in reps for step in steps)):
        if z in seen:
            continue
        if len(seen) + len(old) > limit:
            return False
        coset = list(map(mult(z), old))
        if within is not None:
            coset = list(map(within, coset))
            if None in coset:
                return False
        seen.update(coset)
        members.extend(coset)
        reps.append(z)
    return True


def _close(gens, identity):
    """The sorted table of all products of the generators, the given
    identity included: the closure runs on packs (`_codec`). Its order is
    unknown, so it stops at `errors.CLOSURE_CAP` elements, and the error
    names what was being closed."""
    cap, (pack, _, by) = errors.CLOSURE_CAP, _codec(len(identity.images))
    e = pack(identity.images)
    members, seen, grown = [e], {e}, []
    for g in gens:
        if not _grow(members, seen, grown, pack(g.images), cap, by=by):
            what = ("permutations of degree %d" % identity.degree
                    if isinstance(identity, Perm) else
                    "automorphisms of the radius-%d ball of degree %d"
                    % (identity.radius, identity.degree))
            raise CapacityError("closure exceeded cap of %d after reaching "
                                "%d elements, closing %d generators, %s"
                                % (cap, len(members), len(gens), what))
    return sorted(members)


def _shape_of(elements, shape):
    """The one `Element.shape` of `elements`, which a given `shape` must
    equal; ValueError for mixed shapes, or for no elements and no shape."""
    shapes = set(map(attrgetter("shape"), elements))
    if shape:
        shapes.add(shape)
    if len(shapes) != 1:
        raise ValueError("mixed element shapes %s" % sorted(shapes) if shapes
                         else "no element or shape gives the group's shape")
    return shapes.pop()


class FiniteGroup:
    """A finite group stored as the sorted table of its elements' packed
    image tuples (`_codec`), which alone answers order, membership (by
    bisection), equality and hashing (as a tuple), plus generators. The
    elements are `Element`s, whose ``images`` tuple orders, hashes and
    composes them like a permutation's, so permutations and ball
    automorphisms share everything here: the two constructors, containers,
    the subgroup lattice, conjugacy classes and subgroup conjugacy.
    `generated` closes generators and `from_elements` reads an element
    list; the constructor sorts what it is given by image tuple and keeps
    each repeat once. A group made from element objects keeps them; one
    made from a sorted `_table` alone makes them when ``elements`` is first
    read. A subclass names its element class ``_element`` and supplies
    ``degree`` and ``_shape()``, the element shape and the leading
    arguments of its constructor.
    """

    __slots__ = ("_elements", "_table", "generators", "_cache")
    _element = Element

    def __init__(self, elements, generators, _table=None):
        if _table is None:
            elements = tuple(sorted(elements, key=_images))
            pack = _codec(len(elements[0].images))[0]
            _table = map(pack, map(_images, elements))
        _table = tuple(_table)
        if any(map(eq, _table, _table[1:])):  # sorted: repeats are adjacent
            _table, elements = zip(*dict(zip(_table, elements)).items())
        self._elements, self._table = elements, _table
        self.generators = tuple(generators)
        self._cache = {}

    @classmethod
    def generated(cls, gens, *shape):
        """The group the elements `gens` generate, which keeps them as its
        generators. `shape` is needed only for the trivial group of no
        generators, which keeps the identity as its one generator."""
        gens = tuple(gens)
        ident = cls._element.identity(*_shape_of(gens, shape))
        return cls(*ident.shape, None, gens or (ident,),
                   _table=_close(gens, ident))

    @classmethod
    def from_elements(cls, elements):
        """The group of an element list; ValueError if it is not a group."""
        elements = tuple(elements)
        ident = cls._element.identity(*_shape_of(elements, ()))
        group = cls(*ident.shape, elements, ())  # the one sort
        group.generators = _table_generators(group._table, ident)
        return group

    @property
    def elements(self):
        """The elements in sorted order, made from the table once."""
        if self._elements is None:
            self._elements = tuple(self._unpacked(self._table))
        return self._elements

    def identity(self):
        return self._element.identity(*self._shape())

    def _unpacked(self, entries):
        """The elements that packed entries stand for, made one at a time."""
        ident = self.identity()
        return map(ident._from, map(_codec(len(ident.images))[1], entries))

    def _run(self, prefix):
        """An iterator over the elements whose image tuples start with
        `prefix`: one run of the sorted elements, found by bisecting the
        table. Until `elements` is read, each is made as it is reached."""
        table = self._table
        key = _codec(len(self.identity().images))[0](prefix)
        lo = bisect_left(table, key)
        # longer than every entry, so above all those that start with key
        hi = bisect_left(table, key + b"\xff" * len(table[0]), lo)
        if self._elements is None:
            return self._unpacked(table[lo:hi])
        return iter(self._elements[lo:hi])

    def _kin(self, other):  # a table fixes the point count, not the kind
        return type(other) is type(self) and other._shape() == self._shape()

    @property
    def order(self):
        return len(self._table)

    def __contains__(self, element):
        if type(element) is self._element and element.degree == self.degree:
            table, images = self._table, element.images
            key = _codec(len(images))[0](images)
            i = bisect_left(table, key)
            return i < len(table) and table[i] == key
        return False

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        return self._kin(other) and self._table == other._table

    def __hash__(self):
        return hash(self._table)

    def is_subgroup_of(self, other):
        """Both tables are sorted without repeats, so inclusion is one
        merge: each entry found in what is left of the other's table."""
        rest = iter(other._table)
        return self._kin(other) and all(key in rest for key in self._table)

    def is_abelian(self):
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def is_transitive(self):
        """Transitivity on the points 0..degree-1, which the images index
        first: for ball automorphisms, the level-1 action."""
        return len(_orbit(self.generators, 0)) == self.degree


class PermGroup(FiniteGroup):
    """A concrete permutation group: sorted element tuple plus generators."""

    __slots__ = ("degree",)
    _element = Perm
    # bench/tracing.py times the constructors it finds in a class's own
    # __dict__, so the shared one it reads here is bound here too
    generated = FiniteGroup.__dict__["generated"]

    def __init__(self, degree, elements, generators, _table=None):
        self.degree = degree
        super().__init__(elements, generators, _table)

    def _shape(self):
        return (self.degree,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def symmetric(cls, degree):
        gens = [Perm.from_cycles(degree, [tuple(range(degree))])]
        if degree > 2:
            gens.append(Perm.from_cycles(degree, [(0, 1)]))
        return cls.generated(gens, degree)

    @classmethod
    def alternating(cls, degree):
        if degree <= 2:
            return cls.generated((), degree)
        gens = [Perm.from_cycles(degree, [(i, i + 1, i + 2)]) for i in range(degree - 2)]
        return cls.generated(gens, degree)

    @classmethod
    def cyclic(cls, degree):
        return cls.generated([Perm.from_cycles(degree, [tuple(range(degree))])], degree)

    @classmethod
    def dihedral(cls, degree):
        """Dihedral group of order 2*degree acting on the vertices of an n-gon."""
        rot = Perm.from_cycles(degree, [tuple(range(degree))])
        ref = Perm._raw(tuple((-i) % degree for i in range(degree)))
        return cls.generated([rot, ref], degree)

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)

    # -- orbits and stabilizers ---------------------------------------------

    def orbit(self, point):
        return _orbit(self.generators, point)

    def orbits(self):
        return _orbits(self.generators, self.degree)

    def stabilizer(self, point):
        return PermGroup.from_elements([g for g in self.elements
                                        if g(point) == point])

    def pointwise_stabilizer(self, points):
        pts = tuple(points)
        return PermGroup.from_elements([g for g in self.elements
                                        if all(g(p) == p for p in pts)])

    def is_semiregular(self):
        # elements[0] is the identity, the least image tuple
        return not any(map(_fixes_a_point, self.elements[1:]))

    def transversal(self, base):
        """Map each point w to the least group element sending `base` to w.

        Requires transitivity. Deterministic because elements are sorted.
        """
        reps = {}
        for g in self.elements:
            w = g(base)
            if w not in reps:
                reps[w] = g
        if len(reps) != self.degree:
            raise HypothesisError("transversal requires a transitive group")
        return reps


def _orbit(gens, point):
    """The sorted orbit of `point` under the group the elements `gens`
    generate, through their image tuples: a finite group's orbits are those
    of any generating set."""
    seen = {point}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g.images[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def _orbits(gens, n):
    """The sorted orbits on 0..n-1 under the elements `gens`, in the order
    of their least points."""
    return tuple(sorted({_orbit(gens, p) for p in range(n)}))


def _fixes_a_point(g):
    return any(x == i for i, x in enumerate(g.images))


def _greedy(candidates, e, target, grow):
    """The generating-set greedy: each candidate, in order, outside the
    closure of those kept before it is kept, and `grow` (`_grow` with its
    product and bounds) grows that closure, from the identity `e`, by it
    alone, until it holds `target` members. A refused step means a product
    left the candidates: ValueError("element set is not a group")."""
    gens, members, seen = [], [e], {e}
    for x in candidates:
        if len(seen) == target:
            break
        if x not in seen and not grow(members, seen, gens, x):
            raise ValueError("element set is not a group")
    return gens


def small_generating_set_of(elements, identity):
    """Greedy generating set of an element list, which must be a group:
    `_table_generators` over their packs, in list order."""
    pack = _codec(len(identity.images))[0]
    return _table_generators(list(map(pack, map(_images, elements))),
                             identity)


def _table_generators(packs, identity):
    """`_greedy` over a list of packs (`_codec`) in list order, which a
    sorted list such as a group's table makes canonical, with products only
    inside the list: so the closure doubles as the group check and keeps
    the list's own packs. Like _close, it serves both element kinds."""
    pack, unpack, by = _codec(len(identity.images))
    within, e = dict(zip(packs, packs)), pack(identity.images)
    if e not in within:
        raise ValueError("element set is not a group")
    gens = _greedy(packs, e, len(within),
                   functools.partial(_grow, within=within.get, by=by))
    return tuple([identity._from(unpack(g)) for g in gens]) or (identity,)


# ---------------------------------------------------------------------------
# action classification
# ---------------------------------------------------------------------------

class ActionReport(NamedTuple):
    degree: int
    transitive: bool
    semiregular: bool
    regular: bool
    primitive: bool
    quasiprimitive: bool
    semiprimitive: bool
    rank: int
    orbits: tuple
    minimal_blocks: tuple


def _finest_block_system(G, a, b):
    """Finest G-congruence in which a and b share a block (Atkinson)."""
    parent = list(range(G.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    queue = [(a, b)]
    union(a, b)
    while queue:
        x, y = queue.pop()
        for g in G.generators:
            gx, gy = find(g(x)), find(g(y))
            if gx != gy:
                union(gx, gy)
                queue.append((gx, gy))
    blocks = {}
    for p in range(G.degree):
        blocks.setdefault(find(p), []).append(p)
    return tuple(sorted(tuple(sorted(v)) for v in blocks.values()))


def block_systems(G):
    """All distinct nontrivial block systems arising from point pairs.

    Every minimal nontrivial system appears here; coarser ones may be missing,
    which is fine for primitivity and for picking minimal systems.
    """
    if not G.is_transitive():
        raise HypothesisError("block systems require a transitive group")
    seen = set()
    out = []
    for b in range(1, G.degree):
        sys = _finest_block_system(G, 0, b)
        if len(sys) == 1:
            continue  # everything collapsed: trivial
        if sys not in seen:
            seen.add(sys)
            out.append(sys)
    return out


def _refines(fine, coarse):
    cover = {}
    for i, blk in enumerate(coarse):
        for p in blk:
            cover[p] = i
    return all(len({cover[p] for p in blk}) == 1 for blk in fine)


def rank(G):
    """Number of orbits on ordered pairs of points, (x, y) as x * n + y."""
    n = G.degree
    return len(_orbits([Perm._raw(tuple(
        g(x) * n + g(y) for x in range(n) for y in range(n)))
        for g in G.generators], n * n))


def classify_action(G):
    transitive = G.is_transitive()
    semiregular = G.is_semiregular()
    regular = transitive and semiregular

    minimal = ()
    primitive = False
    if transitive and G.degree >= 2:
        systems = block_systems(G)
        primitive = not systems
        minimal = tuple(
            s for s in systems
            if not any(t != s and _refines(t, s) for t in systems)
        )

    # Every nontrivial normal subgroup contains the normal closure of each
    # of its members, and the closure of x is the group its class generates,
    # with the class's orbits. So G is quasiprimitive when each nontrivial
    # class is transitive, and semiprimitive when each class whose members
    # fix a point is: a normal subgroup that is not semiregular holds one.
    quasi = semi = transitive
    if transitive:
        for cls in conjugacy_classes(G)[1:]:  # class 0 is the identity
            if len(_orbit(cls, 0)) < G.degree:
                quasi = False
                if _fixes_a_point(next(iter(cls))):
                    semi = False
    return ActionReport(
        degree=G.degree,
        transitive=transitive,
        semiregular=semiregular,
        regular=regular,
        primitive=primitive,
        quasiprimitive=quasi,
        semiprimitive=semi,
        rank=rank(G),
        orbits=G.orbits(),
        minimal_blocks=minimal,
    )


# ---------------------------------------------------------------------------
# conjugacy classes and the center
# ---------------------------------------------------------------------------

def conjugacy_classes(G):
    """Conjugacy classes as frozensets, ordered by their least member."""
    ginv = [g.inverse() for g in G.generators]
    seen = set()
    classes = []
    for x in G.elements:
        if x in seen:
            continue
        orb = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, gi in zip(G.generators, ginv):
                z = g * y * gi
                if z not in orb:
                    orb.add(z)
                    queue.append(z)
        seen |= orb
        classes.append(frozenset(orb))
    return classes


def center(G):
    return type(G).from_elements([x for x in G.elements if all(
        x * g == g * x for g in G.generators)])


# ---------------------------------------------------------------------------
# subgroup lattice (small groups only)
# ---------------------------------------------------------------------------

class _Table:
    """Cayley table over element indices, for fast subgroup closures.

    Products are composed on the image tuples directly, so the table serves
    any element type: ``mul[a][b]`` is the index of a * b. The elements come
    sorted, so ascending indices are the sorted element order, and the
    identity, the least image tuple, is index 0.
    """

    def __init__(self, elements):
        self.elements = tuple(elements)
        images = [e.images for e in self.elements]
        index = {im: i for i, im in enumerate(images)}
        getters = [_getter(b) for b in images]
        self.mul = [[index[get(a)] for get in getters] for a in images]
        self.inv = [index[e.inverse().images] for e in self.elements]
        self.e = 0
        self._rows = [row.__getitem__ for row in self.mul]

    def _grow(self, members, seen, gens, x):
        # Dimino's step on indices and left cosets: row g is y -> g * y
        return _grow(members, seen, gens, x, by=self._rows.__getitem__)

    def close(self, seed):
        members, seen, gens = [self.e], {self.e}, []
        for x in seed:
            self._grow(members, seen, gens, x)
        return frozenset(seen)

    def generators(self, members):
        """The generating-set greedy on a subgroup's ascending indices."""
        return _greedy(members, self.e, len(members), self._grow) or [self.e]


def _lattice_table(G):
    if "table" not in G._cache:
        if G.order > errors.SUBGROUP_LATTICE_CAP:
            raise CapacityError(
                "subgroup lattice capped at order %d, got %d"
                % (errors.SUBGROUP_LATTICE_CAP, G.order))
        G._cache["table"] = _Table(G.elements)
    return G._cache["table"]


def all_subgroups(G):
    """Every subgroup of G, as groups of G's kind sorted by (order, elements).

    The cyclic extension walk runs first; only when it misses G itself, so
    that G is not solvable, does the brute walk over all elements run."""
    key = "all_subgroups"
    if key in G._cache:
        return G._cache[key]
    t = _lattice_table(G)
    found = _subgroup_sets_by_prime_extension(t, G.order)
    if frozenset(range(G.order)) not in found:  # G is not solvable
        found = _subgroup_sets_brute(t)
    # ascending indices are the sorted element order, so sort index lists;
    # each subgroup takes its packs from G's table
    pick, pack = t.elements.__getitem__, G._table.__getitem__
    out = [type(G)(*G._shape(), tuple(map(pick, S)),
                   list(map(pick, t.generators(S))),
                   _table=tuple(map(pack, S)))
           for S in sorted(map(sorted, found), key=lambda S: (len(S), S))]
    G._cache[key] = out
    return out


def _subgroup_sets_brute(t):
    n = len(t.elements)
    triv = frozenset({t.e})
    found = {triv}
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        for g in range(n):
            if g in S:
                continue
            T = t.close(S | {g})
            if T not in found:
                found.add(T)
                frontier.append(T)
    return found


def _subgroup_sets_by_prime_extension(t, order):
    """Subgroup index sets of a group by the cyclic extension method: all of
    them when the group is solvable, and otherwise exactly its solvable
    subgroups, without the group itself.

    A subgroup is solvable exactly when it sits atop a series with prime
    cyclic steps, each normal in the next, so repeatedly adjoining a
    normalizer element whose p-th power falls back inside reaches exactly
    the solvable subgroups. Each subgroup S carries the generators that
    built it, and g normalizes S when it conjugates those into S, so N(S) is
    the intersection, over those generators s, of the conjugators of s into
    S. Its cosets Sg = gS are walked in ascending order. One representative
    per coset suffices, since the condition and the result only depend on
    the image in the quotient; once S<g> = T is found, every element of
    T - S generates T over S, so all of T is done.
    """
    n = len(t.elements)
    mul, inv, e = t.mul, t.inv, t.e
    primes = [p for p, _ in factorize(order)]
    power = {}
    for p in primes:
        col = []
        for g in range(n):
            x = e
            for _ in range(p):
                x = mul[x][g]
            col.append(x)
        power[p] = col
    # conjugators[s][x] lists the g with g * s * g^-1 = x: a coset of C(s)
    conjugators = []
    for s in range(n):
        by_image = {}
        for g in range(n):
            by_image.setdefault(mul[mul[g][s]][inv[g]], []).append(g)
        conjugators.append(by_image)
    triv = frozenset({e})
    found = {triv}
    frontier = [(triv, ())]
    while frontier:
        S, gens = frontier.pop()
        todo = set(range(n))
        for s in gens:
            todo.intersection_update(itertools.chain.from_iterable(
                [gs for x, gs in conjugators[s].items() if x in S]))
        todo -= S
        for g in sorted(todo):
            if g not in todo:
                continue
            for p in primes:
                if power[p][g] in S:
                    break
            else:  # gS has no prime order in N(S)/S: only its coset is done
                todo.difference_update(map(mul[g].__getitem__, S))
                continue
            new = set(S)
            cur = g
            for _ in range(p - 1):
                new.update(map(mul[cur].__getitem__, S))
                cur = mul[cur][g]
            todo -= new
            T = frozenset(new)
            if T not in found:
                found.add(T)
                frontier.append((T, gens + (g,)))
    return found


def factorize(n):
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.

    Trial division: once p * p exceeds what is left, the rest is prime. Fast
    for the group orders here, whose prime factors are all small.
    """
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            exp = 0
            while n % p == 0:
                n //= p
                exp += 1
            out.append((p, exp))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# conjugacy of subgroups
# ---------------------------------------------------------------------------

def conjugacy_class_key(ambient, H):
    """The least sorted image-tuple list over the conjugates of H.

    `ambient` is the element list of a group containing the subgroup H; two
    subgroups share the key exactly when they are conjugate in it. Every t
    in a left coset tH conjugates H alike, so one representative per coset
    is used: the gathers that make tH give t H t^-1 by one more gather each.
    """
    steps = [_getter(h.images) for h in H.elements]
    covered, best = set(), None
    for t in ambient:
        if t.images in covered:
            continue
        coset = [step(t.images) for step in steps]
        covered.update(coset)
        key = tuple(sorted(map(_getter(t.inverse().images), coset)))
        if best is None or key < best:
            best = key
    return best


def are_conjugate_in(ambient, H, K):
    """Whether some element of `ambient`, an element list, conjugates H onto
    K. Testing only H's generators suffices once the orders agree."""
    if H.order != K.order:
        return False
    target = {k.images for k in K.elements}
    steps = [_getter(g.images) for g in H.generators]
    for t in ambient:
        back = _getter(t.inverse().images)
        if all(back(step(t.images)) in target for step in steps):
            return True
    return False


# ---------------------------------------------------------------------------
# invariant subgroups of a power
# ---------------------------------------------------------------------------

class PowerSubgroup(NamedTuple):
    """A subgroup of a product of point-stabilizer slots, stored literally.

    Each element is a tuple whose w-th entry is a permutation living in the
    w-th slot group. Slots are the conjugates f_w H f_w^{-1} of the base slot
    H under the canonical transversal, or plain copies of H when the acting
    group is trivial.
    """

    elements: tuple

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, item):
        return item in set(self.elements)


def invariant_subgroups_of_power(F, H, count):
    """Subgroups of the slot product invariant under permute-and-conjugate.

    F acts on tuples by (a . k)_w = a * k_{a^{-1}(w)} * a^{-1}: coordinates are
    permuted and entries conjugated. With F trivial every subgroup of H^count
    is invariant and all are returned. Otherwise F must be transitive, count
    must be its degree, and H must fix a point and be normal in its stabilizer.
    """
    if F.order == 1:
        slots = [tuple(H.elements)] * count
        return _power_subgroups_generic(F, slots, count, act=False)

    if not F.is_transitive():
        raise HypothesisError("invariant_subgroups_of_power requires F transitive "
                              "(or trivial)")
    if count != F.degree:
        raise HypothesisError("count must equal the degree of F")
    fixed = [p for p in range(F.degree) if all(h(p) == p for h in H.elements)]
    if not fixed:
        raise HypothesisError("H must fix a point")
    base = fixed[0]
    if not H.is_subgroup_of(F.stabilizer(base)):
        raise HypothesisError("H must lie in the stabilizer of its fixed point")
    trans = F.transversal(base)
    slots = [tuple(sorted(trans[w] * h * trans[w].inverse()
                          for h in H.elements)) for w in range(count)]
    if any(tuple(sorted(a * h * a.inverse() for h in slots[w])) != slots[a(w)]
           for a in F.generators for w in range(count)):
        raise HypothesisError("H must be normalized by the stabilizer of its "
                              "fixed point")
    return (_power_subgroups_gf2(F, slots, count) if H.order == 2
            else _power_subgroups_generic(F, slots, count, act=True))


def _power_subgroups_gf2(F, slots, count):
    """GF(2) path for slots of order 2, each (identity, involution), which F
    permutes: tuples become bitmasks, and a subspace is keyed by its
    `linear.echelon` basis."""
    invol = [s[1] for s in slots]
    # With span(B) invariant, v and a(v) + b (a in F, b in span(B)) extend
    # B to the same subspace: one orbit and one span serve that whole class.
    found, queue = {(): None}, [()]
    while queue:
        basis = queue.pop()
        members = list(walk(0, basis))
        seen = set(members)
        for v in range(1 << count):
            if v in seen:
                continue
            orbit = {sum(1 << a(w) for w in range(count) if v >> w & 1)
                     for a in F.elements}
            seen.update(x ^ b for x in orbit for b in members)
            new_basis = echelon(basis + tuple(orbit))
            if new_basis not in found:
                found[new_basis] = None
                queue.append(new_basis)
    ident = Perm.identity(F.degree)
    out = [PowerSubgroup(tuple(sorted(
        tuple(invol[w] if mask >> w & 1 else ident for w in range(count))
        for mask in walk(0, basis)))) for basis in found]
    out.sort(key=lambda P: (P.order, P.elements))
    return out


def _slot_images(k):
    """A tuple k of permutations as one: (w, i) -> w * n + k[w](i)."""
    n = k[0].degree
    return tuple([w * n + i for w, p in enumerate(k) for i in p.images])


def _power_subgroups_generic(F, slots, count, act):
    """The subgroups of the slot product, only the F-invariant ones if `act`.

    A slot tuple k is one image tuple (`_slot_images`), and a in F acts by
    conjugating with (w, i) -> (a(w), a(i)).
    Subgroups are queued with generators; adjoining x closes the F-orbit of
    those and x by `_grow`, an invariant group as F acts by automorphisms.
    """
    total = 1
    for s in slots:
        total *= len(s)
        if total > errors.SLOT_PRODUCT_CAP:
            raise CapacityError("slot product order %d exceeds the cap of "
                                "%d" % (total, errors.SLOT_PRODUCT_CAP))
    n, points = slots[0][0].degree, range(count)
    ident = _identity_images(count * n)

    def lifted(a):
        return tuple(a(w) * n + a(i) for w in points for i in range(n))

    movers = [(lifted(a), _getter(lifted(a.inverse())))
              for a in (F.elements if act else ())]

    def invariant_closure(gens):
        members, seen, grown = [ident], {ident}, []
        for g in set(gens).union(back(_getter(x)(sigma)) for x in gens
                                 for sigma, back in movers):
            _grow(members, seen, grown, g)
        return frozenset(seen)

    ambient = list(map(_slot_images, itertools.product(*slots)))
    found = {frozenset({ident})}
    queue = [(frozenset({ident}), ())]
    while queue:
        K, gens = queue.pop()
        for x in ambient:
            if x in K:
                continue
            K2 = invariant_closure(gens + (x,))
            if K2 not in found:
                found.add(K2)
                queue.append((K2, gens + (x,)))
        if len(found) > errors.POWER_SUBGROUP_CAP:
            raise CapacityError(
                "invariant subgroup count %d exceeds the cap of %d"
                % (len(found), errors.POWER_SUBGROUP_CAP))
    out = [PowerSubgroup(tuple(
        tuple(Perm._raw(tuple(j - w * n for j in x[w * n:w * n + n]))
              for w in points) for x in sorted(K))) for K in found]
    out.sort(key=lambda P: (P.order, P.elements))
    return out
