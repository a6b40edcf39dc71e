"""Finite permutation groups on small point sets.

Groups are stored as sorted tuples of explicit elements and every algorithm is
a transparent brute-force search with a hard cap. The point sets involved are
tiny (degree at most a few thousand elements per group), and the answers feed
frozen regression values, so clarity and determinism beat asymptotics here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, HypothesisError

#: Hard ceiling for any closure BFS.
CLOSURE_CAP = 10_000_000

#: Largest group order for which the full subgroup lattice may be enumerated.
SUBGROUP_LATTICE_CAP = 3000


class Perm:
    """A permutation of {0, ..., n-1} stored as its image tuple."""

    __slots__ = ("images", "_hash")

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

    @classmethod
    def identity(cls, degree):
        return cls._raw(tuple(range(degree)))

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

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        # (a * b)(x) = a(b(x))
        a, b = self.images, other.images
        return Perm._raw(tuple([a[x] for x in b]))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self):
        n, p = 1, self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, include_fixed=False):
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def sign(self):
        s = 1
        for cyc in self.cycles():
            if len(cyc) % 2 == 0:
                s = -s
        return s

    def moved_points(self):
        return tuple(i for i, j in enumerate(self.images) if i != j)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Perm.id(%d)" % self.degree
        return "Perm%s" % "".join(str(c) for c in cyc)


def _grow(members, seen, gens, x, limit=CLOSURE_CAP, reject=None):
    """Grow the closure of `gens` in place to the closure of gens + [x].

    The closure is held as the list `members` and the set `seen`; `gens`
    gains x unless x is already in it. Every new element is h * x, for some
    h in the old closure, times a word in the generators, so a breadth-first
    search from those products that visits new elements only finds them
    all, and each element meets each generator once (Dimino's extension by
    one generator). Returns False, leaving the closure partial, once it
    would pass `limit` elements or meets an element that `reject` is true
    of; True otherwise.
    """
    if x in seen:
        return True
    gens.append(x)
    old = len(members)
    at = 0
    while at < len(members):
        y = members[at]
        for g in (x,) if at < old else gens:
            z = y * g
            if z not in seen:
                if len(seen) >= limit or (reject is not None and reject(z)):
                    return False
                seen.add(z)
                members.append(z)
        at += 1
    return True


def _close(gens, identity, cap=CLOSURE_CAP):
    """Set of all products of the generators, the given identity included."""
    members, seen, grown = [identity], {identity}, []
    for g in gens:
        if not _grow(members, seen, grown, g, cap):
            raise CapacityError("closure exceeded cap of %d" % cap)
    return seen


def _element_table(elements):
    """The distinct elements, as a sorted tuple and as a frozenset."""
    elements = sorted(elements)
    eset = frozenset(elements)
    if len(eset) < len(elements):
        elements = sorted(eset)
    return tuple(elements), eset


class PermGroup:
    """A concrete permutation group: sorted element tuple plus generators."""

    __slots__ = ("degree", "elements", "generators", "_eset", "_cache")

    def __init__(self, degree, elements, generators):
        self.degree = degree
        self.elements, self._eset = _element_table(elements)
        self.generators = tuple(generators)
        self._cache = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def generated(cls, gens, degree=None, cap=CLOSURE_CAP):
        gens = tuple(gens)
        if degree is None:
            if not gens:
                raise ValueError("need a degree for the trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("mixed degrees in generating set")
        elements = _close(gens, Perm.identity(degree), cap)
        return cls(degree, elements, gens or (Perm.identity(degree),))

    @classmethod
    def from_elements(cls, elements, degree=None):
        """The group of an element list; ValueError if it is not a group."""
        elements = sorted(elements)
        if degree is None:
            degree = elements[0].degree
        return cls(degree, elements,
                   small_generating_set_of(elements, Perm.identity(degree)))

    @classmethod
    def trivial(cls, degree):
        e = Perm.identity(degree)
        return cls(degree, (e,), (e,))

    @classmethod
    def symmetric(cls, degree):
        if degree == 1:
            return cls.trivial(1)
        gens = [Perm.from_cycles(degree, [tuple(range(degree))])]
        if degree > 2:
            gens.append(Perm.from_cycles(degree, [(0, 1)]))
        return cls.generated(gens, degree)

    @classmethod
    def alternating(cls, degree):
        if degree <= 2:
            return cls.trivial(degree)
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

    # -- basics ------------------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def identity(self):
        return Perm.identity(self.degree)

    def __contains__(self, perm):
        return perm in self._eset

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, PermGroup) and self._eset == other._eset

    def __hash__(self):
        return hash(self._eset)

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)

    def is_subgroup_of(self, other):
        return self._eset <= other._eset

    def is_abelian(self):
        gens = self.generators
        return all(a * b == b * a for a in gens for b in gens)

    def conjugated_by(self, g):
        gi = g.inverse()
        return PermGroup(self.degree, [g * x * gi for x in self.elements],
                         tuple(g * x * gi for x in self.generators))

    # -- orbits and stabilizers ---------------------------------------------

    def orbit(self, point):
        seen = {point}
        queue = [point]
        while queue:
            x = queue.pop()
            for g in self.generators:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return tuple(sorted(seen))

    def orbits(self):
        seen = set()
        out = []
        for p in range(self.degree):
            if p in seen:
                continue
            orb = self.orbit(p)
            seen.update(orb)
            out.append(orb)
        return tuple(out)

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def is_transitive_on(self, points):
        points = set(points)
        if not points:
            return True
        start = min(points)
        reach = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for g in self.generators:
                y = g(x)
                if y in points and y not in reach:
                    reach.add(y)
                    queue.append(y)
        return reach == points

    def stabilizer(self, point):
        elems = [g for g in self.elements if g(point) == point]
        return PermGroup(self.degree, elems,
                         small_generating_set_of(elems, self.identity()))

    def pointwise_stabilizer(self, points):
        pts = tuple(points)
        elems = [g for g in self.elements if all(g(p) == p for p in pts)]
        return PermGroup(self.degree, elems,
                         small_generating_set_of(elems, self.identity()))

    def is_semiregular(self):
        return all(self.stabilizer(p).order == 1 for p in range(self.degree))

    def is_regular(self):
        return self.is_transitive() and self.order == self.degree

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


def small_generating_set_of(elements, identity):
    """Greedy generating set of an element list, which must be a group.

    Scans the sorted elements and keeps each one not yet in the closure of
    those kept before it, growing that closure by the new generator alone.
    The closure doubles as the group check: it raises ValueError("element
    set is not a group") as soon as a product leaves the list. Like _close,
    it serves permutations and ball automorphisms alike.
    """
    elems = sorted(elements)
    eset = set(elems)
    if identity not in eset:
        raise ValueError("element set is not a group")
    target = len(eset)
    if target == 1:
        return (identity,)
    gens = []
    members, have = [identity], {identity}
    for x in elems:
        if not _grow(members, have, gens, x,
                     reject=lambda y: y not in eset):
            raise ValueError("element set is not a group")
        if len(have) == target:
            break
    return tuple(gens)


# ---------------------------------------------------------------------------
# action classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionReport:
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
    """Number of orbits on ordered pairs of points."""
    count = 0
    seen = set()
    for pair in itertools.product(range(G.degree), repeat=2):
        if pair in seen:
            continue
        count += 1
        queue = [pair]
        seen.add(pair)
        while queue:
            (x, y) = queue.pop()
            for g in G.generators:
                nxt = (g(x), g(y))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


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

    quasi = False
    semi = False
    if transitive:
        quasi = True
        semi = True
        for N in normal_subgroups(G):
            if N.order == 1:
                continue
            n_trans = N.is_transitive()
            if not n_trans:
                quasi = False
                if not N.is_semiregular():
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
# normal structure
# ---------------------------------------------------------------------------

def conjugacy_classes(G):
    """Conjugacy classes as frozensets, ordered by their least member."""
    key = "conj_classes"
    if key in G._cache:
        return G._cache[key]
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
    G._cache[key] = classes
    return classes


def normal_closure(G, seeds):
    """Smallest normal subgroup of G containing the seed elements."""
    gens = [s for s in seeds if not s.is_identity()]
    if not gens:
        return PermGroup.trivial(G.degree)
    ident = G.identity()
    ginv = [g.inverse() for g in G.generators]
    # the closure stays inside G, so _grow never reaches its cap here
    members, have, grown = [ident], {ident}, []
    for x in gens:
        _grow(members, have, grown, x)
    changed = True
    while changed:
        changed = False
        for g, gi in zip(G.generators, ginv):
            for x in list(gens):
                y = g * x * gi
                if y not in have:
                    gens.append(y)
                    _grow(members, have, grown, y)
                    changed = True
    return PermGroup(G.degree, members,
                     small_generating_set_of(members, ident))


def normal_subgroups(G):
    """All normal subgroups, via closure over unions of conjugacy classes.

    Deliberately not all-subgroups-then-filter: the stabilizers we feed in can
    have order in the thousands, where the full lattice is hopeless but the
    normal lattice stays small.
    """
    key = "normals"
    if key in G._cache:
        return G._cache[key]
    reps = [min(c) for c in conjugacy_classes(G)]
    triv = PermGroup.trivial(G.degree)
    found = {triv._eset: triv}
    frontier = [triv]
    while frontier:
        N = frontier.pop()
        for r in reps:
            if r in N._eset:
                continue
            M = normal_closure(G, list(N.generators) + [r])
            if M._eset not in found:
                found[M._eset] = M
                frontier.append(M)
    out = sorted(found.values(), key=lambda H: (H.order, H.elements))
    G._cache[key] = out
    return out


def minimal_normal_subgroups(G):
    normals = [N for N in normal_subgroups(G) if N.order > 1]
    return [
        N for N in normals
        if not any(M.order > 1 and M != N and M.is_subgroup_of(N) for M in normals)
    ]


def socle(G):
    gens = []
    for N in minimal_normal_subgroups(G):
        gens.extend(N.generators)
    if not gens:
        return PermGroup.trivial(G.degree)
    return PermGroup.generated(gens, G.degree)


def derived_subgroup(G):
    comms = [a * b * a.inverse() * b.inverse()
             for a in G.generators for b in G.generators]
    return normal_closure(G, comms)


def is_solvable(G):
    H = G
    while H.order > 1:
        D = derived_subgroup(H)
        if D.order == H.order:
            return False
        H = D
    return True


def is_nilpotent(G):
    # Lower central series via normal closures of generator commutators.
    L = G
    while L.order > 1:
        comms = [g * x * g.inverse() * x.inverse()
                 for g in G.generators for x in L.generators]
        nxt = normal_closure(G, comms)
        if nxt.order == L.order:
            return False
        L = nxt
    return True


def solvable_radical(G):
    """Largest solvable normal subgroup."""
    best = PermGroup.trivial(G.degree)
    for N in normal_subgroups(G):
        if N.order > best.order and is_solvable(N):
            best = N
    # Sanity: the radical absorbs every solvable normal subgroup.
    for N in normal_subgroups(G):
        if is_solvable(N) and not N.is_subgroup_of(best):
            raise RuntimeError("solvable radical is not unique; bug")
    return best


def nilpotent_radical(G):
    """Largest nilpotent normal subgroup (the Fitting subgroup)."""
    candidates = [N for N in normal_subgroups(G) if is_nilpotent(N)]
    gens = []
    for N in candidates:
        gens.extend(N.generators)
    fit = PermGroup.generated(gens, G.degree) if gens else PermGroup.trivial(G.degree)
    if not is_nilpotent(fit):
        raise RuntimeError("product of nilpotent normals not nilpotent; bug")
    return fit


def center(G):
    elems = [x for x in G.elements if all(x * g == g * x for g in G.generators)]
    return PermGroup(G.degree, elems,
                     small_generating_set_of(elems, G.identity()))


def subnormal_depth(G, H, bound=None):
    """Depth of H in the descending normal-closure series of G, or None.

    Returns 0 when H == G, 1 when H is normal, etc. `bound` cuts the search.
    """
    if not H.is_subgroup_of(G):
        raise HypothesisError("subnormal_depth requires H <= G")
    K = G
    depth = 0
    while True:
        if K._eset == H._eset:
            return depth
        if bound is not None and depth >= bound:
            return None
        nxt = normal_closure(K, H.generators)
        if nxt._eset == K._eset:
            return None
        K = nxt
        depth += 1


def is_subnormal(G, H, bound=None):
    return subnormal_depth(G, H, bound=bound) is not None


@dataclass(frozen=True)
class StructureReport:
    group: PermGroup
    normal_subgroups: tuple
    minimal_normals: tuple
    socle: PermGroup
    solvable_radical: PermGroup
    nilpotent_radical: PermGroup
    point_stabilizers: tuple

    def subnormal_depth(self, H, bound=None):
        return subnormal_depth(self.group, H, bound=bound)

    def socle_has_abelian_factor(self):
        return any(N.is_abelian() for N in self.minimal_normals)


def structure_subgroups(G):
    return StructureReport(
        group=G,
        normal_subgroups=tuple(normal_subgroups(G)),
        minimal_normals=tuple(minimal_normal_subgroups(G)),
        socle=socle(G),
        solvable_radical=solvable_radical(G),
        nilpotent_radical=nilpotent_radical(G),
        point_stabilizers=tuple(G.stabilizer(p) for p in range(G.degree)),
    )


# ---------------------------------------------------------------------------
# subgroup lattice (small groups only)
# ---------------------------------------------------------------------------

class _Table:
    """Cayley table over element indices, for fast subgroup closures."""

    def __init__(self, elements):
        self.elements = tuple(sorted(elements))
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.mul = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            row = self.mul[i]
            for j, b in enumerate(self.elements):
                row[j] = self.index[a * b]
        self.inv = [self.index[e.inverse()] for e in self.elements]
        self.e = self.index[Perm.identity(self.elements[0].degree)]

    def close(self, seed):
        seen = set(seed)
        seen.add(self.e)
        queue = list(seen)
        mul = self.mul
        while queue:
            x = queue.pop()
            rowx = mul[x]
            for g in list(seen):
                for y in (rowx[g], mul[g][x]):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
        return frozenset(seen)


def _lattice_table(G):
    if "table" not in G._cache:
        if G.order > SUBGROUP_LATTICE_CAP:
            raise CapacityError(
                "subgroup lattice capped at order %d, got %d"
                % (SUBGROUP_LATTICE_CAP, G.order))
        G._cache["table"] = _Table(G.elements)
    return G._cache["table"]


def all_subgroups(G):
    """Every subgroup of G, as PermGroups sorted by (order, elements)."""
    key = "all_subgroups"
    if key in G._cache:
        return G._cache[key]
    t = _lattice_table(G)
    if is_solvable(G):
        found = _subgroup_sets_by_prime_extension(t, G.order)
    else:
        found = _subgroup_sets_brute(t)
    out = []
    for S in found:
        elems = [t.elements[i] for i in S]
        out.append(PermGroup(G.degree, elems,
                             small_generating_set_of(elems, G.identity())))
    out.sort(key=lambda H: (H.order, H.elements))
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
    """Subgroup index sets of a solvable group.

    Every subgroup sits atop a composition series with prime cyclic
    quotients, so repeatedly adjoining a normalizer element whose p-th
    power falls back inside reaches all of them. One representative per
    coset of the current subgroup suffices: the condition and the result
    only depend on the image in the quotient.
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
    conj = [[mul[mul[g][s]][inv[g]] for s in range(n)] for g in range(n)]
    triv = frozenset({e})
    found = {triv}
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        covered = set(S)
        for g in range(n):
            if g in covered:
                continue
            row = conj[g]
            if any(row[s] not in S for s in S):
                continue
            for s in S:
                covered.add(mul[s][g])
            for p in primes:
                if power[p][g] not in S:
                    continue
                new = set(S)
                cur = g
                for _ in range(p - 1):
                    for s in S:
                        new.add(mul[s][cur])
                    cur = mul[cur][g]
                T = frozenset(new)
                if T not in found:
                    found.add(T)
                    frontier.append(T)
                break
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


def subgroups_up_to_conjugacy(G, predicate=None):
    """Conjugacy class representatives of subgroups satisfying `predicate`.

    The representative of each class is the subgroup whose sorted element
    tuple is lexicographically least, which makes output stable across runs.
    """
    subs = all_subgroups(G)
    if predicate is not None:
        subs = [H for H in subs if predicate(H)]
    remaining = {H._eset: H for H in subs}
    reps = []
    while remaining:
        seed_key = min(remaining, key=lambda s: tuple(sorted(p.images for p in s)))
        H = remaining.pop(seed_key)
        cls = {H._eset}
        for g in G.elements:
            gi = g.inverse()
            conj = frozenset(g * x * gi for x in H.elements)
            if conj in remaining:
                remaining.pop(conj)
            cls.add(conj)
        rep_set = min(cls, key=lambda s: tuple(sorted(p.images for p in s)))
        elems = sorted(rep_set)
        reps.append(PermGroup(G.degree, elems,
                              small_generating_set_of(elems, G.identity())))
    reps.sort(key=lambda H: (H.order, H.elements))
    return reps


def are_conjugate_subgroups(G, H, K):
    if H.order != K.order:
        return False
    kset = K._eset
    hgens = H.generators
    for g in G.elements:
        gi = g.inverse()
        if all(g * x * gi in kset for x in hgens):
            if frozenset(g * x * gi for x in H.elements) == kset:
                return True
    return False


def coset_action(G, H):
    """Action of G on the left cosets of H, as a new PermGroup."""
    if not H.is_subgroup_of(G):
        raise HypothesisError("coset_action requires H <= G")
    cosets = []
    seen = set()
    for g in G.elements:
        c = frozenset(g * h for h in H.elements)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    index = {c: i for i, c in enumerate(cosets)}
    rep = [min(c) for c in cosets]
    gens = []
    for g in G.generators:
        images = []
        for r in rep:
            images.append(index[frozenset(g * r * h for h in H.elements)])
        gens.append(Perm(images))
    return PermGroup.generated(gens, len(cosets))


# ---------------------------------------------------------------------------
# invariant subgroups of a power
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSubgroup:
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
    must equal its degree and H must fix a point, whose stabilizer contains it.
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
    slots = []
    for w in range(count):
        f = trans[w]
        fi = f.inverse()
        slots.append(tuple(sorted(f * h * fi for h in H.elements)))

    if H.order == 2:
        fast = _power_subgroups_gf2(F, slots, count)
        if fast is not None:
            return fast
    return _power_subgroups_generic(F, slots, count, act=True)


def _power_subgroups_gf2(F, slots, count):
    """GF(2) path: each slot has one involution; tuples become bitmasks."""
    invol = []
    for s in slots:
        nontriv = [p for p in s if not p.is_identity()]
        if len(nontriv) != 1:
            return None
        invol.append(nontriv[0])
    # The action must send slot involutions to slot involutions for the
    # bitmask picture to be exact.
    for a in F.generators:
        ai = a.inverse()
        for w in range(count):
            if a * invol[w] * ai != invol[a(w)]:
                return None

    def act(a, mask):
        out = 0
        for w in range(count):
            if mask >> w & 1:
                out |= 1 << a(w)
        return out

    def span(vectors):
        # Canonical reduced echelon basis over GF(2), biggest leading bit first.
        basis = []
        for v in sorted(vectors, reverse=True):
            for b in basis:
                if v ^ b < v:
                    v ^= b
            if v:
                basis.append(v)
                basis.sort(reverse=True)
        reduced = []
        for i, v in enumerate(basis):
            for b in basis[i + 1:]:
                if v ^ b < v:
                    v ^= b
            reduced.append(v)
        return tuple(sorted(reduced, reverse=True))

    def expand(basis):
        vecs = [0]
        for b in basis:
            vecs += [v ^ b for v in vecs]
        return vecs

    all_masks = range(1 << count)
    gens = list(F.generators)
    found = {(): None}
    queue = [()]
    while queue:
        basis = queue.pop()
        members = set(expand(basis))
        for v in all_masks:
            if v in members or v == 0:
                continue
            orbit = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for a in gens:
                    y = act(a, x)
                    if y not in orbit:
                        orbit.add(y)
                        stack.append(y)
            new_basis = span(list(basis) + sorted(orbit))
            if new_basis not in found:
                found[new_basis] = None
                queue.append(new_basis)
    out = []
    ids = [Perm.identity(F.degree)] * count
    for basis in found:
        tuples = []
        for mask in expand(list(basis)):
            tup = tuple(invol[w] if mask >> w & 1 else ids[w] for w in range(count))
            tuples.append(tup)
        out.append(PowerSubgroup(tuple(sorted(tuples))))
    out.sort(key=lambda P: (P.order, P.elements))
    return out


def _power_subgroups_generic(F, slots, count, act, cap=200_000):
    total = 1
    for s in slots:
        total *= len(s)
        if total > cap:
            raise CapacityError("slot product order %d exceeds cap" % total)
    degree = F.degree if act else slots[0][0].degree
    ident = tuple(Perm.identity(degree) for _ in range(count))
    finv = {a: a.inverse() for a in F.generators}

    def apply(a, k):
        ai = finv[a]
        return tuple(a * k[ai(w)] * ai for w in range(count))

    def invariant_closure(seed):
        seen = set(seed)
        seen.add(ident)
        queue = list(seen)
        while queue:
            x = queue.pop()
            new = [tuple(p * q for p, q in zip(x, y)) for y in list(seen)]
            new.append(tuple(p.inverse() for p in x))
            if act:
                new.extend(apply(a, x) for a in F.generators)
            for y in new:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    ambient = [tuple(t) for t in itertools.product(*slots)]
    found = {frozenset({ident})}
    queue = [frozenset({ident})]
    while queue:
        K = queue.pop()
        for x in ambient:
            if x in K:
                continue
            K2 = invariant_closure(set(K) | {x})
            if K2 not in found:
                found.add(K2)
                queue.append(K2)
        if len(found) > 10_000:
            raise CapacityError("too many invariant subgroups")
    out = [PowerSubgroup(tuple(sorted(K))) for K in found]
    out.sort(key=lambda P: (P.order, P.elements))
    return out


# ---------------------------------------------------------------------------
# misc helpers used across modules
# ---------------------------------------------------------------------------

def sign_map(G):
    """The parity homomorphism of G as a dict into Sym(2)."""
    flip = Perm((1, 0))
    ident = Perm.identity(2)
    return {g: (ident if g.sign() == 1 else flip) for g in G.elements}


def wreath_imprimitive(F, P):
    """F wr P acting on pairs (w, l) indexed as w + |Omega| * l.

    Base copies act within their block, the top group permutes blocks.
    """
    d, m = F.degree, P.degree
    gens = []
    for a in F.generators:
        for lam in range(m):
            images = list(range(d * m))
            for w in range(d):
                images[w + d * lam] = a(w) + d * lam
            gens.append(Perm(images))
    for rho in P.generators:
        images = list(range(d * m))
        for lam in range(m):
            for w in range(d):
                images[w + d * lam] = w + d * rho(lam)
        gens.append(Perm(images))
    return PermGroup.generated(gens, d * m)
