"""Normal structure of finite groups: normal closures, the normal subgroup
lattice, the derived series and solvability, minimal normal subgroups, the
socle, the solvable and nilpotent radicals, and subnormal series.

No part of treeball calls these. The library decides quasi- and
semiprimitivity from conjugacy classes alone, and picks the route of its
subgroup lattice by whether the cyclic extension walk reaches the group;
the normal lattice and `is_solvable` here are the definitions those two
answers are checked against, and the rest serves the tests and acceptance
criteria that check the paper's structure statements.
"""

from dataclasses import dataclass

from treeball.errors import HypothesisError
from treeball.permcore import PermGroup, _grow, conjugacy_classes


def normal_closure(G, seeds):
    """Smallest normal subgroup of G containing the seed elements."""
    gens = [s for s in seeds if not s.is_identity()]
    if not gens:
        return G._generated(())
    ident = G.identity()
    ginv = [g.inverse() for g in G.generators]
    members, have, grown = [ident.images], {ident.images}, []
    for x in gens:
        _grow(members, have, grown, x.images)
    changed = True
    while changed:
        changed = False
        for g, gi in zip(G.generators, ginv):
            for x in list(gens):
                y = g * x * gi
                if y.images not in have:
                    gens.append(y)
                    _grow(members, have, grown, y.images)
                    changed = True
    return G._like([ident._from(t) for t in sorted(members)])


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
    triv = G._generated(())
    found = {triv._eset: triv}
    frontier = [triv]
    while frontier:
        N = frontier.pop()
        for r in reps:
            if r in N:
                continue
            M = normal_closure(G, list(N.generators) + [r])
            if M._eset not in found:
                found[M._eset] = M
                frontier.append(M)
    out = sorted(found.values(), key=lambda H: (H.order, H.elements))
    G._cache[key] = out
    return out


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
    return G._generated(gens)


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
    best = G._generated(())
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
    fit = G._generated(gens)
    if not is_nilpotent(fit):
        raise RuntimeError("product of nilpotent normals not nilpotent; bug")
    return fit


def subnormal_depth(G, H, bound=None):
    """Depth of H in the descending normal-closure series of G, or None.

    Returns 0 when H == G, 1 when H is normal, etc. `bound` cuts the search.
    """
    if not H.is_subgroup_of(G):
        raise HypothesisError("subnormal_depth requires H <= G")
    K = G
    depth = 0
    while True:
        if K == H:
            return depth
        if bound is not None and depth >= bound:
            return None
        nxt = normal_closure(K, H.generators)
        if nxt == K:
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
