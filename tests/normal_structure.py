"""Normal structure of finite groups: minimal normal subgroups, the socle,
the solvable and nilpotent radicals, and subnormal series.

No part of treeball calls these; they stay here, built on the normal
subgroup lattice and normal closures of `treeball.permcore`, for the tests
and acceptance criteria that check the paper's structure statements.
"""

from dataclasses import dataclass

from treeball.errors import HypothesisError
from treeball.permcore import (PermGroup, is_solvable, normal_closure,
                               normal_subgroups)


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
