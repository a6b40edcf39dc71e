"""Reference route: the subgroup lattice run on permutation copies.

A ball automorphism permutes the non-center vertices, so a group of them has
a faithful copy as a permutation group on ``ball_points``. treeball runs its
lattice, normal structure and census on the automorphisms themselves; the
routes here copy each group to permutations first, compute there, and map
the answers back. Tests require both to agree.
"""

import brute_conjugacy
from treeball.balls import BallAut, BallGroup, ball_points
from treeball.compat import check_compatibility, check_trivial_seams
from treeball.permcore import (Perm, PermGroup, all_subgroups,
                               small_generating_set_of)


def to_perm(aut):
    """An automorphism as a permutation of the non-center vertices."""
    return Perm(aut.images)


def ballaut_from_perm(perm, degree, radius):
    """Inverse of to_perm for the standard point ordering."""
    return BallAut.from_images(degree, radius, perm.images)


def ball_action(elements):
    """The permutation copy of a group of automorphisms.

    Returns (group, points, back), where `back` sends each permutation to
    the automorphism it came from.
    """
    elements = list(elements)
    first = elements[0]
    points = ball_points(first.degree, first.radius)
    back = {to_perm(a): a for a in elements}
    perms = sorted(back)
    group = PermGroup(len(points), perms,
                      small_generating_set_of(perms, Perm.identity(len(points))))
    return group, points, back


def to_balls(sub, back):
    """The ball group behind a subgroup of the permutation copy."""
    first = back[sub.elements[0]]
    return BallGroup(first.degree, first.radius, [back[p] for p in sub],
                     [back[g] for g in sub.generators])


def subgroups(group):
    """all_subgroups of a ball group, computed on its permutation copy."""
    perms, _, back = ball_action(group.elements)
    return [to_balls(sub, back) for sub in all_subgroups(perms)]


def census_classes(ambient):
    """The census classes over the ambient element list, keyed by their
    whole-orbit form, each with its least gluable representative. The key
    is the element-by-element one of brute_conjugacy."""
    perms, _, back = ball_action(ambient)
    degree = ambient[0].degree
    classes = {}
    for sub in all_subgroups(perms):
        if not sub.is_transitive_on(range(degree)):
            continue
        group = to_balls(sub, back)
        if not check_compatibility(group):
            continue
        key = brute_conjugacy.conjugacy_class_key(ambient, group)
        mine = tuple(sorted(a.images for a in group.elements))
        if key not in classes or mine < classes[key]:
            classes[key] = mine
    return classes


def lifts_by_subgroups(base, full):
    """The subgroups of `full` that glue rigidly and project onto `base`."""
    return [group for group in subgroups(full)
            if group.project() == base and check_compatibility(group)
            and check_trivial_seams(group)]
