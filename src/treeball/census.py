"""Exhaustive classification of well-glued ball groups at small degree.

The degree-3 radius-2 census enumerates every subgroup of the full ball
group, keeps the ones whose level-1 action is transitive and whose members
always admit gluing partners, and sorts them into conjugacy classes. Each
class is identified with the construction that rebuilds it. One radius up,
the rigid classes (trivial seams) over each censused base are found twice,
by independent routes, and the results are required to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .balls import BallAut, BallGroup, full_aut
from .compat import (
    canonical_cocycle,
    check_compatibility,
    check_trivial_seams,
    find_involutive_cocycles,
)
from .constructions import (
    build_centered,
    build_cocycle_extension,
    build_diagonal,
    build_full_lift,
    build_parity_lift,
)
from .errors import CapacityError, HypothesisError
from .permcore import (PermGroup, all_subgroups, are_conjugate_in,
                       conjugacy_class_key)


@dataclass(frozen=True)
class CensusRow:
    """One conjugacy class in the census.

    `projection` names the level-1 image; the three flags record whether
    members always glue, whether only the identity glues to the identity,
    and whether a multiplicative involutive choice of gluing partners
    exists. `gamma_image_of` is set on lifted rows that are just the
    unique-lift image of a rigid class one level down. The class
    representative itself rides along in `group`.
    """

    description: str
    radius: int
    projection: str
    order: int
    compatible: bool
    trivial_seams: bool
    has_cocycle: bool
    group: BallGroup
    gamma_image_of: str = None

    def to_dict(self):
        return {
            "description": self.description,
            "k": self.radius,
            "projection": self.projection,
            "order": self.order,
            "C": self.compatible,
            "D": self.trivial_seams,
            "icc": self.has_cocycle,
            "gamma_image_of": self.gamma_image_of,
        }


def name_permutation_group(P):
    """Conventional name of a small permutation group, or a generic label."""
    d, n = P.degree, P.order
    if n == math.factorial(d):
        return "S_%d" % d
    if d >= 3 and 2 * n == math.factorial(d):
        alt = PermGroup.alternating(d)
        if P == alt:
            return "A_%d" % d
    if n == 4 and P.is_abelian() and all(
            g.order() <= 2 for g in P.elements):
        return "V_4"
    if any(g.order() == n for g in P.elements):
        return "C_%d" % n
    if n == 2 * d and not P.is_abelian():
        if any(g.order() == d for g in P.elements):
            return "D_%d" % d
    return "group of order %d" % n


def census_compatible_classes(degree=3, radius=2, transitive_only=True,
                              ambient_cap=200):
    """All conjugacy classes of gluable subgroups with transitive projection.

    Enumerates every subgroup of the full ball group (so the ambient order
    must stay small; degree 3 at radius 2 is the supported exhaustive case),
    filters, and groups the survivors under ambient conjugation. Rows are
    sorted by order, then by having a cocycle, then by canonical form, and
    carry deterministic representatives: the least element list over each
    class orbit.
    """
    try:
        ambient = full_aut(degree, radius, cap=ambient_cap)
    except CapacityError:
        raise CapacityError(
            "the full ball group at degree %d radius %d is beyond exhaustive "
            "census range; use the lift-based route over a smaller radius"
            % (degree, radius))

    # gluing is not preserved by conjugation, so classes are keyed by their
    # whole-orbit canonical form but represented by their least gluable member
    classes = {}
    for group in all_subgroups(BallGroup.from_elements(ambient)):
        if transitive_only and not group.is_transitive_on(range(degree)):
            continue
        if not check_compatibility(group):
            continue
        key = conjugacy_class_key(ambient, group)
        mine = _flat_key(group)
        if key not in classes or mine < classes[key]:
            classes[key] = mine

    keyed = []
    for orbit_key, rep_key in classes.items():
        rep = BallGroup.from_elements(
            [BallAut.from_images(degree, radius, images)
             for images in rep_key])
        keyed.append((orbit_key, _make_row(rep, radius)))
    keyed.sort(key=lambda pair: (pair[1].order, pair[1].has_cocycle,
                                 _flat_key(pair[1].group)))
    named = _named_constructions(ambient, degree, radius)
    out = []
    for orbit_key, row in keyed:
        if orbit_key in named:
            row = replace(row, description=named[orbit_key])
        out.append(row)
    return out


def _make_row(group, radius, description=None, gamma_image_of=None):
    compatible = check_compatibility(group)
    trivial = check_trivial_seams(group) if compatible else None
    has_icc = bool(find_involutive_cocycles(group)) if compatible else False
    if compatible and trivial and not has_icc:
        raise RuntimeError("rigid gluable group without a cocycle; bug")
    projection = name_permutation_group(group.level1())
    if description is None:
        description = "class of order %d" % group.order
    return CensusRow(description=description, radius=radius,
                     projection=projection, order=group.order,
                     compatible=compatible, trivial_seams=bool(trivial),
                     has_cocycle=has_icc, group=group,
                     gamma_image_of=gamma_image_of)


def _flat_key(group):
    return tuple(sorted(a.images for a in group.elements))


def _named_constructions(ambient, degree, radius):
    if (degree, radius) != (3, 2):
        return {}
    S3 = PermGroup.symmetric(3)
    A3 = PermGroup.alternating(3)
    sgn = {p: (0 if p.sign() == 1 else 1) for p in S3.elements}
    builders = [
        ("full-lift(A_3)", build_full_lift(A3)),
        ("diagonal(S_3)", build_diagonal(S3)),
        ("centered(S_3)", build_centered(S3, center=S3.stabilizer(0))),
        ("parity(S_3,{0,1})", build_parity_lift(S3, sgn, 2, [0, 1])),
        ("parity(S_3,{1})", build_parity_lift(S3, sgn, 2, [1])),
        ("full-lift(S_3)", build_full_lift(S3)),
    ]
    return {conjugacy_class_key(ambient, g): name for name, g in builders}


def census_discrete_lifts(base_rows, ambient_cap=5000):
    """Rigid gluable classes one radius above a censused base.

    Over every base row that admits a cocycle, finds all conjugacy classes
    of subgroups of the next full ball group that glue, have trivial seams,
    and project exactly onto the base representative. Two independent
    routes must agree: extensions of each involutive cocycle by admissible
    kernels, and a direct sweep over all subgroups of the base's full lift.
    Rows that are just the unique-lift image of an already-rigid base are
    flagged via `gamma_image_of`.
    """
    out = []
    for row in base_rows:
        if not row.has_cocycle:
            continue
        base = row.group
        degree, radius = base.degree, base.radius
        ambient = full_aut(degree, radius + 1, cap=ambient_cap)
        full = build_full_lift(base)
        kernel = full.projection_kernel()

        via_cocycles = _lifts_by_cocycle(base, kernel)
        via_subgroups = _lifts_by_subgroups(base, full)
        classes = _merge_into_classes(ambient, via_cocycles)
        direct_classes = _merge_into_classes(ambient, via_subgroups)
        if not _same_classes(ambient, classes, direct_classes):
            raise RuntimeError(
                "lift searches disagree over %s; bug" % row.description)

        gamma_name = None
        if row.trivial_seams:
            gamma_name = row.description
        for rep in classes:
            lifted_row = _make_row(rep, radius + 1)
            description = "cocycle-lift(%s)" % row.description
            flag = None
            if gamma_name is not None and rep.order == base.order:
                flag = gamma_name
            if rep.order > base.order:
                description = "cocycle-ext(%s, kernel %d)" % (
                    row.description, rep.order // base.order)
            lifted_row = replace(lifted_row, description=description,
                                 gamma_image_of=flag)
            out.append(lifted_row)
    out.sort(key=lambda r: (r.order, _flat_key(r.group)))
    return out


def _lifts_by_cocycle(base, kernel):
    kernel_group = BallGroup.from_elements(kernel)
    candidates = []
    for z in find_involutive_cocycles(base):
        for sub in all_subgroups(kernel_group):
            try:
                sigma = build_cocycle_extension(z, sub)
            except (HypothesisError, CapacityError):
                continue
            if _is_discrete_lift(sigma, base):
                candidates.append(sigma)
    return candidates


def _lifts_by_subgroups(base, full):
    return [group for group in all_subgroups(full)
            if _is_discrete_lift(group, base)]


def _is_discrete_lift(group, base):
    inner = group.radius - 1
    if {a.project(inner) for a in group.elements} != base._eset:
        return False
    return check_compatibility(group) and check_trivial_seams(group)


def _merge_into_classes(ambient, candidates):
    reps = []
    seen_sets = set()
    for group in sorted(candidates, key=_flat_key):
        key = _flat_key(group)
        if key in seen_sets:
            continue
        seen_sets.add(key)
        if any(are_conjugate_in(ambient, group, rep) for rep in reps):
            continue
        reps.append(group)
    return reps


def _same_classes(ambient, one, other):
    if len(one) != len(other):
        return False
    for g in one:
        if not any(are_conjugate_in(ambient, g, h) for h in other):
            return False
    return True


def degree3_table(include_gamma_images=False):
    """The censused classes at degree 3: radius 2 plus the new rigid lifts.

    Returns rows in table order. By default the lifted rows that merely
    repeat a rigid base one level down are omitted, matching the eight-row
    reference table; `include_gamma_images` keeps them, flagged.
    """
    base = census_compatible_classes(3, 2)
    lifts = census_discrete_lifts(base)
    rows = list(base)
    for row in lifts:
        if row.gamma_image_of is not None and not include_gamma_images:
            continue
        rows.append(row)
    return rows


def format_table(rows):
    """Fixed-width text rendering with the reference column set."""
    header = ["Description of F", "k", "πF", "|F|", "(C)", "(D)", "i.c.c."]
    body = []
    for r in rows:
        body.append([
            r.description, str(r.radius), r.projection, str(r.order),
            _yn(r.compatible), _yn(r.trivial_seams), _yn(r.has_cocycle),
        ])
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    lines = []
    for row in [header] + body:
        lines.append(" | ".join(cell.ljust(w) for cell, w in
                                zip(row, widths)).rstrip())
        if row is header:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _yn(flag):
    return "yes" if flag else "no"
