"""Exhaustive classification of well-glued ball groups at small degree.

The degree-3 radius-2 census enumerates every subgroup of the full ball
group, keeps the ones whose level-1 action is transitive and whose members
always admit gluing partners, and sorts them into conjugacy classes. Each
class is identified with the construction that rebuilds it. One radius up,
the rigid classes (trivial seams) over each censused base are the
extensions of its involutive cocycles by admissible kernels. A brute-force
sweep over every subgroup of each base's full lift, run on permutation
copies, is kept in tests/perm_shadow.py as the oracle for that route.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import errors
from .balls import BallGroup, _full_aut_log10, full_aut, full_aut_order
from .compat import (
    _involutive_sections,
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


class CensusRow(NamedTuple):
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


def census_compatible_classes(degree=3, radius=2):
    """All conjugacy classes of gluable subgroups with transitive projection.

    Enumerates every subgroup of the full ball group (so the ambient order
    must stay small; degree 3 at radius 2 is the supported exhaustive case),
    filters, and groups the survivors under ambient conjugation. Rows are
    sorted by order, then by having a cocycle, then by canonical form, and
    carry deterministic representatives: the least element list over each
    class orbit.
    """
    # an order past the float range is refused from its log, never made
    past = sys.float_info.max_10_exp
    huge = _full_aut_log10(degree, radius) > past
    order = None if huge else full_aut_order(degree, radius)
    if huge or order > errors.CENSUS_AMBIENT_CAP:
        shown = "an order past 10^%d" % past if huge else "order %d" % order
        raise CapacityError(
            "the full ball group at degree %d radius %d has %s, beyond the "
            "exhaustive census cap of %d; use the lift-based route over a "
            "smaller radius"
            % (degree, radius, shown, errors.CENSUS_AMBIENT_CAP))
    ambient = full_aut(degree, radius)

    # gluing is not preserved by conjugation, so classes are keyed by their
    # whole-orbit canonical form but represented by their least gluable
    # member, the lattice's own group
    classes = {}
    for group in all_subgroups(BallGroup.from_elements(ambient)):
        if not group.is_transitive():
            continue
        if not check_compatibility(group):
            continue
        key = conjugacy_class_key(ambient, group)
        mine = group._table
        if key not in classes or mine < classes[key][0]:
            classes[key] = mine, group

    named = _named_constructions(ambient, degree, radius)
    rows = [_make_row(rep, radius, named.get(orbit_key))
            for orbit_key, (_, rep) in classes.items()]
    rows.sort(key=lambda row: (row.order, row.has_cocycle,
                               row.group._table))
    return rows


def _make_row(group, radius, description=None, gamma_image_of=None):
    compatible = check_compatibility(group)
    trivial = check_trivial_seams(group) if compatible else None
    has_icc = compatible and any(_involutive_sections(group))
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


def census_discrete_lifts(base_rows):
    """Rigid gluable classes one radius above a censused base.

    Over every base row that admits a cocycle, finds all conjugacy classes
    of subgroups of the next full ball group that glue, have trivial seams,
    and project exactly onto the base representative. They are the
    extensions of each involutive cocycle by the admissible subgroups of the
    full lift's projection kernel. `perm_shadow.lifts_by_subgroups` in the
    tests sweeps every subgroup of the full lift instead and must find the
    same classes. Rows that are just the unique-lift image of an
    already-rigid base are flagged via `gamma_image_of`.

    Each cocycle is verified, and its generators lifted, once; each kernel
    subgroup's own facts are found once; and each distinct extension is
    closed and checked for (C) and (D) once, the first pair that builds it
    standing for it. The clauses are the ones every pair meets, run on image
    tuples: a projection is a prefix of each element's tuple.
    """
    out = []
    for row in base_rows:
        if not row.has_cocycle:
            continue
        base = row.group
        degree, radius = base.degree, base.radius
        order = full_aut_order(degree, radius + 1)
        if order > errors.LIFT_AMBIENT_CAP:
            raise CapacityError("the full group has order %d, beyond the cap "
                                "of %d" % (order, errors.LIFT_AMBIENT_CAP))
        ambient = full_aut(degree, radius + 1)
        kernel = build_full_lift(base).projection_kernel()
        classes = _merge_into_classes(ambient, _lifts_by_cocycle(base, kernel))

        gamma_name = row.description if row.trivial_seams else None
        for rep in classes:
            description = "cocycle-lift(%s)" % row.description
            flag = gamma_name if rep.order == base.order else None
            if rep.order > base.order:
                description = "cocycle-ext(%s, kernel %d)" % (
                    row.description, rep.order // base.order)
            out.append(_make_row(rep, radius + 1, description, flag))
    out.sort(key=lambda r: (r.order, r.group._table))
    return out


def _lifts_by_cocycle(base, kernel):
    """The discrete extensions of the base's cocycles by kernel subgroups,
    each element set once and represented by the first pair that built it:
    (C), (D) and the projection depend on the element set alone."""
    kernel_group = BallGroup.from_elements(kernel)
    candidates, seen = [], set()
    for z in find_involutive_cocycles(base):
        for sub in all_subgroups(kernel_group):
            try:
                sigma = build_cocycle_extension(z, sub)
            except HypothesisError:
                continue
            if sigma._table not in seen:
                seen.add(sigma._table)
                if _is_discrete_lift(sigma, base):
                    candidates.append(sigma)
    return candidates


def _is_discrete_lift(group, base):
    inner = len(base.identity().images)
    # projection is a homomorphism: a lift's order is a multiple of the base's
    if (group.order % base.order
            or {a.images[:inner] for a in group.elements}
            != {b.images for b in base.elements}):
        return False
    return check_compatibility(group) and check_trivial_seams(group)


def _merge_into_classes(ambient, candidates):
    """One representative per ambient conjugacy class of distinct groups,
    the least by element list."""
    reps = []
    for group in sorted(candidates, key=lambda group: group._table):
        if not any(are_conjugate_in(ambient, group, rep) for rep in reps):
            reps.append(group)
    return reps


def degree3_table():
    """The censused classes at degree 3: radius 2 plus the new rigid lifts.

    Returns rows in table order. The lifted rows that merely repeat a rigid
    base one level down are left out, matching the eight-row reference
    table; `census_discrete_lifts` keeps them, flagged.
    """
    base = census_compatible_classes(3, 2)
    return base + [row for row in census_discrete_lifts(base)
                   if row.gamma_image_of is None]


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
