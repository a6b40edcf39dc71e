"""Exhaustive classification of well-glued ball groups at small degree.

The degree-3 radius-2 census enumerates every subgroup of the full ball
group, keeps the ones whose level-1 action is transitive and whose members
always admit gluing partners, and sorts them into conjugacy classes. Each
class is identified with the construction that rebuilds it. One radius up,
the rigid classes (trivial seams) over each censused base are the
extensions of its cocycles' sections by the kernel subgroups they
normalize, each closed once. A brute-force sweep over every subgroup of
each base's full lift, run on permutation copies, is kept in
tests/perm_shadow.py as the oracle for that route.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import errors
from .balls import BallGroup, _full_aut_log10, full_aut_order
from .compat import (_involutive_sections, check_compatibility,
                     check_trivial_seams, find_involutive_cocycles)
from .constructions import (build_centered, build_cocycle_extension,
                            build_diagonal, build_full_lift,
                            build_parity_lift, full_aut)
from .errors import CapacityError, HypothesisError
from .permcore import PermGroup, _inverse, all_subgroups, are_conjugate_in


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
    sorted by order, then by having a cocycle, then by packed table, and
    carry deterministic representatives: the least table among each class's
    survivors.
    """
    # an order past the float range is refused from its log, never made
    past = sys.float_info.max_10_exp
    huge = _full_aut_log10(degree, radius) > past
    order = None if huge else full_aut_order(degree, radius)
    if huge or order > errors.CENSUS_AMBIENT_CAP:
        shown = "an order past 10^%d" % past if huge else "order %d" % order
        raise CapacityError(
            "the full ball group at degree %d radius %d has %s, beyond the "
            "exhaustive census cap of %d"
            % (degree, radius, shown, errors.CENSUS_AMBIENT_CAP))
    ambient = full_aut(degree, radius)

    # gluing is not preserved by conjugation, so each class is represented
    # by its least gluable member, the lattice's own group
    survivors = [group for group in all_subgroups(ambient)
                 if group.is_transitive() and check_compatibility(group)]
    named = _named_constructions(degree, radius)
    rows = []
    for rep in _merge_into_classes(ambient, survivors):
        name = next((name for name, built in named
                     if are_conjugate_in(ambient, built, rep)), None)
        rows.append(_make_row(rep, radius, name))
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


def _named_constructions(degree, radius):
    """(name, group) of the constructions that name the census classes."""
    if (degree, radius) != (3, 2):
        return []
    S3 = PermGroup.symmetric(3)
    A3 = PermGroup.alternating(3)
    sgn = {p: (0 if p.sign() == 1 else 1) for p in S3.elements}
    return [
        ("full-lift(A_3)", build_full_lift(A3)),
        ("diagonal(S_3)", build_diagonal(S3)),
        ("centered(S_3)", build_centered(S3, center=S3.stabilizer(0))),
        ("parity(S_3,{0,1})", build_parity_lift(S3, sgn, 2, [0, 1])),
        ("parity(S_3,{1})", build_parity_lift(S3, sgn, 2, [1])),
        ("full-lift(S_3)", build_full_lift(S3)),
    ]


def census_discrete_lifts(base_rows):
    """Rigid gluable classes one radius above a censused base.

    Over every base row that admits a cocycle, finds all conjugacy classes
    of subgroups of the next full ball group that glue, have trivial seams,
    and project exactly onto the base representative: the extensions of
    each cocycle's section by the subgroups of the full lift's projection
    kernel it normalizes, each built and checked once (`_lifts_by_cocycle`).
    `perm_shadow.lifts_by_subgroups` in the tests sweeps every subgroup of
    the full lift instead and must find the same classes. Rows that are
    just the unique-lift image of an already-rigid base are flagged via
    `gamma_image_of`.
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
        classes = _merge_into_classes(ambient, _lifts_by_cocycle(
            base, build_full_lift(base).projection_kernel()))

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
    """The discrete extensions <s(F), S> of the base's cocycle sections s by
    the subgroups S of `kernel` that s(F) normalizes: those its conjugation
    of the kernel's packs keeps, listed once per action. Then <s(F), S> =
    s(F) S, keyed by S and the least pack of each coset s(g) S, and the
    first pair built with a key stands for the group the key fixes."""
    table, (pack, _, by) = kernel._table, kernel._kind[1]
    invariant, built, candidates = {}, set(), []
    for z in find_involutive_cocycles(base):
        lifted = [(by(pack(g.images)), pack(_inverse(g.images)))
                  for g in z._lifted_generators]
        action = tuple(tuple(by(g(k))(inv) for k in table) for g, inv in lifted)
        if action not in invariant:
            maps = [dict(zip(table, row)).__getitem__ for row in action]
            invariant[action] = [S for S in all_subgroups(kernel) if all(
                tuple(sorted(map(m, S._table))) == S._table for m in maps)]
        for S in invariant[action]:
            key = (S._table, *[min(map(g, S._table)) for g, _ in lifted])
            if key in built:
                continue
            try:
                sigma = build_cocycle_extension(z, S)
            except HypothesisError:
                continue
            built.add(key)
            if _is_discrete_lift(sigma):
                candidates.append(sigma)
    return candidates


def _is_discrete_lift(group):
    # (C) and (D): `build_cocycle_extension` fixed the order and projection
    return check_compatibility(group) and check_trivial_seams(group)


def _merge_into_classes(ambient, candidates):
    """One representative per ambient conjugacy class of distinct groups,
    the least by table: the census's one class routine."""
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
    body = [[r.description, str(r.radius), r.projection, str(r.order),
             _yn(r.compatible), _yn(r.trivial_seams), _yn(r.has_cocycle)]
            for r in rows]
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
