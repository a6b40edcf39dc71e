"""The glued radius-2 builders against the element-by-element reference.

The diagonal, centered, kernel-extension and split-lift groups are glued by
`balls._glue_fibers`, one call per element of F, with generators from the
greedy over the sorted table; `element_radius2` makes every element as a
validated `BallAut(root, children)` and reads the group back through
`from_elements`. Both take the same group arguments, must give the same
elements and generators, and must refuse a bad twist group with the same
message; an argument that is no group is refused by type.
"""

import itertools

import pytest

import element_radius2 as ref
from element_radius2 import twist_group
from treeball.constructions import (build_centered, build_diagonal,
                                    build_full_lift, build_kernel_extension,
                                    build_split_lift)
from treeball.errors import HypothesisError
from treeball.permcore import (Perm, PermGroup, all_subgroups, center,
                               invariant_subgroups_of_power)

GROUPS = {
    "S3": PermGroup.symmetric(3),
    "A4": PermGroup.alternating(4),
    "S4": PermGroup.symmetric(4),
    "D4": PermGroup.dihedral(4),
    "D5": PermGroup.dihedral(5),
}


def _same(built, reference):
    assert built.elements == reference.elements
    assert built.generators == reference.generators


def _normal_in_stabilizer(F):
    stab = F.stabilizer(0)
    return [N for N in all_subgroups(stab)
            if all(s * n * s.inverse() in N
                   for s in stab.generators for n in N.generators)]


@pytest.mark.parametrize("name", list(GROUPS))
def test_diagonal_and_centered_match_the_reference(name):
    F = GROUPS[name]
    _same(build_diagonal(F), ref.diagonal(F))
    _same(build_centered(F), ref.centered(F))
    zen = center(F.stabilizer(0))
    for twists in (zen, PermGroup.generated((), F.degree)):
        _same(build_centered(F, center=twists), ref.centered(F, twists))


@pytest.mark.parametrize("name", list(GROUPS))
def test_kernel_extensions_match_the_reference(name):
    F = GROUPS[name]
    for N in _normal_in_stabilizer(F):
        _same(build_kernel_extension(F, N), ref.kernel_extension(F, N))


@pytest.mark.parametrize("name, slot_order", [
    ("S3", 2), ("A4", 3), ("D4", 2), ("D5", 2), ("S4", 3),
])
def test_split_lifts_match_the_reference(name, slot_order):
    # every invariant twist group over a slot normal in the stabilizer
    F = GROUPS[name]
    H = next(N for N in _normal_in_stabilizer(F) if N.order == slot_order)
    twist_groups = invariant_subgroups_of_power(F, H, F.degree)
    assert len(twist_groups) > 1
    for K in twist_groups:
        _same(build_split_lift(F, K), ref.split_lift(F, K))


def test_the_full_twist_group_gives_the_full_lift_three_ways():
    S4 = GROUPS["S4"]
    product = twist_group(list(itertools.product(
        *(S4.stabilizer(w).elements for w in range(4)))))
    assert product.order == 6 ** 4
    split = build_split_lift(S4, product)
    assert split.order == 24 * 6 ** 4
    assert split == build_kernel_extension(S4, S4.stabilizer(0))
    assert split == build_full_lift(S4)


def _fix(w):
    # the transposition of S3 fixing the point w
    return Perm([w if i == w else 3 - w - i for i in range(3)])


IDENT = Perm.identity(3)
S3 = GROUPS["S3"]
S4 = GROUPS["S4"]
C3 = PermGroup.cyclic(3)


def _group(*gens):
    return PermGroup.generated(gens, gens[0].degree)


def _split(F, *tuples):
    # a split lift over the group the twist tuples generate
    return lambda m: m.split_lift(F, twist_group(tuples))


# each row refuses a group argument; the ids keep their places, and where a
# row's refusal could only be reached by an element list, a group now
# reaches another clause there
BAD_TWISTS = [
    ("centered", lambda m: m.centered(S4, center=S4.stabilizer(0))),
    ("centered", lambda m: m.centered(S3, center=_group(_fix(1)))),
    ("centered", lambda m: m.centered(S3, center=PermGroup.generated(
        [Perm((0, 2, 1, 3))], 4))),
    ("centered", lambda m: m.centered(PermGroup.generated([_fix(2)]),
                                      center=_group(_fix(0)))),
    ("kernel", lambda m: m.kernel_extension(
        S4, PermGroup.generated([Perm((0, 2, 1, 3))], 4))),
    ("kernel", lambda m: m.kernel_extension(S3, _group(_fix(1)))),
    ("kernel", lambda m: m.kernel_extension(S3, S4.stabilizer(3))),
    ("split", lambda m: m.split_lift(S3, _group(Perm(
        (3, 4, 5, 0, 1, 2, 6, 7, 8))))),
    ("split", _split(S3, (IDENT, IDENT))),
    ("split", _split(S3, (_fix(1), IDENT, IDENT))),
    ("split", _split(S3, (IDENT, IDENT, _fix(1)))),
    ("split", _split(S3, (_fix(1), _fix(0), IDENT))),
    ("split", _split(S3, (_fix(0), _fix(1), IDENT))),
    ("split", _split(S3, (_fix(0), IDENT, IDENT))),
    ("split", _split(C3, (_fix(0), IDENT, IDENT))),
    ("split", _split(S3, (_fix(0), _fix(1), _fix(2)), (_fix(0), IDENT, IDENT))),
]


class _Glued:
    centered = staticmethod(build_centered)
    kernel_extension = staticmethod(build_kernel_extension)
    split_lift = staticmethod(build_split_lift)


@pytest.mark.parametrize("kind, build", BAD_TWISTS,
                         ids=["%s-%d" % (k, i)
                              for i, (k, _) in enumerate(BAD_TWISTS)])
def test_bad_twist_sets_are_refused_with_the_reference_message(kind, build):
    with pytest.raises(HypothesisError) as want:
        build(ref)
    with pytest.raises(HypothesisError) as got:
        build(_Glued)
    assert str(got.value) == str(want.value)


def test_bad_twist_rows_reach_every_clause_a_group_can_reach():
    messages = set()
    for _, build in BAD_TWISTS:
        with pytest.raises(HypothesisError) as got:
            build(_Glued)
        messages.add(str(got.value))
    assert messages == {
        "centered extension requires a transitive group",
        "center elements must be central in the stabilizer",
        "center elements must fix the base point",
        "the twist group must be normal in the stabilizer",
        "the twist group must fix the base point",
        "each twist must keep its own slot",
        "need one twist per point",
        "each twist must fix its own point",
        "twists must come from the group",
        "the twist group must be invariant under the group action",
    }


def test_a_twist_listed_twice_counts_once():
    # a group generated by the same twist twice holds it once
    assert build_kernel_extension(S3, _group(IDENT, IDENT)) == build_diagonal(
        S3)
    twice = twist_group([(IDENT,) * 3] * 2)
    assert len(twice.generators) == 2 and twice.order == 1
    assert build_split_lift(S3, twice) == build_diagonal(S3)
    assert ref.split_lift(S3, twice) == build_diagonal(S3)


@pytest.mark.parametrize("build, expected", [
    (lambda m: m.centered(S3, center=[IDENT]), "PermGroup"),
    (lambda m: m.kernel_extension(S3, [IDENT]), "PermGroup"),
    (lambda m: m.split_lift(S3, [(IDENT,) * 3]), "PermGroup"),
    (lambda m: m.split_lift(S3, build_diagonal(S3)), "PermGroup"),
], ids=["centered", "kernel", "split", "split-by-a-ball-group"])
def test_an_argument_that_is_no_group_is_refused_by_type(build, expected):
    for maker in (_Glued, ref):
        with pytest.raises(TypeError, match="^expected a %s$" % expected):
            build(maker)
