"""Reference radius-2 builders that make every element one at a time.

treeball glues the diagonal, centered, kernel-extension and split-lift
groups as tower levels are glued: one `balls._glue_fibers` call per element
of F, the packs sorted into the table, generators from the greedy that
`from_elements` runs, and each twist group checked on its table and
generators. The versions here are the builders that came before: each
element is a validated `BallAut(root, children)`, the group is read back
through `BallGroup.from_elements`, and every element of a twist group is
checked. They take the same group arguments, a split lift's twist tuples
coded on the d * d slot points (`twist_group`), but share no code with the
gluing path; tests require both to give the same elements and generators
and to refuse a bad twist group with the same message.
"""

import itertools

from treeball.balls import BallAut, BallGroup
from treeball.errors import HypothesisError
from treeball.permcore import Perm, PermGroup


def twist_group(tuples):
    """The group of slot permutations that the twist tuples generate, the
    point (w, i) of the d * d slot points being w * d + i."""
    d = len(tuples[0])
    return PermGroup.generated([Perm([w * d + t(i) for w, t in enumerate(tw)
                                      for i in range(d)]) for tw in tuples],
                               d * d)


def _expect(kind, group):
    if not isinstance(group, kind):
        raise TypeError("expected a %s" % kind.__name__)


def _as_radius2(root_perm, child_perms):
    return BallAut(BallAut(root_perm), tuple(map(BallAut, child_perms)))


def _group(F, twists, elements):
    group = BallGroup.from_elements(elements)
    assert group.order == F.order * twists
    return group


def diagonal(F):
    elems = [_as_radius2(a, [a] * F.degree) for a in F.elements]
    gens = [_as_radius2(a, [a] * F.degree) for a in F.generators]
    return BallGroup(F.degree, 2, elems, gens)


def centered(F, center=None):
    if not F.is_transitive():
        raise HypothesisError("centered extension requires a transitive group")
    stab = F.stabilizer(0)
    transversal = F.transversal(0)
    d = F.degree
    if center is not None:
        _expect(PermGroup, center)
        for c in center.elements:
            if c not in stab:
                raise HypothesisError("center elements must fix the base point")
            if any(c * s != s * c for s in stab.elements):
                raise HypothesisError(
                    "center elements must be central in the stabilizer")
        celems = center.elements
        return _group(F, len(celems), [
            _as_radius2(a, [a * transversal[w] * c * transversal[w].inverse()
                            for w in range(d)])
            for a in F.elements for c in celems])
    return _group(F, stab.order, [
        _as_radius2(a, [transversal[a(w)] * c * transversal[w].inverse()
                        for w in range(d)])
        for a in F.elements for c in stab.elements])


def kernel_extension(F, normal):
    if not F.is_transitive():
        raise HypothesisError("kernel extension requires a transitive group")
    _expect(PermGroup, normal)
    stab = F.stabilizer(0)
    nelems = normal.elements
    nset = set(nelems)
    if not all(map(stab.__contains__, nset)):
        raise HypothesisError("the twist group must fix the base point")
    for s in stab.generators:
        si = s.inverse()
        if any(s * n * si not in nset for n in nset):
            raise HypothesisError(
                "the twist group must be normal in the stabilizer")
    d = F.degree
    conj = {w: (f, f.inverse()) for w, f in F.transversal(0).items()}
    return _group(F, len(nelems) ** d, [
        _as_radius2(a, [a * conj[w][0] * tw[w] * conj[w][1]
                        for w in range(d)])
        for a in F.elements for tw in itertools.product(nelems, repeat=d)])


def split_lift(F, kernel):
    d = F.degree
    _expect(PermGroup, kernel)
    if kernel.degree != d * d:
        raise HypothesisError("need one twist per point")
    tuples = []
    for k in kernel.elements:
        if any(k(x) // d != x // d for x in range(d * d)):
            raise HypothesisError("each twist must keep its own slot")
        tuples.append(tuple(Perm([k(w * d + i) - w * d for i in range(d)])
                            for w in range(d)))
    tset = set(tuples)
    for tw in tuples:
        for w in range(d):
            if tw[w](w) != w:
                raise HypothesisError("each twist must fix its own point")
            if tw[w] not in F:
                raise HypothesisError("twists must come from the group")
    for a in F.generators:
        ai = a.inverse()
        for tw in tuples:
            moved = tuple(a * tw[ai(w)] * ai for w in range(d))
            if moved not in tset:
                raise HypothesisError(
                    "the twist group must be invariant under the group action")
    return _group(F, len(tuples), [
        _as_radius2(a, [a * tw[w] for w in range(d)])
        for a in F.elements for tw in tuples])
