"""Reference cocycle checks and extensions, element by element.

`CompatCocycle.verify` and `build_cocycle_extension` run their clauses on
image tuples, check normality on generators, read a kernel's shape and
inner ball off the group, look each kernel view up once and reuse what a
kernel or a cocycle already decided. The versions here take the same
kernel group but test every element and every pair of elements as wrapped
automorphisms, with the same clauses in the same order and the same
messages; tests require both to give the same verdicts and the same
groups.
"""

from treeball.balls import BallGroup, ball_compatible
from treeball.compat import CompatCocycle
from treeball.errors import CLOSURE_CAP, CapacityError, HypothesisError


def verify(group, table):
    """Raise the ValueError that `CompatCocycle.verify` raises on the
    choice map `table` over `group`, checking every element by products."""
    d = group.degree
    for a in group.elements:
        for w in range(d):
            b = table.get((a, w))
            if b is None:
                raise ValueError("choice map misses (%r, %d)" % (a, w))
            if b not in group:
                raise ValueError("choice at (%r, %d) leaves the group" % (a, w))
            if not ball_compatible(a, b, w):
                raise ValueError("choice at (%r, %d) is not a partner" % (a, w))
    for a in group.elements:
        for w in range(d):
            if table[(table[(a, w)], w)] != a:
                raise ValueError("choice map is not involutive")
    for b in group.generators:
        lv1 = b.level1()
        for a in group.elements:
            ab = a * b
            for w in range(d):
                if table[(ab, w)] != table[(a, lv1(w))] * table[(b, w)]:
                    raise ValueError("choice map breaks the product rule")


def build_cocycle_extension(cocycle, kernel, cap=CLOSURE_CAP):
    """`constructions.build_cocycle_extension`, checking every kernel
    element, every pair of them, and every element's views in turn."""
    if not isinstance(cocycle, CompatCocycle):
        raise TypeError("expected a CompatCocycle")
    if not isinstance(kernel, BallGroup):
        raise TypeError("expected a BallGroup")
    F = cocycle.group
    d = F.degree
    kelems = list(kernel.elements)
    kset = set(kelems)
    for k in kelems:
        if (k.degree, k.radius) != (F.degree, F.radius + 1):
            raise HypothesisError("kernel elements must live one radius up")
        if not k.root.is_identity():
            raise HypothesisError(
                "kernel elements must restrict to the identity inside")
    lifted_gens = [cocycle.section(g) for g in F.generators]
    for lg in lifted_gens:
        lgi = lg.inverse()
        for k in kelems:
            if lg * k * lgi not in kset:
                raise HypothesisError(
                    "the lifted group must normalize the kernel")
    for k in kelems:
        for w in range(d):
            view = k.children[w]
            if view not in F:
                raise HypothesisError(
                    "kernel views must lie in the base group")
            want = cocycle.z(view, w).inverse()
            if not any(kk.children[w] == want for kk in kelems):
                raise HypothesisError(
                    "no kernel element inverts the choice map in direction %d"
                    % w)
    expected = F.order * len(kelems)
    if expected > cap:
        raise CapacityError("extension would have order %d, beyond cap %d"
                            % (expected, cap))
    group = BallGroup.generated(lifted_gens + list(kernel.generators))
    if group.order != expected:
        raise RuntimeError("cocycle extension has order %d, expected %d; bug"
                           % (group.order, expected))
    return group
