"""Reference invariant-subgroup search that closes every element against all.

`permcore._power_subgroups_generic` carries each subgroup's generators in its
queue and closes only the F-orbit of those generators and one new tuple. The
version here re-closes the whole subgroup plus the new tuple, multiplying
each new element by every element seen so far and adding inverses and F's
images, which is quadratic in the subgroup order but has no generators to
get wrong; tests require both to give the same subgroups, each compared
as its set of slot image tuples, (w, i) -> w * n + k[w](i) for a tuple k
of n-point permutations.
"""

import itertools

from treeball.errors import CapacityError
from treeball.permcore import Perm


def power_subgroups(F, slots, count, act, cap=200_000):
    """The subgroups of the product of the `slots` (sorted element lists)
    that are invariant under F's permute-and-conjugate action when `act`,
    or all of them, each as the set of its members' slot image tuples."""
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
    n = slots[0][0].degree
    return {frozenset(tuple(w * n + x for w, p in enumerate(k)
                            for x in p.images) for k in K) for K in found}
