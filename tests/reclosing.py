"""Reference implementations that close every generating set from scratch.

The greedy generating-set scan and the involutive-cocycle search in treeball
grow one closure by one generator at a time. The versions here re-close the
whole generating set after each step instead, which is slower but leaves no
room for bookkeeping errors; tests require both to give the same answers.
`lifted_group` builds a cocycle's lift section by section, as the reference
for the cocycle extensions.
"""

import itertools

from treeball.balls import BallAut, BallGroup, ball_points
from treeball.compat import (CompatCocycle, canonical_cocycle,
                             check_trivial_seams, compat_set,
                             first_compat_failure)


def close(gens, identity):
    """All products of the generators, by breadth-first search."""
    seen = {identity}
    frontier = [identity]
    gens = [g for g in gens if not g.is_identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def greedy_generators(elements, identity):
    """Keep each sorted element outside the closure of those kept before."""
    elems = sorted(set(elements))
    if len(elems) == 1:
        return (identity,)
    gens = []
    have = {identity}
    for x in elems:
        if x in have:
            continue
        gens.append(x)
        have = close(gens, identity)
        if len(have) == len(elems):
            break
    return tuple(gens)


def closure_abort(gens, identity, limit):
    """The closure of gens, or None once it passes `limit` elements or holds
    a nontrivial element restricting to the identity on the inner ball."""
    inner = len(ball_points(identity.degree, identity.radius - 1))
    kernel_key = identity.images[:inner]
    seen = {identity}
    frontier = [identity]
    gens = [g for g in gens if not g.is_identity()]
    for g in gens:
        if g.images[:inner] == kernel_key:
            return None
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(seen) >= limit:
                        return None
                    if y.images[:inner] == kernel_key:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _table_involutive(table):
    return all(table[(b, w)] == a for (a, w), b in table.items())


def involutive_cocycles(group):
    """find_involutive_cocycles, closing every prefix of lifts from scratch."""
    if first_compat_failure(group) is not None:
        return []
    if check_trivial_seams(group):
        coc = canonical_cocycle(group)
        return [coc] if _table_involutive(coc.table) else []
    d = group.degree
    ident = BallAut.identity(d, group.radius + 1)
    target = group.order
    options = []
    for g in group.generators:
        if g.is_identity():
            continue
        fibers = [compat_set(group, g, w) for w in range(d)]
        lifts = [BallAut(g, combo) for combo in itertools.product(*fibers)]
        lifts = [h for h in lifts if h.order() == g.order()]
        if not lifts:
            return []
        options.append(lifts)
    options.sort(key=len)
    found = set()

    def descend(level, chosen):
        if level == len(options):
            closed = closure_abort(chosen, ident, target)
            if closed is not None and len(closed) == target:
                found.add(frozenset(closed))
            return
        for lift in options[level]:
            prefix = chosen + [lift]
            if level + 1 < len(options):
                if closure_abort(prefix, ident, target) is None:
                    continue
            descend(level + 1, prefix)

    descend(0, [])
    out = []
    for closed in found:
        table = {}
        for h in closed:
            if h.root not in group:
                break
            for w, child in enumerate(h.children):
                table[(h.root, w)] = child
        if len(table) == target * d and _table_involutive(table):
            out.append(CompatCocycle(group, table))
    out.sort(key=lambda c: c.table_key())
    return out


def lifted_group(cocycle):
    """The isomorphic copy of a cocycle's group one radius up."""
    group = cocycle.group
    return BallGroup(group.degree, group.radius + 1,
                     [cocycle.section(a) for a in group.elements],
                     [cocycle.section(g) for g in group.generators])
