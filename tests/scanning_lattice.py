"""Reference subgroup enumeration that scans every element for each subgroup.

The cyclic extension method in treeball finds each subgroup's normalizer
from the generators that built it and skips whole extensions once found.
The version here tests every element of the group for normality against
every element of the subgroup, and tries one element per coset of the
normalizer, which is slower but has no bookkeeping to get wrong; tests
require both to give the same index sets. Its generating-set greedy on
table indices is the route lattice members once took their generators by;
tests require the packs' greedy to pick the same ones.
"""

from treeball import permcore
from treeball.permcore import factorize


def subgroup_sets(t, order):
    """Subgroup index sets reached by adjoining, to each subgroup S found,
    an element g normalizing S with g^p in S for a prime p dividing
    `order`. `t` is the group's Cayley table (permcore._Table)."""
    n = len(t.images)
    mul, inv, e = t.mul, t.inv, t.e
    primes = [p for p, _ in factorize(order)]
    power = {}
    for p in primes:
        col = []
        for g in range(n):
            x = e
            for _ in range(p):
                x = mul[x][g]
            col.append(x)
        power[p] = col
    conj = [[mul[mul[g][s]][inv[g]] for s in range(n)] for g in range(n)]
    triv = frozenset({e})
    found = {triv}
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        covered = set(S)
        for g in range(n):
            if g in covered:
                continue
            row = conj[g]
            if any(row[s] not in S for s in S):
                continue
            for s in S:
                covered.add(mul[s][g])
            for p in primes:
                if power[p][g] not in S:
                    continue
                new = set(S)
                cur = g
                for _ in range(p - 1):
                    for s in S:
                        new.add(mul[s][cur])
                    cur = mul[cur][g]
                T = frozenset(new)
                if T not in found:
                    found.add(T)
                    frontier.append(T)
                break
    return found


def generators(t, members):
    """The generating-set greedy on a subgroup's ascending indices in the
    Cayley table `t`: each index outside the closure of those kept before
    it is kept, the closure grown by Dimino's step on the table's rows
    (`permcore._grow`, looked up when called). The trivial group keeps its
    identity index."""
    gens, closed, seen = [], [t.e], {t.e}
    for x in members:
        if len(seen) == len(members):
            break
        permcore._grow(closed, seen, gens, x, by=t._rows.__getitem__)
    return gens or [t.e]
