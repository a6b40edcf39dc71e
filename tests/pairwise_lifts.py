"""The census's rigid-lift search, one (cocycle, kernel subgroup) pair at a
time.

`census._lifts_by_cocycle` lists the subgroups each section's conjugation
action leaves invariant, once per action, and skips a pair whose extension
an earlier pair built before closing it. The version here hands every pair
to `build_cocycle_extension`, skips the refused ones, and keeps each
distinct table from the first pair that built it; tests require both to
return the same candidates, with the same generators, in the same order.
"""

from treeball.census import _is_discrete_lift
from treeball.compat import find_involutive_cocycles
from treeball.constructions import build_cocycle_extension
from treeball.errors import HypothesisError
from treeball.permcore import all_subgroups


def lifts_by_pairs(base, kernel):
    candidates, seen = [], set()
    for z in find_involutive_cocycles(base):
        for sub in all_subgroups(kernel):
            try:
                sigma = build_cocycle_extension(z, sub)
            except HypothesisError:
                continue
            if sigma._table not in seen:
                seen.add(sigma._table)
                if _is_discrete_lift(sigma):
                    candidates.append(sigma)
    return candidates
