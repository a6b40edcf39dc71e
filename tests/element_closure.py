"""Reference closure step that multiplies every new element by every generator.

`permcore._grow` fills whole cosets of the old closure and multiplies only
coset representatives by the generators. The version here is the plain
breadth-first extension by one generator: each new element meets each
generator once and every product is looked up, which makes about |G| times
as many products as generators but has no cosets to get wrong; tests require
both to give the same closures, generators and verdicts.
"""

import math

from treeball.permcore import _getter


def grow(members, seen, gens, x, limit=math.inf, within=None, by=None):
    """Grow the closure of `gens` in place to the closure of gens + [x], with
    the signature and verdicts of `permcore._grow`: False once the closure
    would pass `limit` elements or makes one that `within` maps to None;
    otherwise the tuple `within` gives is kept."""
    if x in seen:
        return True
    gens.append(x)
    getters = [(by or _getter)(g) for g in gens]
    step = getters[-1:]
    old = len(members)
    at = 0
    while at < len(members):
        y = members[at]
        for get in step if at < old else getters:
            z = get(y)
            if z not in seen:
                if len(seen) >= limit:
                    return False
                if within is not None:
                    z = within(z)
                    if z is None:
                        return False
                seen.add(z)
                members.append(z)
        at += 1
    return True
