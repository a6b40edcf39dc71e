"""The restriction count rebuilt depth by depth, the reference for the
closed form in `treeball.universal._restriction_count`.

Every site at depth j below the center takes one of its direction's fiber
partners, and there are (d-1)^(j-1) sites at depth j in each direction. The
product stops growing at 2**63; the factors list one ``f^m`` string per
depth and direction, as the command line printed them before the closed form.
"""

from sympy import factorint

from treeball.compat import compat_set


def depth_restriction_count(group, radius):
    """(count saturated at 2**63, factor strings), one depth at a time."""
    k = group.radius
    ident = group.identity()
    fiber = [len(compat_set(group, ident, w)) for w in range(group.degree)]
    depths = radius - k if any(f != 1 for f in fiber) else 0
    total = group.order
    factors = [str(group.order)]
    for depth in range(1, depths + 1):
        per_letter = (group.degree - 1) ** (depth - 1)
        for w in range(group.degree):
            if fiber[w] != 1:
                factors.append("%d^%d" % (fiber[w], per_letter))
                # a fiber of 2 or more to the 63rd passes 2**63 alone
                total = min(total * fiber[w] ** min(per_letter, 63), 2 ** 63)
    return total, factors


def prime_exponents(factors):
    """The prime-exponent map of factor strings ``b`` and ``b^m``."""
    out = {}
    for text in factors:
        base, _, exp = text.partition("^")
        for p, e in factorint(int(base)).items():
            out[p] = out.get(p, 0) + e * int(exp or 1)
    return out
