"""Reference subgroup conjugacy that conjugates every element by every element.

`permcore.are_conjugate_in`, the library's one subgroup conjugacy test,
conjugates only H's generators, by gathers on image tuples. The versions
here conjugate each element of H by each element of the ambient group as
wrapped products, about |G| * |H| of them per key or verdict, which is
slower but trusts no generating set; tests require the library's verdicts
to match, and the census's classes to be the ones these keys tell apart.
"""


def conjugacy_class_key(ambient, H):
    """The least sorted image-tuple list over the conjugates t H t^-1, one
    for every t in the element list `ambient`."""
    best = None
    for t in ambient:
        ti = t.inverse()
        key = tuple(sorted((t * h * ti).images for h in H.elements))
        if best is None or key < best:
            best = key
    return best


def are_conjugate_in(ambient, H, K):
    """Whether some element of the element list `ambient` conjugates every
    element of H into K, once the orders agree."""
    if H.order != K.order:
        return False
    for t in ambient:
        ti = t.inverse()
        if all(t * h * ti in K for h in H.elements):
            return True
    return False
