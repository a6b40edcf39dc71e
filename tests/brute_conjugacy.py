"""Reference subgroup conjugacy that conjugates every element by every element.

`permcore.conjugacy_class_key` conjugates H once per left coset tH, on bare
image tuples, and `permcore.are_conjugate_in` conjugates H's generators by
gathers. The versions here conjugate each element of H by each element of
the ambient group as wrapped products, about |G| * |H| of them per key,
which is slower but has no cosets to get wrong; tests require both to give
the same keys and verdicts.
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
