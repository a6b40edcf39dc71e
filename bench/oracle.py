"""Answers computed apart from treeball, to check what the program prints.

Ball automorphisms are handled here as plain vertex-image tables ("word
maps"): a dict from every non-center vertex of the radius-r ball in the
d-regular labelled tree, written as a tuple of labels, to its image. Orders
come from sympy's Schreier-Sims, gluing from the geometric definition (two
charts agree on the overlap of their balls), and full automorphism group
orders from the layer formula. Nothing in this module imports treeball.
"""

import math

from sympy.combinatorics import Permutation, PermutationGroup


# ---------------------------------------------------------------------------
# words and word maps
# ---------------------------------------------------------------------------

def ball_words(degree, radius):
    """Non-center vertices of B(degree, radius), by length, then lexically."""
    out, layer = [], [()]
    for _ in range(radius):
        layer = [w + (x,) for w in layer for x in range(degree)
                 if not w or w[-1] != x]
        out.extend(sorted(layer))
    return out


def follow(base, rel):
    """End of the walk from `base` spelling `rel`; a repeated label goes back."""
    out = list(base)
    for x in rel:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def word_path(a, b):
    """Labels along the path from vertex `a` to vertex `b`."""
    c = 0
    while c < len(a) and c < len(b) and a[c] == b[c]:
        c += 1
    return tuple(reversed(a[c:])) + tuple(b[c:])


def image(wm, word):
    return wm[word] if word else ()


def identity_map(degree, radius):
    return {w: w for w in ball_words(degree, radius)}


def compose(a, b, degree, radius):
    """The word map of a * b (apply b first)."""
    return {w: image(a, b[w]) for w in ball_words(degree, radius)}


def is_automorphism(wm, degree, radius):
    """Bijective, length preserving, and adjacency preserving."""
    words = ball_words(degree, radius)
    if set(wm) != set(words) or set(wm.values()) != set(words):
        return False
    for w in words:
        if len(wm[w]) != len(w) or image(wm, w[:-1]) != wm[w][:-1]:
            return False
    return True


def restrict(wm, radius):
    return {w: v for w, v in wm.items() if len(w) <= radius}


def local_action(wm, vertex, degree, radius):
    """The chart of `wm` around `vertex` on a radius-`radius` ball."""
    anchor = image(wm, vertex)
    return {u: word_path(anchor, image(wm, follow(vertex, u)))
            for u in ball_words(degree, radius)}


def freeze(wm):
    return tuple(sorted(wm.items()))


def random_automorphism(degree, radius, rng):
    """Uniform element of Aut B(degree, radius): a random bijection of the
    children below every vertex, chosen top down."""
    wm = {}
    layer = [()]
    for _ in range(radius):
        nxt = []
        for v in layer:
            u = image(wm, v)
            kids = [x for x in range(degree) if not v or x != v[-1]]
            targets = [y for y in range(degree) if not u or y != u[-1]]
            rng.shuffle(targets)
            for x, y in zip(kids, targets):
                wm[v + (x,)] = u + (y,)
                nxt.append(v + (x,))
        layer = nxt
    return wm


# ---------------------------------------------------------------------------
# gluing, from the definition
# ---------------------------------------------------------------------------

def glues(alpha, beta, direction, degree, radius):
    """Can `beta` be the chart at neighbour `direction` while `alpha` acts at
    the center? Both charts must send every vertex of the overlap of the two
    balls to the same place."""
    anchor = alpha[(direction,)]
    if beta[(direction,)] != anchor:
        return False
    for u in ball_words(degree, radius):
        g = follow((direction,), u)
        if len(g) <= radius and image(alpha, g) != follow(anchor, beta[u]):
            return False
    return True


def identity_fiber_sizes(elements, degree, radius):
    """For each direction, how many elements glue to the identity there."""
    ident = identity_map(degree, radius)
    return [sum(1 for b in elements if glues(ident, b, w, degree, radius))
            for w in range(degree)]


def every_generator_glues(generators, elements, degree, radius):
    """Condition (C): each generator has a partner in every direction."""
    return all(any(glues(a, b, w, degree, radius) for b in elements)
               for a in generators for w in range(degree))


def restriction_count(order, fibers, degree, own_radius, radius):
    """Maps on B(radius) fixing the center with every chart in the group,
    for a group of the given order and identity fiber sizes: the root, then
    one coset of the identity fiber per vertex and direction."""
    total = order
    for depth in range(1, radius - own_radius + 1):
        for f in fibers:
            total *= f ** ((degree - 1) ** (depth - 1))
    return total


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def aut_order(degree, radius):
    """|Aut B(d, k)| = d! * ((d-1)!)^(d((d-1)^(k-1) - 1)/(d-2))."""
    exponent = degree * ((degree - 1) ** (radius - 1) - 1) // (degree - 2)
    return math.factorial(degree) * math.factorial(degree - 1) ** exponent


def as_permutation(wm, degree, radius):
    words = ball_words(degree, radius)
    index = {w: i for i, w in enumerate(words)}
    return Permutation([index[wm[w]] for w in words])


def sympy_group(maps, degree, radius):
    n = len(ball_words(degree, radius))
    perms = [as_permutation(m, degree, radius) for m in maps]
    return PermutationGroup(perms or [Permutation(list(range(n)))])


def sympy_order(maps, degree, radius):
    return int(sympy_group(maps, degree, radius).order())


def level1_transitive(maps, degree):
    perms = [Permutation([m[(x,)][0] for x in range(degree)]) for m in maps]
    group = PermutationGroup(perms or [Permutation(list(range(degree)))])
    return group.is_transitive()


# ---------------------------------------------------------------------------
# documents, read and written without treeball
# ---------------------------------------------------------------------------

def word_str(word):
    return "".join(str(x) for x in word)


def str_word(text):
    return tuple(int(ch) for ch in text)


def read_document(body):
    """(degree, radius, kind, word maps) of a parsed JSON document."""
    kind = "elements" if "elements" in body else "generators"
    maps = [{str_word(k): str_word(v) for k, v in obj.items()}
            for obj in body[kind]]
    return body["degree"], body["radius"], kind, maps


def generator_document(degree, radius, maps, construction):
    """The bytes treeball writes for a generator document: sorted keys,
    two-space indent, generators in vertex-table order."""
    import json
    words = ball_words(degree, radius)
    gens = sorted(tuple(m[w] for w in words) for m in maps)
    body = {
        "degree": degree,
        "radius": radius,
        "encoding": "flat-word-map",
        "metadata": {"construction": construction},
        "generators": [{word_str(w): word_str(v) for w, v in zip(words, g)}
                       for g in gens],
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"
