"""Reference cuts made element by element.

treeball cuts a parity lift and a center from the packs of their parent's
table: the parity lift reads each pack's step actions off the neighbours'
image letters (`balls._step_rows`, which `BallAut.step_action` reads
too), and the center multiplies packs. The versions here make every
element object of the parent, take the level-1 action of the paper's
local action at each vertex of the chosen spheres, walked chart by chart,
or compare the two element products, and build the survivors with
`from_elements`. Slower, and sharing no row table with the pack reader;
tests require the same tables and generators.
"""

from treeball.balls import BallGroup, words_of_length
from treeball.constructions import build_full_lift


def parity_lift(F, weight, modulus, spheres, radius=None):
    """The elements of the full lift of F to `radius` (one past the last
    sphere by default) whose one-step local actions on the chosen spheres
    have weights summing to 0 modulo `modulus`."""
    ambient = build_full_lift(F, radius=radius or max(spheres) + 1)
    vertices = [v for r in sorted(set(spheres))
                for v in words_of_length(F.degree, r)]
    return BallGroup.from_elements(
        [a for a in ambient.elements
         if sum(weight[a.local_action(v, 1).level1()] for v in vertices)
         % modulus == 0])


def center(G):
    """The elements of G that commute with each of its generators."""
    return type(G).from_elements(
        [x for x in G.elements if all(x * g == g * x for g in G.generators)])
