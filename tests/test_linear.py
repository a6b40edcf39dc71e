"""GF(2) elimination on bitmask rows, against sympy's DomainMatrix."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from treeball.linear import echelon, solve, walk

CHECKED = settings(derandomize=True, deadline=None, max_examples=200)


def satisfies(x, row):
    return ((row >> 1 & x).bit_count() ^ row) & 1 == 0


@st.composite
def systems(draw, most=40):
    """(rows, n): up to n + 5 equations in n <= `most` unknowns, their forms
    confined to a drawn set of columns, and half the time consistent by
    construction (the right-hand sides of a planted solution)."""
    n = draw(st.integers(min_value=1, max_value=most))
    columns = draw(st.integers(min_value=0, max_value=2 ** n - 1))
    forms = [f & columns for f in draw(st.lists(
        st.integers(min_value=0, max_value=2 ** n - 1), max_size=n + 5))]
    if draw(st.booleans()):
        x = draw(st.integers(min_value=0, max_value=2 ** n - 1))
        rhs = [(f & x).bit_count() & 1 for f in forms]
    else:
        rhs = draw(st.lists(st.integers(min_value=0, max_value=1),
                            min_size=len(forms), max_size=len(forms)))
    return [f << 1 | b for f, b in zip(forms, rhs)], n


def sympy_rank(rows, n, augmented):
    """The rank over GF(2) of the rows' forms, with the right-hand side
    column too if `augmented`."""
    if not rows:
        return 0
    K = GF(2)
    width = n + 1 if augmented else n
    shift = 0 if augmented else 1
    return DomainMatrix([[K(row >> shift + j & 1) for j in range(width)]
                         for row in rows], (len(rows), width), K).rank()


@CHECKED
@given(systems())
def test_solve_matches_sympy_on_rank_consistency_and_null_space(system):
    rows, n = system
    rank = sympy_rank(rows, n, augmented=False)
    consistent = rank == sympy_rank(rows, n, augmented=True)
    assert len(echelon(row >> 1 for row in rows)) == rank
    solved = solve(rows, n)
    assert (solved is not None) == consistent
    if solved is not None:
        particular, null = solved
        assert len(null) == n - rank
        assert len(echelon(null)) == len(null)
        assert all(satisfies(particular, row) for row in rows)
        assert all(satisfies(v, row & ~1) for v in null for row in rows)
        assert max([particular, *null]) < 1 << n


@CHECKED
@given(systems(most=12))
def test_the_walk_covers_the_solutions_once_each(system):
    rows, n = system
    solved = solve(rows, n)
    if solved is None:
        return
    particular, null = solved
    seen = list(walk(particular, null))
    assert len(seen) == len(set(seen)) == 2 ** len(null)
    assert all(satisfies(x, row) for x in seen for row in rows)
    # and nothing else solves the system
    assert len(seen) == sum(all(satisfies(x, row) for row in rows)
                            for x in range(2 ** n))


@CHECKED
@given(st.lists(st.integers(min_value=0, max_value=2 ** 40 - 1),
                max_size=45), st.randoms(use_true_random=False))
def test_the_echelon_basis_depends_only_on_the_span(vectors, rng):
    basis = echelon(vectors)
    shuffled = vectors[:]
    rng.shuffle(shuffled)
    assert echelon(shuffled) == basis
    # another generating set of the same span: sums of pairs, plus the basis
    mixed = [a ^ b for a, b in zip(shuffled, shuffled[1:])] + list(basis)
    assert echelon(mixed) == basis
    # reduced: each leading bit is set in its own vector only
    leads = [1 << b.bit_length() - 1 for b in basis]
    assert list(basis) == sorted(basis, reverse=True)
    assert all(sum(bool(b & lead) for b in basis) == 1 for lead in leads)
    assert sympy_rank([v << 1 for v in vectors], 40, False) == len(basis)


def test_an_empty_system_leaves_every_unknown_free():
    assert solve([], 3) == (0, [1, 2, 4])
    assert solve([1], 3) is None  # 0 = 1
    assert list(walk(5, [])) == [5]
    assert echelon([0, 0]) == ()
