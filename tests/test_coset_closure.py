"""Dimino's coset step against the element-by-element closure.

`permcore._grow` fills whole cosets of the old closure; the frozen
`element_closure.grow` multiplies every new element by every generator. On
permutations, degree-3 ball automorphisms and Cayley-table rows the two must
reach the same closures, give the same verdicts just below, at and above the
group order and when only the members of a subgroup, or only the
elements outside it, are allowed, and let the generating-set greedy, on
packs or on table indices (`scanning_lattice.generators`), keep the same
generators.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import element_closure
import scanning_lattice
from random_balls import random_ball_aut
from treeball import full_aut, permcore
from treeball.balls import BallAut
from treeball.permcore import Perm, _Table, small_generating_set_of

STEPS = (permcore._grow, element_closure.grow)
TABLE = _Table(a.images for a in full_aut(3, 2))
CHECKED = settings(derandomize=True, deadline=None, max_examples=40,
                   suppress_health_check=[HealthCheck.too_slow])


def _verdicts(grow, gens, ident, by=None, **kw):
    """The verdicts of growing by each generator in turn, up to the first
    refusal, and the closure if none was refused."""
    members, seen, grown = [ident], {ident}, []
    verdicts = []
    for g in gens:
        verdicts.append(grow(members, seen, grown, g, by=by, **kw))
        if not verdicts[-1]:
            return verdicts, None
    assert len(members) == len(seen)
    return verdicts, seen


def _same_closures(gens, ident, rng, by=None):
    """Require both steps to agree on gens; the closure, sorted."""
    def both(**kw):
        new, old = (_verdicts(grow, gens, ident, by, **kw) for grow in STEPS)
        assert new == old
        return old

    closed = sorted(both()[1])
    for limit in (len(closed) - 1, len(closed), len(closed) + 1):
        # a trivial closure adds nothing, so no limit refuses it
        assert both(limit=limit)[0][-1] == (limit >= len(closed)
                                            or len(closed) == 1)
    picks = [g for g in gens if rng.random() < 0.5] + [rng.choice(closed)]
    sub = _verdicts(element_closure.grow, picks, ident, by)[1]
    both(within={t: t for t in sub}.get)
    both(within={t: t for t in closed if t not in sub}.get)
    return closed


def _greedy(make):
    """make() once with each closure step in permcore; both results."""
    out = []
    for grow in STEPS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permcore, "_grow", grow)
            out.append(make())
    return out


@CHECKED
@given(st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)),
    st.randoms(use_true_random=False))
def test_coset_step_matches_on_permutations(gens, rng):
    ident = Perm.identity(len(gens[0]))
    closed = _same_closures([tuple(g) for g in gens], ident.images, rng)
    new, old = _greedy(lambda: small_generating_set_of(
        [Perm(t) for t in closed], ident))
    assert new == old


@CHECKED
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from([2, 3]),
       st.integers(min_value=1, max_value=3))
def test_coset_step_matches_on_ball_automorphisms(seed, radius, count):
    rng = random.Random(seed)
    gens = [random_ball_aut(3, radius, rng) for _ in range(count)]
    ident = BallAut.identity(3, radius)
    closed = _same_closures([g.images for g in gens], ident.images, rng)
    new, old = _greedy(lambda: small_generating_set_of(
        [ident._from(t) for t in closed], ident))
    assert new == old


@CHECKED
@given(st.lists(st.integers(min_value=0, max_value=len(TABLE.images) - 1),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_coset_step_matches_on_table_rows(gens, rng):
    closed = _same_closures(gens, TABLE.e, rng, by=TABLE._rows.__getitem__)
    new, old = _greedy(lambda: scanning_lattice.generators(TABLE, closed))
    assert new == old
