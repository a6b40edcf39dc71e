"""Gluing keys, built by tuple gathers, and the document writer's columnar
layout against the object route: charts read off the recursive reference
in recursive_balls.py, and the word table of `BallAut.to_wordmap`."""

import json
import random
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from random_balls import random_ball_aut
from recursive_balls import RecursiveBallAut
from treeball.balls import BallAut, _need_key, _root_and_chart
from treeball.documents import GroupDocument, _word_str, serialize_document

DRAWS = (st.integers(min_value=0, max_value=2 ** 32),
         st.sampled_from([3, 4]), st.integers(min_value=2, max_value=4))


def object_keys(aut, w):
    """The (offer, need) keys of `aut` at neighbour w, from the recursive
    reference's root and child at w, each rebuilt from its word table."""
    rec = RecursiveBallAut.from_wordmap(aut.degree, aut.radius,
                                        aut.to_wordmap())
    r = aut.radius - 1
    root = BallAut.from_wordmap(aut.degree, r, rec.root.to_wordmap())
    chart = BallAut.from_wordmap(aut.degree, r, rec.children[w].to_wordmap())
    return (root.images, chart.images), (chart.images, root.images)


def wordmap_json(aut):
    """The word table as digit strings, in sorted vertex order."""
    return {_word_str(v): _word_str(img)
            for v, img in sorted(aut.to_wordmap().items())}


@settings(max_examples=40, deadline=None)
@given(*DRAWS)
def test_gluing_keys_match_the_object_route(seed, degree, radius):
    aut = random_ball_aut(degree, radius, random.Random(seed))
    for w in range(degree):
        offer, need = object_keys(aut, w)
        assert _root_and_chart(aut, w) == offer
        assert _need_key(aut, w) == need
        assert aut.children[w].images == offer[1]


@settings(max_examples=40, deadline=None)
@given(*DRAWS)
def test_serializer_matches_the_word_table(seed, degree, radius):
    # the one table, written four spaces in as a document's list entry
    aut = random_ball_aut(degree, radius, random.Random(seed))
    want = wordmap_json(aut)
    text = serialize_document(GroupDocument(degree, radius, elements=(aut,)))
    assert text == json.dumps({
        "degree": degree, "radius": radius, "encoding": "flat-word-map",
        "metadata": {}, "elements": [want]}, sort_keys=True, indent=2) + "\n"
    assert textwrap.indent(json.dumps(want, sort_keys=True, indent=2),
                           "    ") in text
