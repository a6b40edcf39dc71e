"""JSON group documents: serialization, parsing, and failure reporting."""

import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from random_balls import random_ball_aut
from recursive_balls import RecursiveBallAut
from test_flat_balls import perturb
import treeball
from treeball import cli, documents, permcore
from treeball.balls import BallAut, BallGroup, ball_points
from treeball.constructions import build_full_lift, radius_one
from treeball.documents import (GroupDocument, _word_str, document_from_group,
                                group_from_document, load_document,
                                parse_document, serialize_document)
from treeball.errors import DocumentError
from treeball.permcore import _table_generators as table_greedy

#: `construct` arguments of the nine named constructions
CONSTRUCTED = [
    ["diagonal", "S3"], ["centered", "S3"], ["full-lift", "S3"],
    ["full-lift", "A3"], ["parity", "S3"],
    ["parity", "S3", "--spheres", "0,1"], ["wreath", "S3", "--top", "C2"],
    ["full-lift", "S4"], ["full-lift", "S3", "--radius", "3"],
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8)


def dumped(doc):
    """The document as json.dumps writes it from one word-string dict per
    table, the way documents were first written."""
    key = "elements" if doc.elements is not None else "generators"
    body = {"degree": doc.degree, "radius": doc.radius,
            "encoding": doc.encoding, "metadata": doc.metadata,
            key: [{_word_str(v): _word_str(img)
                   for v, img in a.to_wordmap().items()}
                  for a in getattr(doc, key)]}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("args", CONSTRUCTED, ids=" ".join)
def test_construct_documents_are_what_json_dumps_writes(args, monkeypatch):
    docs = []
    real = cli.serialize_document
    monkeypatch.setattr(cli, "serialize_document",
                        lambda doc: docs.append(doc) or real(doc))
    res = invoke(cli.main, ["construct", *args, "--format", "json"])
    assert res.exit_code == 0, res.output
    assert res.output == dumped(docs[0])


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=4),
       st.sampled_from(["elements", "generators", "none"]))
def test_drawn_metadata_is_written_as_json_dumps_writes_it(gamma_s3, meta,
                                                           payload):
    # the tables are spliced in after the line that reads "elements": [],
    # so metadata that reads the same must stay where it is
    meta.update({"splice": '\n  "elements": []', "elements": [],
                 "text": "Kreisgr\u00f6\u00dfe \u2713 \U0001d54b"})
    if payload == "none":
        doc = GroupDocument(3, 2, elements=(), metadata=meta)
    else:
        doc = document_from_group(gamma_s3, payload == "generators", meta)
    assert serialize_document(doc) == dumped(doc)


def test_element_document_round_trip(gamma_s3):
    doc = document_from_group(gamma_s3, metadata={"construction": "diagonal"})
    text = serialize_document(doc)
    back = parse_document(text)
    assert back == doc
    assert back.metadata == {"construction": "diagonal"}
    group = group_from_document(back)
    assert set(group.elements) == set(gamma_s3.elements)


def test_generator_document_round_trip(pi_one):
    doc = document_from_group(pi_one, generators_only=True)
    assert doc.elements is None
    assert doc.generators
    group = group_from_document(parse_document(serialize_document(doc)))
    assert group.order == 24
    assert set(group.elements) == set(pi_one.elements)


def test_serialization_is_deterministic(phi_s3):
    doc = document_from_group(phi_s3)
    assert serialize_document(doc) == serialize_document(
        document_from_group(phi_s3))


def test_repeated_identity_in_an_element_document_counts_once():
    identity = {"0": "0", "1": "1", "2": "2"}
    body = {"degree": 3, "radius": 1, "encoding": "flat-word-map",
            "elements": [identity, identity, {"0": "1", "1": "2", "2": "0"},
                         {"0": "2", "1": "0", "2": "1"}],
            "metadata": {}}
    group = group_from_document(parse_document(json.dumps(body)))
    assert group.order == 3
    assert len(group.elements) == 3
    assert [g.level1().cycles() for g in group.generators] == [((0, 1, 2),)]


def test_document_needs_exactly_one_payload(gamma_s3):
    doc = document_from_group(gamma_s3)
    with pytest.raises(DocumentError):
        GroupDocument(degree=3, radius=2, elements=doc.elements,
                      generators=doc.elements)
    with pytest.raises(DocumentError):
        GroupDocument(degree=3, radius=2)


def test_wide_trees_are_not_serializable(gamma_s3):
    # nor readable: both directions refuse them with the same text
    text = "digit-string words only cover degrees up to 10, got 11"
    with pytest.raises(DocumentError, match="^%s$" % text):
        serialize_document(GroupDocument(degree=11, radius=1,
                                         elements=((("0", "0"),),)))
    body = sample_body(gamma_s3)
    body["degree"] = 11
    with pytest.raises(DocumentError, match="^%s$" % text):
        parse_document(json.dumps(body))


def sample_body(gamma_s3):
    return json.loads(serialize_document(document_from_group(gamma_s3)))


def test_parse_failures(gamma_s3):
    with pytest.raises(DocumentError, match="JSON"):
        parse_document("{nope")
    with pytest.raises(DocumentError, match="top level"):
        parse_document("[1, 2]")

    body = sample_body(gamma_s3)
    body["degree"] = 1
    with pytest.raises(DocumentError, match="at least 2"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    body["radius"] = "two"
    with pytest.raises(DocumentError, match="positive integer"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    body["encoding"] = "cycle-notation"
    with pytest.raises(DocumentError, match="encoding"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    body["generators"] = body["elements"]
    with pytest.raises(DocumentError, match="either elements or generators"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    del body["elements"]
    with pytest.raises(DocumentError, match="either elements or generators"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    body["elements"] = []
    with pytest.raises(DocumentError, match="empty"):
        parse_document(json.dumps(body))

    for part, message in WRONG_TYPES.items():
        with pytest.raises(DocumentError, match="^%s$" % re.escape(message)):
            parse_document(wrong_type(gamma_s3, part))


@pytest.mark.parametrize("name", ["degree", "radius"])
def test_a_json_boolean_is_not_a_positive_integer(name):
    # bool is an int subclass: read as 1, "radius": true would pass this
    # radius-1 document, on the layout's route and on the JSON one
    text = serialize_document(document_from_group(
        radius_one(permcore.PermGroup.symmetric(3))))
    text = re.sub(r'"%s": \d+' % name, '"%s": true' % name, text)
    for read in (text, json.dumps(json.loads(text))):
        with pytest.raises(DocumentError,
                           match="^'%s' must be a positive integer$" % name):
            parse_document(read)


@pytest.mark.parametrize("key, radius", [
    ("elements", 30), ("generators", 30), ("elements", 10 ** 9)])
def test_a_ball_no_table_can_cover_is_refused_before_any_table(
        key, radius, tmp_path):
    # 3 * 2^29 words at radius 30: listing them ran out of a 1.5 GB address
    # space, or for a generator list ran on past 20 s. The points pass the
    # text's length on the sixth sphere, and the count stops there
    text = json.dumps({"degree": 3, "radius": radius,
                       "encoding": "flat-word-map", "metadata": {},
                       key: [{"0": "0"}]})
    path = tmp_path / "huge.json"
    path.write_text(text)
    src = str(pathlib.Path(treeball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = 1536 * 2 ** 20
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "treeball.cli", "check-c", "--in", str(path)],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (cap, cap)))
    took = time.perf_counter() - start
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.splitlines() == [
        "Error: the radius-%d ball of degree 3 has at least 189 points, more "
        "than the document's %d characters can cover" % (radius, len(text))]
    assert took < 2


#: each part of a document given a list or object of the wrong kind, and
#: its refusal
WRONG_TYPES = {
    "element 0": "element 0: expected a word-to-word object, got list",
    "elements": "'elements' must be a list",
    "metadata": "metadata must be an object",
}


def wrong_type(gamma_s3, part):
    body = sample_body(gamma_s3)
    if part == "element 0":
        body["elements"][0] = []
    else:
        body[part] = {} if part == "elements" else []
    return json.dumps(body)


def test_check_c_refuses_a_part_of_the_wrong_type(tmp_path, gamma_s3):
    path = tmp_path / "wrong-type.json"
    path.write_text(wrong_type(gamma_s3, "metadata"))
    res = invoke(cli.main, ["check-c", "--in", str(path)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == ["Error: " + WRONG_TYPES["metadata"]]


def test_parse_reports_the_broken_element(gamma_s3):
    body = sample_body(gamma_s3)
    del body["elements"][2]["01"]
    with pytest.raises(DocumentError, match="element 2"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    body["elements"][1]["01"] = "07"
    with pytest.raises(DocumentError, match="element 1"):
        parse_document(json.dumps(body))

    body = sample_body(gamma_s3)
    body["elements"][0]["012"] = "012"
    with pytest.raises(DocumentError, match="element 0"):
        parse_document(json.dumps(body))


@pytest.mark.parametrize("digit", ["\u0663", "\u00b3"],
                         ids=["arabic-indic-three", "superscript-three"])
def test_words_take_ascii_digits_only(digit):
    # str.isdigit and int() take both for 3; a word letter is 0-9 alone
    body = json.loads(serialize_document(document_from_group(
        radius_one(permcore.PermGroup.symmetric(4)))))
    identity = body["elements"][0]
    del identity["3"]
    identity[digit] = digit
    with pytest.raises(DocumentError, match=re.escape(
            "element 0: word %r uses a letter outside 0..3" % digit)):
        parse_document(json.dumps(body))


def test_parse_rejects_non_automorphism_tables(gamma_s3):
    body = sample_body(gamma_s3)
    table = body["elements"][3]
    # send two sibling leaves to the same image: no longer a bijection
    table["01"] = table["02"]
    with pytest.raises(DocumentError, match="element 3"):
        parse_document(json.dumps(body))


def test_table_swaps_that_remain_automorphisms_parse(gamma_s3):
    # swapping the two leaves below one neighbour is itself a valid map of
    # the ball, so the tampered table still parses; the element list just
    # stops being closed under composition, which group building reports
    body = sample_body(gamma_s3)
    table = body["elements"][5]
    table["01"], table["02"] = table["02"], table["01"]
    doc = parse_document(json.dumps(body))
    with pytest.raises(ValueError):
        group_from_document(doc)


def reference_read(body):
    """An element document read table by table, with the recursive
    reference deciding each table and a product table deciding the group:
    the first bad table's message, "element set is not a group", or the
    flat tables in document order."""
    degree, radius = body["degree"], body["radius"]
    auts = []
    for i, table in enumerate(body["elements"]):
        where = "element %d" % i
        if not isinstance(table, dict):
            return "%s: expected a word-to-word object, got %s" % (
                where, type(table).__name__)
        mapping = {}
        for key, value in table.items():
            for word in (key, value):
                if not isinstance(word, str) or word == "":
                    return ("%s: word must be a nonempty digit string, got"
                            " %r" % (where, word))
                if any(not c.isdigit() or int(c) >= degree for c in word):
                    return ("%s: word %r uses a letter outside 0..%d"
                            % (where, word, degree - 1))
            mapping[tuple(map(int, key))] = tuple(map(int, value))
        points = set(ball_points(degree, radius))
        detail = (["missing %s" % _word_str(w)
                   for w in sorted(points - set(mapping))[:1]]
                  + ["stray %s" % _word_str(w)
                     for w in sorted(set(mapping) - points)[:1]])
        if detail:
            return "%s: vertex table does not cover the ball (%s)" % (
                where, ", ".join(detail))
        try:
            auts.append(RecursiveBallAut.from_wordmap(degree, radius,
                                                      mapping))
        except ValueError as err:
            return "%s: %s" % (where, err)
    distinct = {a.flat(): a for a in auts}.values()
    flats = {a.flat() for a in distinct}
    if ball_points(degree, radius) not in flats or any(
            (a * b).flat() not in flats for a in distinct for b in distinct):
        return "element set is not a group"
    return [a.flat() for a in auts]


def library_read(body):
    """The same three outcomes from parse_document and group_from_document,
    which read the body's compact and canonical dumps alike."""
    outcomes = []
    for text in (json.dumps(body),
                 json.dumps(body, sort_keys=True, indent=2) + "\n"):
        try:
            doc = parse_document(text)
            group = group_from_document(doc)
        except ValueError as err:
            outcomes.append(str(err))
            continue
        assert {a.flat() for a in doc.elements} == {a.flat() for a in group}
        outcomes.append([a.flat() for a in doc.elements])
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def word_table(aut, rng, defects):
    """`aut`'s table in digit strings with `defects` stacked perturb defects,
    its keys in shuffled order."""
    table = aut.to_wordmap()
    for _ in range(defects):
        table = perturb(table, aut.degree, aut.radius, rng)
    items = [(_word_str(k), _word_str(v)) for k, v in table.items()]
    rng.shuffle(items)
    return dict(items)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([(3, 1), (3, 2), (3, 3),
                                                 (4, 1), (4, 2)]),
       st.integers(0, 3))
def test_element_documents_read_as_the_per_table_reading_does(seed, shape,
                                                              defects):
    # the generator check behind the one closure accepts and refuses the
    # same documents as checking every table, with the same messages
    degree, radius = shape
    rng = random.Random(seed)
    count = 2 if degree == 3 and radius < 3 or radius == 1 else 1
    group = BallGroup.generated([random_ball_aut(degree, radius, rng)
                                 for _ in range(count)])
    auts = list(group.elements)
    auts += rng.sample(auts, rng.randrange(min(3, len(auts)) + 1))
    rng.shuffle(auts)
    hit = [rng.randrange(len(auts)) for _ in range(defects)]
    body = {"degree": degree, "radius": radius,
            "encoding": "flat-word-map", "metadata": {},
            "elements": [word_table(a, rng, hit.count(i))
                         for i, a in enumerate(auts)]}
    assert library_read(body) == reference_read(body)


#: identity plus an idempotent that is not a bijection: closed under
#: composition, so the closure passes and only its generator is refused
IDEMPOTENT = [{"0": "0", "1": "1", "2": "2"}, {"0": "0", "1": "0", "2": "2"}]
#: the lone transposition of test_cli's non-group document
TRANSPOSITION = [{"0": "1", "1": "0", "2": "2"}]


@pytest.mark.parametrize("tables, outcome", [
    (IDEMPOTENT, "element 1: not a permutation of 0..n-1: (0, 0, 2)"),
    (TRANSPOSITION, "element set is not a group"),
], ids=["idempotent", "transposition"])
def test_lists_the_closure_cannot_vouch_for_read_as_before(tables, outcome):
    body = {"degree": 3, "radius": 1, "encoding": "flat-word-map",
            "metadata": {}, "elements": tables}
    assert library_read(body) == reference_read(body) == outcome


def _read(text):
    """parse_document's document, metadata, group and generators for
    `text`, a str or its UTF-8 bytes, or its error with the text's length
    left out."""
    try:
        doc = parse_document(text)
        group = group_from_document(doc)
    except ValueError as err:
        if isinstance(text, bytes):
            text = str(text, "utf-8")
        return str(err).replace("%d characters" % len(text), "N characters")
    return doc, doc.metadata, group, group.generators


def _refuse(*args):
    raise AssertionError("read through the JSON tree")


def _payload_in_metadata(text, body):
    """`body` with its payload on one line and, after it, the metadata's own
    "elements" list where a canonical payload would be."""
    tables = json.dumps(body["metadata"]["elements"], sort_keys=True,
                        indent=2).replace("\n", "\n  ")
    rest = json.dumps(dict(body, metadata=None), sort_keys=True)
    return ('{\n  %s,\n  "metadata": {\n  "elements": %s}\n}\n'
            % (rest[1:-1].replace(', "metadata": null', ""), tables))


#: texts that look canonical: the body's change, the canonical dump's edit,
#: whether the layout reads the text, and whether it parses
LOOKALIKES = {
    "metadata string": (lambda b: b["metadata"].update(
        note='\n  "elements": [\n  ]', key='"elements": ['), None, True, True),
    "metadata elements": (lambda b: b["metadata"].update(
        elements=[b["elements"][0]]), None, True, True),
    "metadata elements last": (lambda b: b["metadata"].update(
        elements=[b["elements"][0]]), _payload_in_metadata, False, True),
    "CRLF": (None, lambda t, b: t.replace("\n", "\r\n"), False, True),
    "trailing space": (None, lambda t, b: t.replace("},\n", "}, \n", 1),
                       False, True),
    "unknown word": (lambda b: b["elements"][1].update({"01": "00"}), None,
                     False, False),
    "both payloads": (lambda b: b.update(generators=b["elements"][:1]), None,
                      False, False),
    "radius 30": (lambda b: b.update(radius=30, elements=[{"0": "0"}]), None,
                  False, False),
}


@pytest.mark.parametrize("case", LOOKALIKES)
def test_canonical_lookalikes_read_as_their_compact_dumps(case, gamma_s3,
                                                          monkeypatch):
    change, edit, templated, parses = LOOKALIKES[case]
    body = sample_body(gamma_s3)
    if change:
        change(body)
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    if edit:
        text = edit(text, body)
    expected = _read(json.dumps(body))
    assert isinstance(expected, tuple) == parses
    if templated:
        monkeypatch.setattr(documents, "_element_tuples", _refuse)
        monkeypatch.setattr(documents, "_parse_aut", _refuse)
    elif case == "radius 30":
        # no table, nor the list of the ball's 3 * 2^29 words, is made
        monkeypatch.setattr(documents, "_word_strs", _refuse)
    # a file's bytes read as the text does; a CRLF file, as text mode read
    # it, is the canonical dump itself
    assert _read(text) == _read(bytes(text, "utf-8")) == expected


@pytest.mark.parametrize("payload", ["elements", "generators"])
@pytest.mark.parametrize("args", CONSTRUCTED, ids=" ".join)
def test_both_payloads_are_written_as_json_dumps_writes_them(args, payload,
                                                             tmp_path):
    path = tmp_path / "doc.json"
    res = invoke(cli.main, ["construct", *args, "--out", str(path)])
    assert res.exit_code == 0, res.output
    doc = load_document(path)
    doc = document_from_group(group_from_document(doc),
                              payload == "generators", doc.metadata)
    assert serialize_document(doc) == dumped(doc)


#: what each character of a table list is turned into, one at a time
MUTATIONS = ["0", "9", '"', " ", "\n", ",", "\u00e9"]


@pytest.mark.parametrize("payload", ["elements", "generators"])
@pytest.mark.parametrize("shape", ["degree 3 radius 2", "degree 4 radius 1"])
def test_every_changed_character_reads_as_through_json(shape, payload,
                                                       gamma_s3, monkeypatch):
    # the oracle reads every text through JSON alone; the layout must read
    # each text it accepts to the same document, group and generators, and
    # decline the rest, which JSON then reads or refuses with its message
    group = gamma_s3 if shape == "degree 3 radius 2" else radius_one(
        permcore.PermGroup.dihedral(4))
    text = serialize_document(document_from_group(group,
                                                  payload == "generators"))
    head, end = text.index("[\n") + 2, text.rindex("\n  ]")
    texts = [text[:i] + c + text[i + 1:] for i in range(head, end)
             for c in MUTATIONS if c != text[i]]
    body = json.loads(text)
    tables = body[payload]
    for changed in (tables[::-1], tables + tables[1:2]):
        texts.append(json.dumps(dict(body, **{payload: changed}),
                                sort_keys=True, indent=2) + "\n")
    with monkeypatch.context() as mp:
        mp.setattr(documents, "_element_tuples", _refuse)
        mp.setattr(documents, "_parse_aut", _refuse)
        layout = [_read(t) for t in texts[-2:]]  # through the layout
        assert [_read(bytes(t, "utf-8")) for t in texts[-2:]] == layout
    read = assert_read_as_through_json(texts, monkeypatch)
    assert read[-2:] == layout
    assert sum(isinstance(r, tuple) for r in read) > 2


def assert_read_as_through_json(texts, monkeypatch):
    """The readings of `texts`, each read alike as a str, as its UTF-8
    bytes, and through JSON alone: the oracle."""
    read = [_read(t) for t in texts]
    assert [_read(bytes(t, "utf-8")) for t in texts] == read
    with monkeypatch.context() as mp:
        mp.setattr(documents, "_read_canonical", lambda text: None)
        assert [_read(t) for t in texts] == read
    return read


def _edited(text, places, inserts):
    """`text` with the character at each of `places` deleted, and with each
    of `inserts` put in before it and in its place."""
    out = []
    for i in places:
        out.append(text[:i] + text[i + 1:])
        out += [text[:i] + c + text[i + cut:] for c in inserts
                for cut in (0, 1) if not cut or c != text[i]]
    return out


#: what is put in before or for a character by the edits below
INSERTS = ["1", "\n", ","]


@pytest.mark.parametrize("shape, payload", [
    ("degree 3 radius 2", "elements"), ("degree 3 radius 2", "generators"),
    ("degree 4 radius 1", "elements"), ("degree 4 radius 1", "generators"),
    ("degree 3 radius 3", "generators")])
def test_every_edit_of_the_tables_reads_as_through_json(shape, payload, s3,
                                                        gamma_s3,
                                                        monkeypatch):
    # the table count comes from the length of the untouched text, so a
    # deleted or inserted character anywhere in the tables, the last one
    # or the closing "\n  ]" must be declined or read as JSON reads it;
    # radius 3 takes the multiply-add of columns across three spheres
    group = {"degree 3 radius 2": gamma_s3,
             "degree 4 radius 1": radius_one(permcore.PermGroup.dihedral(4)),
             "degree 3 radius 3": build_full_lift(s3, 3)}[shape]
    text = serialize_document(document_from_group(group,
                                                  payload == "generators"))
    head, end = text.index("[\n") + 2, text.rindex("\n  ]")
    places = range(head, end + 4)
    if len(text) > 4000:  # a sample, and the last table's end and the
        places = sorted(set(random.Random(0).sample(places, 150))  # "\n  ]"
                        | set(range(end - 24, end + 4)))
    texts = _edited(text, places, INSERTS)
    # the metadata with a raw non-ASCII character: JSON reads it, and the
    # layout declines it as a str and as bytes, ahead of the tables
    raw = text.replace('"metadata": {}', '"metadata": {"note": "\u00e9"}')
    assert documents._read_canonical(raw) is None
    assert documents._read_canonical(bytes(raw, "utf-8")) is None
    assert documents._read_canonical(text) is not None
    read = assert_read_as_through_json(texts + [text, raw], monkeypatch)
    assert read[-1][1] == {"note": "\u00e9"}
    assert read[-1][2:] == read[-2][2:]  # the original's group
    assert sum(isinstance(r, tuple) for r in read) > 2


@pytest.mark.parametrize("args", CONSTRUCTED, ids=" ".join)
def test_written_documents_are_read_through_the_table_template(
        args, tmp_path, monkeypatch):
    # a reader that always fell back on the JSON tree would pass every
    # equivalence test above; the documents treeball writes must not
    path = tmp_path / "doc.json"
    res = invoke(cli.main, ["construct", *args, "--out", str(path)])
    assert res.exit_code == 0, res.output
    monkeypatch.setattr(documents, "_element_tuples", _refuse)
    monkeypatch.setattr(documents, "_parse_aut", _refuse)
    doc = load_document(path)
    res = invoke(cli.main, [
        "pk-local", "--in", str(path), "--target", str(doc.radius),
        "--format", "json"])
    assert res.exit_code == 0, res.output
    gens = parse_document(res.output)
    assert serialize_document(doc) == path.read_text()
    assert serialize_document(gens) == res.output
    assert BallGroup.generated(gens.generators) == doc.group


@pytest.mark.parametrize("args", CONSTRUCTED, ids=" ".join)
def test_one_read_closes_once(args, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    res = invoke(cli.main, ["construct", *args, "--out", str(path)])
    assert res.exit_code == 0, res.output
    calls, checked = [], []
    # the greedy of element lists and of group tables
    monkeypatch.setattr(permcore, "_table_generators",
                        lambda *a: calls.append(a) or table_greedy(*a))
    check = BallAut.from_images
    monkeypatch.setattr(BallAut, "from_images", classmethod(
        lambda cls, *a: checked.append(a) or check(*a)))
    group = group_from_document(load_document(path))
    # one closure, and a table check for each generator it picks only
    assert len(calls) == 1
    assert len(checked) == len(group.generators)
    monkeypatch.undo()
    text = path.read_text()
    doc = parse_document(text)
    assert group.generators == BallGroup.from_elements(
        doc.elements).generators
    assert serialize_document(doc) == text


def assert_readings_agree(made, monkeypatch):
    """`made`, from document_from_group, its text read through the layout,
    as a str and as bytes, and through JSON alone, and the document of its
    element or generator tuple: all equal, hashing alike, with the same
    tuples and the same text. An element list made or read holds its group
    and no element tuple, and one read makes no element until asked."""
    text = serialize_document(made)
    docs = [made, parse_document(text), parse_document(bytes(text, "ascii"))]
    with monkeypatch.context() as mp:
        mp.setattr(documents, "_read_canonical", lambda data: None)
        docs.append(parse_document(text))
    if made.generators is None:
        assert [doc[2] for doc in docs] == [None] * 4
        assert all(doc.group._elements is None for doc in docs[1:])
    key = "elements" if made.generators is None else "generators"
    docs.append(GroupDocument(made.degree, made.radius, metadata=dict(
        made.metadata), **{key: tuple(getattr(made, key))}))
    for doc in docs:
        assert doc == made and not doc != made and hash(doc) == hash(made)
        assert (doc.elements, doc.generators) == (made.elements,
                                                  made.generators)
        assert serialize_document(doc) == text


@pytest.mark.parametrize("payload", ["elements", "generators"])
@pytest.mark.parametrize("args", CONSTRUCTED, ids=" ".join)
def test_documents_made_and_read_agree(args, payload, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    res = invoke(cli.main, ["construct", *args, "--out", str(path)])
    assert res.exit_code == 0, res.output
    doc = load_document(path)
    assert_readings_agree(document_from_group(
        group_from_document(doc), payload == "generators", doc.metadata),
        monkeypatch)


def test_check_c_makes_no_element_for_each_table(tmp_path, monkeypatch):
    # the radius-3 full lift of S3 has 3,072 tables; check-c makes the
    # generators its closure picks and the elements its first-partner scans
    # pass, and no element tuple
    path = tmp_path / "fls3r3.json"
    res = invoke(cli.main, ["construct", "full-lift", "S3", "--radius", "3",
                            "--out", str(path)])
    assert res.exit_code == 0, res.output
    made, groups = [], []
    raw = BallAut._raw.__func__
    monkeypatch.setattr(BallAut, "_raw", classmethod(
        lambda cls, *a: made.append(a) or raw(cls, *a)))
    read = cli.group_from_document
    monkeypatch.setattr(cli, "group_from_document",
                        lambda doc: groups.append(read(doc)) or groups[-1])
    res = invoke(cli.main, ["check-c", "--in", str(path)])
    assert (res.exit_code, res.output) == (0, "C: yes\n")
    [group] = groups
    assert group.order == 3072 and group._elements is None
    assert len(made) < 3072 // 16


def test_a_canonical_read_makes_no_copy_of_its_text(s3):
    # the radius-3 full lift of S3, 3,072 tables in 1.25 MB: the layout
    # reads the bytes in place, and its one rendering to compare them with
    # is the only buffer as long as the text
    data = bytes(serialize_document(document_from_group(
        build_full_lift(s3, 3))), "ascii")
    parse_document(data)  # the layout and the word tables are cached
    tracemalloc.start()
    try:
        doc = parse_document(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(data)
    assert doc.group.order == 3072
    assert peak / size <= 1.5
