"""JSON group documents: serialization, parsing, and failure reporting."""

import json

import pytest

from treeball.documents import (GroupDocument, document_from_group,
                                group_from_document, parse_document,
                                serialize_document)
from treeball.errors import DocumentError


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


def test_wide_trees_are_not_serializable():
    with pytest.raises(DocumentError):
        serialize_document(GroupDocument(degree=11, radius=1,
                                         elements=((("0", "0"),),)))


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
