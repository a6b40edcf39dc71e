"""JSON interchange for finite ball groups.

A group document carries either a full element list or a generating set,
each automorphism written as a flat vertex-image table over digit-string
words, so of degree at most 10. Serialization sorts every key so equal
documents produce identical bytes. Parsing reads an element list as index
tuples, closes it once and checks only the generators that closure picks;
when anything there fails, and for generator lists, every table is checked
on its own and the first offending element is reported by index.
"""

import functools
import json
from collections import namedtuple
from operator import itemgetter

from .balls import BallAut, BallGroup, ball_points
from .errors import DocumentError
from .permcore import _getter

ENCODING = "flat-word-map"


class GroupDocument(namedtuple("GroupDocument", "degree radius elements "
                                "generators metadata group")):
    """Equality leaves out `group`, and the hash the metadata dict."""

    __slots__ = ()

    def __new__(cls, degree, radius, elements=None, generators=None,
                metadata=None, group=None):
        if (elements is None) == (generators is None):
            raise DocumentError(
                "a document carries either elements or generators")
        return super().__new__(cls, degree, radius, elements, generators,
                               {} if metadata is None else metadata, group)

    @property
    def encoding(self):
        return ENCODING

    def __eq__(self, other):
        return type(other) is type(self) and self[:5] == other[:5]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])


def document_from_group(group, generators_only=False, metadata=None):
    meta = dict(metadata) if metadata else {}
    if generators_only:
        return GroupDocument(group.degree, group.radius,
                             generators=tuple(sorted(group.generators)),
                             metadata=meta)
    return GroupDocument(group.degree, group.radius,
                         elements=tuple(sorted(group.elements)),
                         metadata=meta)


def group_from_document(doc):
    if doc.group is not None:
        return doc.group
    if doc.elements is not None:
        return BallGroup.from_elements(doc.elements)
    return BallGroup.generated(doc.generators)


def _word_str(word):
    return "".join(str(d) for d in word)


@functools.lru_cache(maxsize=None)
def _word_strs(degree, radius):
    return tuple(_word_str(p) for p in ball_points(degree, radius))


@functools.lru_cache(maxsize=None)
def _table_format(degree, radius):
    """A table as json.dumps(..., sort_keys=True, indent=2) writes it in a
    document's list: a %-format over the words, the gather of the images in
    its key order, and the words."""
    words = _word_strs(degree, radius)
    order = sorted(range(len(words)), key=words.__getitem__)
    rows = ",\n".join('      "%s": "%%s"' % words[i] for i in order)
    return "    {\n%s\n    }" % rows, _getter(order), words


def _table_json(aut):
    fmt, order, words = _table_format(aut.degree, aut.radius)
    return fmt % _getter(order(aut.images))(words)


def _check_degree(degree):
    if degree > 10:
        raise DocumentError(
            "digit-string words only cover degrees up to 10, got %d" % degree)


def serialize_document(doc):
    """json.dumps(..., sort_keys=True, indent=2) of the document, and a
    newline. The tables are spliced into the dump of the rest, in which only
    the top-level keys start a line two spaces in."""
    _check_degree(doc.degree)
    key = "elements" if doc.elements is not None else "generators"
    text = json.dumps({"degree": doc.degree, "radius": doc.radius,
                       "encoding": ENCODING, "metadata": doc.metadata,
                       key: []}, sort_keys=True, indent=2)
    tables = ",\n".join([_table_json(a) for a in getattr(doc, key)])
    if tables:
        text = text.replace('\n  "%s": []' % key,
                            '\n  "%s": [\n%s\n  ]' % (key, tables), 1)
    return text + "\n"


def _parse_word(text, degree, where):
    if not isinstance(text, str) or text == "":
        raise DocumentError("%s: word must be a nonempty digit string,"
                            " got %r" % (where, text))
    out = []
    for ch in text:
        if not ch.isdigit() or int(ch) >= degree:
            raise DocumentError("%s: word %r uses a letter outside 0..%d"
                                % (where, text, degree - 1))
        out.append(int(ch))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _word_indices(degree, radius):
    return {w: i for i, w in enumerate(_word_strs(degree, radius))}


def _parse_aut(obj, degree, radius, index):
    where = "element %d" % index
    if not isinstance(obj, dict):
        raise DocumentError("%s: expected a word-to-word object, got %s"
                            % (where, type(obj).__name__))
    # one pass over a table in canonical digit strings
    words = _word_indices(degree, radius)
    try:
        if len(obj) == len(words):
            return BallAut.from_images(
                degree, radius, [words[obj[w]] for w in words])
    except (KeyError, TypeError, ValueError):
        pass
    # the word-by-word reading names the first defect
    mapping = {}
    for key, value in obj.items():
        v = _parse_word(key, degree, where)
        mapping[v] = _parse_word(value, degree, where)
    expected = set(ball_points(degree, radius))
    got = set(mapping)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append("missing %s" % _word_str(missing[0]))
        if extra:
            detail.append("stray %s" % _word_str(extra[0]))
        raise DocumentError("%s: vertex table does not cover the ball (%s)"
                            % (where, ", ".join(detail)))
    try:
        return BallAut.from_wordmap(degree, radius, mapping)
    except ValueError as err:
        raise DocumentError("%s: %s" % (where, err)) from err


def _element_tuples(raw, degree, radius):
    """The tables as unchecked image tuples; None on any defect."""
    words = _word_indices(degree, radius)
    keys = itemgetter(*words)
    try:
        if any(len(obj) != len(words) for obj in raw):
            return None
        return [itemgetter(*keys(obj))(words) for obj in raw]
    except (KeyError, TypeError, ValueError):
        return None


def _read_element_list(tuples, degree, radius):
    """The tables as automorphisms, and their group; None on any defect.
    The closure makes every distinct tuple from the generators it picks, so
    once they pass from_images every table is an automorphism."""
    auts = tuple([BallAut._raw(degree, radius, t) for t in tuples])
    try:
        group = BallGroup.from_elements(auts)
        for g in group.generators:
            BallAut.from_images(degree, radius, g.images)
    except ValueError:
        return None
    return auts, group


def parse_document(text):
    """The document in `text`. An element list keeps the group it was
    checked through; any defect there, and a generator list, sends each
    table through _parse_aut, which names the first bad one. The element
    list is read into index tuples and the parsed body dropped before the
    closure runs; the per-table reading parses `text` again."""
    try:
        body = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError("not valid JSON: %s" % err) from err
    if not isinstance(body, dict):
        raise DocumentError("top level must be an object")
    for name in ("degree", "radius"):
        if not isinstance(body.get(name), int) or body[name] < 1:
            raise DocumentError("%r must be a positive integer" % name)
    degree, radius = body["degree"], body["radius"]
    if degree < 2:
        raise DocumentError("degree must be at least 2")
    _check_degree(degree)
    if body.get("encoding") != ENCODING:
        raise DocumentError("encoding must be %r, got %r"
                            % (ENCODING, body.get("encoding")))
    has_elements = "elements" in body
    has_generators = "generators" in body
    if has_elements == has_generators:
        raise DocumentError(
            "a document carries either elements or generators")
    key = "elements" if has_elements else "generators"
    raw = body[key]
    if not isinstance(raw, list):
        raise DocumentError("%r must be a list" % key)
    if not raw:
        raise DocumentError("%r is empty: no group to work with" % key)
    metadata = body.get("metadata", {})
    tuples = has_elements and _element_tuples(raw, degree, radius)
    read = None
    if tuples:
        del body, raw  # the closure runs without the parsed tables
        read = _read_element_list(tuples, degree, radius)
        if read is None:
            raw = json.loads(text)[key]
    auts, group = read or (tuple(_parse_aut(obj, degree, radius, i)
                                 for i, obj in enumerate(raw)), None)
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    if has_elements:
        return GroupDocument(degree, radius, elements=auts,
                             metadata=metadata, group=group)
    return GroupDocument(degree, radius, generators=auts,
                         metadata=metadata)


def load_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def save_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(doc))
