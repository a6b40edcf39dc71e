"""JSON interchange for finite ball groups.

A group document carries either a full element list or a generating set,
each automorphism written as a flat vertex-image table over digit-string
words, so of degree at most 10. Serialization sorts every key so equal
documents produce identical bytes. Parsing reads a text serialization could
have written through its table template, any other through JSON, alike: an
element list becomes index tuples, closed once, and only the generators its
closure picks are checked; else, and for generator lists read through JSON,
each table is checked on its own and the first bad one reported by index.
"""

import functools
import json
import re
from collections import namedtuple
from operator import itemgetter

from .balls import BallAut, BallGroup, ball_points
from .errors import DocumentError
from .permcore import _getter, _inverse

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
    its key order, and the words; and for reading, a pattern matching one
    table and the ",\n" after it, its groups the images in key order, the
    length of every match and the gather of those images into point order."""
    words = _word_strs(degree, radius)
    order = sorted(range(len(words)), key=words.__getitem__)
    rows = ",\n".join('      "%s": "%%s"' % words[i] for i in order)
    fmt, keyed = "    {\n%s\n    }" % rows, _getter(order)(words)
    pattern = re.escape(fmt + ",\n") % tuple(
        "([0-9]{%d})" % len(w) for w in keyed)
    return fmt, _getter(order), words, (
        pattern, len(fmt % keyed) + 2, _getter(_inverse(order)))


def _table_json(aut):
    fmt, order, words, _ = _table_format(aut.degree, aut.radius)
    return fmt % _getter(order(aut.images))(words)


def _check_degree(degree):
    if degree > 10:
        raise DocumentError(
            "digit-string words only cover degrees up to 10, got %d" % degree)


def _check_ball_fits(degree, radius, chars):
    """Refuse a ball with more points than the document has characters,
    which no table can cover, before its words are listed: the points are
    counted sphere by sphere, only until they pass `chars`."""
    points, sphere = 0, degree
    for _ in range(radius):
        points += sphere
        if points > chars:
            raise DocumentError(
                "the radius-%d ball of degree %d has at least %d points, more "
                "than the document's %d characters can cover"
                % (radius, degree, points, chars))
        sphere *= degree - 1


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


def _header(body):
    """A parsed document's degree, radius and payload key, or DocumentError."""
    if not isinstance(body, dict):
        raise DocumentError("top level must be an object")
    for name in ("degree", "radius"):
        # bool is an int subclass, and JSON's true must not read as 1
        if type(body.get(name)) is not int or body[name] < 1:
            raise DocumentError("%r must be a positive integer" % name)
    degree, radius = body["degree"], body["radius"]
    if degree < 2:
        raise DocumentError("degree must be at least 2")
    _check_degree(degree)
    if body.get("encoding") != ENCODING:
        raise DocumentError("encoding must be %r, got %r"
                            % (ENCODING, body.get("encoding")))
    if ("elements" in body) == ("generators" in body):
        raise DocumentError(
            "a document carries either elements or generators")
    return degree, radius, "elements" if "elements" in body else "generators"


def _read_canonical(text):
    """_read_json's reading of a text serialize_document could write, else
    None: less its tables, the text must be json.dumps(..., sort_keys=True,
    indent=2) of itself, where '\n  "' starts only top-level keys (JSON
    strings hold no raw newline), and each table must match its pattern."""
    found = re.match(r'\{\n(?:  .*\n)*?  "(elements|generators)": \[\n', text)
    end = found and text.rfind("\n  ]")
    if not found or end < found.end():
        return None
    key, head = found[1], found.end()
    rest = text[:head - 1] + "]" + text[end + 4:]
    try:  # the header passes before the pattern, which lists every point
        body = json.loads(rest)
        degree, radius, _ = _header(body)
        _check_ball_fits(degree, radius, len(text))
    except ValueError:
        return None
    if json.dumps(body, sort_keys=True, indent=2) + "\n" != rest:
        return None
    pattern, size, point_order = _table_format(degree, radius)[3]
    rows = re.findall(pattern, text[head:end] + ",\n")
    # matches of one length that add up to the list's cover all of it
    if len(rows) * size != end - head + 2:
        return None
    words = _word_indices(degree, radius)
    try:
        tuples = [point_order(itemgetter(*row)(words)) for row in rows]
    except KeyError:  # a word outside the ball
        return None
    return degree, radius, key, body.get("metadata", {}), tuples, None


def _read_json(text):
    """The degree, radius, payload key, metadata, element tuples and, only
    if there are none (the closure runs without them), the parsed tables of
    any text; DocumentError names a defect outside the tables."""
    try:
        body = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError("not valid JSON: %s" % err) from err
    degree, radius, key = _header(body)
    raw = body[key]
    if not isinstance(raw, list):
        raise DocumentError("%r must be a list" % key)
    if not raw:
        raise DocumentError("%r is empty: no group to work with" % key)
    _check_ball_fits(degree, radius, len(text))
    tuples = key == "elements" and _element_tuples(raw, degree, radius)
    return (degree, radius, key, body.get("metadata", {}), tuples,
            None if tuples else raw)


def _read_tables(tuples, degree, radius, key):
    """The automorphisms, and an element list's group, else None: once the
    generators its closure picks pass from_images, so does every table."""
    auts = tuple([BallAut._raw(degree, radius, t) for t in tuples])
    try:
        group = BallGroup.from_elements(auts) if key == "elements" else None
        for g in group.generators if group else auts:
            BallAut.from_images(degree, radius, g.images)
    except ValueError:
        return None
    return auts, group


def parse_document(text):
    """The document in `text`. A text serialize_document could have written
    is read through its table template, any other through JSON, to the same
    document, group and errors. An element list keeps the group it was
    checked through; any defect in the tables, and a generator list read
    through JSON, sends each table through _parse_aut, which names the
    first bad one, parsing `text` again if need be. A ball too large for
    any table in `text` is refused before a table is read."""
    degree, radius, key, metadata, tuples, raw = (
        _read_canonical(text) or _read_json(text))
    read = tuples and _read_tables(tuples, degree, radius, key)
    auts, group = read or (tuple(_parse_aut(obj, degree, radius, i) for i, obj
                                 in enumerate(raw or json.loads(text)[key])),
                           None)
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return GroupDocument(degree, radius, metadata=metadata, group=group,
                         **{key: auts})


def load_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def save_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(doc))
