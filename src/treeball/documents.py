"""JSON interchange for finite ball groups.

A group document carries either a full element list or a generating set,
each automorphism a flat vertex-image table over digit-string words, so of
degree at most 10. Serialization sorts every key so equal documents produce
identical bytes. Files are read and written as bytes. Up to 256 points one
layout writes a group's packed table, and reads a text serialization could
have written into one, in place, by translates of whole columns; a text is
canonical when rendering what was read gives it back. Past 256 points, and
for any other text, both go through JSON, alike. An element list is closed
once, no element made until read, and only the generators its closure
picks are checked; if one fails, each table is, the first bad one named.
"""

import functools
import json
import re
import struct
from collections import namedtuple
from operator import itemgetter, lt

from .balls import BallAut, BallGroup, _point_index, ball_points
from .errors import DocumentError
from .permcore import _codec, _images

ENCODING = "flat-word-map"


class GroupDocument(namedtuple("GroupDocument", "degree radius elements "
                                "generators metadata group")):
    """Equality leaves out `group`, and the hash the metadata dict. With a
    group and no payload, it lists the group's elements, made when read."""

    __slots__ = ()

    def __new__(cls, degree, radius, elements=None, generators=None,
                metadata=None, group=None):
        if (elements is None) == (generators is None) and (
                elements is not None or group is None):
            raise DocumentError(
                "a document carries either elements or generators")
        return super().__new__(cls, degree, radius, elements, generators,
                               {} if metadata is None else metadata, group)

    @property
    def elements(self):  # with no payload, the group's, made when first read
        return self.group.elements if self[2] is self[3] is None else self[2]

    @property
    def encoding(self):
        return ENCODING

    def _values(self):
        return (self.degree, self.radius, self.elements, self.generators,
                self.metadata)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._values()[:4])


def document_from_group(group, generators_only=False, metadata=None):
    return GroupDocument(group.degree, group.radius, generators=tuple(sorted(
        group.generators)) if generators_only else None, metadata=dict(
            metadata or {}), group=None if generators_only else group)


def group_from_document(doc):
    if doc.group is not None:
        return doc.group
    return (BallGroup.from_elements(doc.elements) if doc.elements is not None
            else BallGroup.generated(doc.generators))


def _word_str(word):
    return "".join(str(d) for d in word)


@functools.lru_cache(maxsize=None)
def _word_strs(degree, radius):
    return tuple(_word_str(p) for p in ball_points(degree, radius))


@functools.lru_cache(maxsize=None)
def _layout(degree, radius):
    """A table in a list as json.dumps(..., sort_keys=True, indent=2) writes
    it, with its ",\n", for at most 256 points: the skeleton, its image
    characters zeroed; per t < radius, the offsets of the t-th image
    characters of the points past sphere t; translates, 255 for none: `digit`
    to a letter, `steps[t]` from p * degree + letter, p an index in sphere t,
    to one in sphere t + 1 (a sphere times the degree is it and the next, so
    under 256), `places[t]` on to ball_points, `chars[t]` to t-th letters."""
    words, index = _word_strs(degree, radius), _point_index(degree, radius)
    text = "    {\n%s\n    },\n" % ",\n".join(
        '      "%s": "%s"' % (w, "\0" * len(w)) for w in sorted(words))
    at = {w: text.index('"%s": "' % w) + len(w) + 5 for w in words}
    steps, places, inner = [], [], [()]
    for t in range(1, radius + 1):
        outer = [p for p in index if len(p) == t]
        steps.append(bytes([
            index[u + (x,)] - index[outer[0]] if u[-1:] != (x,) else 255
            for u in inner for x in range(degree)]).ljust(256, b"\xff"))
        places.append(bytes(map(index.get, outer)).ljust(256))
        inner = outer
    return (bytes(text, "ascii"),
            [tuple(at[w] + t for w in words if len(w) > t)
             for t in range(radius)],
            (b"\xff" * 48 + bytes(range(degree))).ljust(256, b"\xff"), steps,
            places, [bytes(ord(w[t]) if t < len(w) else 0 for w in words
                           ).ljust(256) for t in range(radius)])


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
    return str(_serialized(doc), "ascii")


def _serialized(doc):
    """json.dumps(..., sort_keys=True, indent=2) of the document, its tables
    as word maps, and a newline, in ASCII bytes. Up to 256 points the tables
    are `_rendered` from the packs (a group held alone gives its table), put
    in the dump of the rest, where only top-level keys start a line two in."""
    _check_degree(doc.degree)
    key = "elements" if doc.generators is None else "generators"
    words = _word_strs(doc.degree, doc.radius)
    wide, n = len(words) > 256, len(words)
    text = json.dumps({
        "degree": doc.degree, "radius": doc.radius, "encoding": doc.encoding,
        "metadata": doc.metadata, key: [dict(zip(words, map(
            words.__getitem__, a.images))) for a in getattr(doc, key)]
        if wide else []}, sort_keys=True, indent=2) + "\n"
    auts = doc[2] if key == "elements" else doc.generators
    images = b"" if wide else bytearray().join(
        doc.group._table if auts is None else map(bytes, map(_images, auts)))
    if not images:
        return bytes(text, "ascii")
    out = _rendered([images[i::n] for i in range(n)], doc.degree, doc.radius)
    head, _, tail = text.partition('\n  "%s": []' % key)
    out[-2:] = bytes("\n  ]" + tail, "ascii")  # in place: the text is one copy
    out[:0] = bytes('%s\n  "%s": [\n' % (head, key), "ascii")
    return out


def _rendered(columns, degree, radius):
    """The text of tables whose images of point i are `columns[i]`: a
    `_layout` skeleton each, each image character column one translate
    (of a bytearray column, which a strided store takes uncopied)."""
    skeleton, depths, _, _, _, chars = _layout(degree, radius)
    out, size = bytearray(skeleton) * len(columns[0]), len(skeleton)
    for offsets, char in zip(depths, chars):
        for at, column in zip(offsets, columns[-len(offsets):]):
            out[at::size] = column.translate(char)
    return out


def _parse_word(text, degree, where):
    if not isinstance(text, str) or text == "":
        raise DocumentError("%s: word must be a nonempty digit string,"
                            " got %r" % (where, text))
    out = tuple("0123456789"[:degree].find(ch) for ch in text)
    if -1 in out:  # ASCII digits only: str.isdigit admits others
        raise DocumentError("%s: word %r uses a letter outside 0..%d"
                            % (where, text, degree - 1))
    return out


@functools.lru_cache(maxsize=None)
def _word_indices(degree, radius):
    return {w: i for i, w in enumerate(_word_strs(degree, radius))}


def _parse_aut(obj, degree, radius, index):
    where = "element %d" % index
    if not isinstance(obj, dict):
        raise DocumentError("%s: expected a word-to-word object, got %s"
                            % (where, type(obj).__name__))
    mapping = {}
    for key, value in obj.items():
        v = _parse_word(key, degree, where)
        mapping[v] = _parse_word(value, degree, where)
    points = set(ball_points(degree, radius))
    detail = ["%s %s" % (what, _word_str(min(some))) for what, some in [
        ("missing", points - set(mapping)), ("stray", set(mapping) - points)]
        if some]
    if detail:
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


def _read_canonical(data):
    """_read_json's reading of a text (str or bytes) serialize_document
    could write, as packs, else None: less its tables, json.dumps(...,
    sort_keys=True, indent=2) of itself ('\n  "' starts only top-level keys:
    JSON strings hold no raw newline); tables of at most 256 points, read in
    place by strided slices, a translate and a multiply-add of columns as
    integers (no byte carries). The text is canonical when `_rendered` gives
    it back from what was read: no non-ASCII byte passes that or a decode."""
    if isinstance(data, str):  # a non-ASCII str is no canonical text
        data = bytes(data, "ascii") if data.isascii() else b""
    found = re.match(rb'\{\n(?:  .*\n)*?  "(elements|generators)": \[\n', data)
    end = found and data.rfind(b"\n  ]")
    if not found or end < found.end():
        return None
    key, head = str(found[1], "ascii"), found.end()
    try:  # the header passes before the layout, which lists every point
        rest = str(data[:head - 1] + b"]" + data[end + 4:], "ascii")
        body = json.loads(rest)
        degree, radius, _ = _header(body)
        _check_ball_fits(degree, radius, len(data))
    except (ValueError, RecursionError):  # deep nesting raises the latter
        return None
    if (json.dumps(body, sort_keys=True, indent=2) + "\n" != rest
            or len(_word_strs(degree, radius)) > 256
            or (end + 2 - head) % len(_layout(degree, radius)[0])):
        return None  # the tables, and a last ",\n", are whole skeletons
    skeleton, depths, digit, steps, places, _ = _layout(degree, radius)
    size, n = len(skeleton), len(depths[0])
    count, columns, inner = (end + 2 - head) // size, [], 0
    for offsets, step, place, outer in zip(depths, steps, places,
                                           depths[1:] + [()]):
        letters = b"".join([data[head + at:end:size] for at in offsets]
                           ).translate(digit)
        if inner and 255 not in letters:  # codes p * degree + letter
            letters = (inner * degree + int.from_bytes(
                letters, "big")).to_bytes(len(letters), "big")
        index = bytearray(letters.translate(step))  # no letter stays 255
        if 255 in index:  # as does a step back along the last edge
            return None
        done = (len(offsets) - len(outer)) * count  # words of t + 1 letters
        columns += [index[k:k + count].translate(place)
                    for k in range(0, done, count)]
        inner = int.from_bytes(index[done:], "big")
    if data.startswith(memoryview(_rendered(columns, degree, radius))[:-2],
                       head):  # the text is compared in place, not copied
        packed = bytearray(n * count)
        for i, column in enumerate(columns):
            packed[i::n] = column
        return (degree, radius, key, body.get("metadata", {}),
                struct.unpack(("%ds" % n) * count, packed), None)


def _read_json(text):
    """The degree, radius, payload key, metadata, packs and, if there are
    none, tables of any text; DocumentError names a defect outside them."""
    try:
        body = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise DocumentError("not valid JSON: %s" % err) from err
    degree, radius, key = _header(body)
    raw = body[key]
    if not isinstance(raw, list):
        raise DocumentError("%r must be a list" % key)
    if not raw:
        raise DocumentError("%r is empty: no group to work with" % key)
    _check_ball_fits(degree, radius, len(text))
    tuples = _element_tuples(raw, degree, radius)
    return (degree, radius, key, body.get("metadata", {}), tuples and list(
        map(_codec(len(tuples[0]))[0], tuples)), None if tuples else raw)


def _read_tables(packs, degree, radius, key):
    """The automorphisms (none for a list sorted without repeats) and an
    element list's group, on the packs sorted without repeats, else None:
    once the generators its closure picks pass from_images, all tables do."""
    ident, elements = BallAut.identity(degree, radius), key == "elements"
    auts = None if elements and all(map(lt, packs, packs[1:])) else tuple(
        map(ident._from, map(_codec(len(ident.images))[1], packs)))
    try:
        group = BallGroup._of_table((degree, radius), sorted(set(packs))
                                    if auts else packs) if elements else None
        for g in group.generators if elements else auts:
            BallAut.from_images(degree, radius, g.images)
    except ValueError:
        return None
    return auts, group


def parse_document(data):
    """The document in `data`, a str or a file's bytes: `_parsed`'s."""
    return _parsed(data)


def _parsed(data):
    """A text serialize_document could have written is read through its
    `_layout`, any other through JSON, to the same document, group and
    errors. An element list keeps the group it was checked through, alone
    when sorted without repeats; any defect in the tables sends each table
    through _parse_aut, which names the first bad one. A ball too large for
    any table in the text is refused first."""
    read = _read_canonical(data)
    if read is None:
        if not isinstance(data, str):  # as text mode reads a file
            data = str(data, "utf-8").replace("\r\n", "\n").replace("\r", "\n")
        read = _read_json(data)
    degree, radius, key, metadata, packs, raw = read
    auts, group = packs and _read_tables(packs, degree, radius, key) or (
        tuple(_parse_aut(obj, degree, radius, i) for i, obj
              in enumerate(raw or json.loads(data)[key])), None)
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return GroupDocument(degree, radius, metadata=metadata, group=group,
                         **({} if auts is None else {key: auts}))


def load_document(path):
    # bench/tracing.py counts what parse_document is given as a str
    with open(path, "rb") as fh:
        return _parsed(fh.read())


def save_document(doc, path):
    with open(path, "wb") as fh:
        fh.write(_serialized(doc))
