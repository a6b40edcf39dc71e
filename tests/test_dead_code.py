"""No dead code: every private function, method and class in the library
is used by the library, and so is every public function and method that
the package does not export.

A private (``_name``) definition under src/treeball/ that nothing in src/
refers to, outside its own body, serves only the tests or nothing; test
helpers belong in tests/. References are NAME tokens, so attribute uses
(``self._grow``) count, and so does a definition's use in its own module.

A public module-level function or method counts as used when src/ refers
to it outside its own body and outside the package's re-exports in
``__init__.py``, when ``__all__`` exports it, or when ``@_command``
registers it as a CLI subcommand. A method's reference must be an
attribute (``.name``), so a local variable of the same spelling keeps no
method alive. The few kept for other readers are listed in PUBLIC_KEPT,
each with its reason.

A name that a module imports at top level must be used in that module:
an import counts as a use above, so a routine kept alive by an import
alone would pass the checks before this one. ``__init__.py``, whose
imports are the package's re-exports, and ``__future__`` imports are left
out.

A group derived from one the library holds (a subgroup, an image or a
kernel) is cut from the parent's packed table, and the full ball group and
the seam groups are closed from generators, making no element list, so
src/ calls ``from_elements`` only where FROM_ELEMENTS_CALLERS says: on an
element list read from outside the library.

Every argument that stands for a group is a group, so no function of src/
takes a group or an element list alike: no ``hasattr(x, "elements")`` test
and no ``x.elements if isinstance(x, ...) else x`` choice, which would open
a second way in for element lists.

A cut of a group's table reads the packs, not the elements: no
``X._of_table(...)`` call reads ``X.elements`` in its arguments. And one
greedy picks every generating set: the functions of src/ that run a
closure step in a loop (a call of a name ending in ``grow``, so
``_grow``, a method that wraps it or a step passed in) are those
GROW_LOOPS lists, and the one greedy among them is `_table_generators`.

documents.py renders tables as text in one routine, which the writer and
the canonical reader share: only it stores a ``.translate(...)`` of a
column into a strided slice (``out[at::size] = column.translate(char)``),
so a reader cannot check a text by a rendering of its own.
"""

import ast
import pathlib
import tokenize

import treeball
from treeball import permcore

SRC = pathlib.Path(treeball.__file__).parent

#: public methods that nothing in src/ calls, and why each stays
PUBLIC_KEPT = {
    # the paper's local action at a vertex, which the tests check the
    # one-step actions and the cocycle sections against
    "BallAut.local_action",
    # the action on words, and the word-to-word table that the benchmark's
    # oracle checks read
    "BallAut.apply",
    "BallAut.to_wordmap",
    # a wreath extension's coding of (point, slot) pairs as points and
    # back, which the tests read its slots by
    "WreathLocal.encode",
    "WreathLocal.decode",
    # argparse calls it: the override sends parse errors to cli.main
    "_Parser.error",
    # public API that only the tests read: a cocycle's value at (element,
    # direction), a tower's level by radius, and a point's orbit, which the
    # permutation-copy census oracle reads
    "CompatCocycle.z",
    "Tower.level",
    "PermGroup.orbit",
}

#: the functions of src/ that run a closure step in a loop, and what each
#: closes
GROW_LOOPS = {
    # the closure of generators, of unknown order
    "permcore._close",
    # the one generating-set greedy: each pack outside the closure of those
    # kept before it is kept
    "permcore._table_generators",
    # a seed's closure on Cayley-table rows, for the lattice's brute walk
    "permcore._Table.close",
    # the closure of the F-orbit of a power subgroup's generators
    "permcore._power_subgroups_generic.invariant_closure",
    # the cocycle search: one closure of lifts, a generator a level, and
    # backtracking where it passes the group order or meets the kernel
    "compat._searched_sections.descend",
}

#: the functions of src/ that may call ``from_elements``, and why each may
FROM_ELEMENTS_CALLERS = {
    # an element list that comes from outside the library
    "documents.group_from_document",
}


def _private_definitions(tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")):
            yield node


def _public_definitions(body, prefix=""):
    """(qualified name, node) of the public functions of a module body and
    the public methods of its classes, nested classes included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _public_definitions(node.body, prefix + node.name + ".")
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            yield prefix + node.name, node


def _registered(node):
    """Is the definition decorated by ``@_command(...)``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_command" for d in node.decorator_list)


def _exported(root):
    """The names in the package's ``__all__``."""
    init = (root / "__init__.py").read_text(encoding="utf-8")
    for node in ast.parse(init).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _name_tokens(path):
    """(name, line, attribute) of every NAME token in a source file, the
    last true when the token follows a ``.``."""
    out, dot = [], False
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                out.append((tok.string, tok.start[0], dot))
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                dot = tok.string == "."
    return out


def _referenced(node, path, tokens):
    """Does a NAME token outside the definition's own lines name it."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return any(name == node.name and not (
        other == path and first <= line <= node.end_lineno)
        for other, toks in tokens.items() for name, line, _ in toks)


def unreferenced_private_definitions(root=SRC):
    files = sorted(root.glob("*.py"))
    tokens = {path: _name_tokens(path) for path in files}
    out = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _private_definitions(tree):
            if not _referenced(node, path, tokens):
                out.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return out


def unreferenced_public_definitions(root=SRC):
    """`module:line Qualified.name` of each public function or method that
    nothing uses, in the sense of the module docstring."""
    files = sorted(root.glob("*.py"))
    # the re-exports of __init__.py are no use; __all__ stands for them
    tokens = {path: _name_tokens(path) for path in files
              if path.name != "__init__.py"}
    attributes = {path: [t for t in toks if t[2]]
                  for path, toks in tokens.items()}
    exported = _exported(root)
    out = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _public_definitions(tree.body):
            if not (name in exported or _registered(node)
                    or _referenced(node, path, attributes if "." in name
                                   else tokens)):
                out.append("%s:%d %s" % (path.name, node.lineno, name))
    return out


def unused_imports(root=SRC):
    """`module:line name` of each name bound by a top-level import that no
    NAME token of its module outside the import statement refers to."""
    out = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tokens = _name_tokens(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if not any(token == name and not (
                        node.lineno <= line <= node.end_lineno)
                        for token, line, _ in tokens):
                    out.append("%s:%d %s" % (path.name, node.lineno, name))
    return out


class _Callers(ast.NodeVisitor):
    """The qualified name of the function around each call of `name`, as
    an attribute or a bare name."""

    def __init__(self, module, name):
        self.scope, self.name, self.found = [module], name, []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "attr", getattr(func, "id", None)) == self.name:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def from_elements_callers(root=SRC):
    """`module.Qualified.name` of the function around each call of
    ``from_elements`` under `root`, one entry a call."""
    out = []
    for path in sorted(root.glob("*.py")):
        callers = _Callers(path.stem, "from_elements")
        callers.visit(ast.parse(path.read_text(encoding="utf-8")))
        out.extend(callers.found)
    return out


def element_list_coercions(root=SRC):
    """`module:line` of each group-or-list coercion under `root`: a
    ``hasattr(x, "elements")`` call, or a conditional expression that
    reads ``.elements`` when an ``isinstance`` test holds."""
    out = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                found = (getattr(node.func, "id", None) == "hasattr"
                         and len(node.args) == 2
                         and getattr(node.args[1], "value", None)
                         == "elements")
            else:
                found = (isinstance(node, ast.IfExp)
                         and getattr(node.body, "attr", None) == "elements"
                         and isinstance(node.test, ast.Call)
                         and getattr(node.test.func, "id", None)
                         == "isinstance")
            if found:
                out.append((path.name, node.lineno))
    return ["%s:%d" % at for at in sorted(out)]


def cut_element_reads(root=SRC):
    """`module:line` of each ``X._of_table(...)`` call under `root` whose
    arguments read ``X.elements``, X the same name or attribute chain."""
    out = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "_of_table"):
                continue
            parent = ast.dump(node.func.value)
            if any(isinstance(sub, ast.Attribute) and sub.attr == "elements"
                   and ast.dump(sub.value) == parent
                   for arg in node.args + node.keywords
                   for sub in ast.walk(arg)):
                out.append((path.name, node.lineno))
    return ["%s:%d" % at for at in sorted(out)]


class _GrowLoops(_Callers):
    """The qualified name of the function around each ``for`` loop whose
    body calls a name ending in `name`, as an attribute or a bare name."""

    def visit_Call(self, node):
        self.generic_visit(node)

    def visit_For(self, node):
        if any(isinstance(sub, ast.Call) and str(getattr(
                sub.func, "attr", getattr(sub.func, "id", None))).endswith(
                    self.name)
               for stmt in node.body for sub in ast.walk(stmt)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def grow_loops(root=SRC):
    """`module.Qualified.name` of the function around each loop of closure
    steps under `root`, once a function."""
    out = []
    for path in sorted(root.glob("*.py")):
        loops = _GrowLoops(path.stem, "grow")
        loops.visit(ast.parse(path.read_text(encoding="utf-8")))
        out.extend(dict.fromkeys(loops.found))
    return out


class _ColumnFills(_Callers):
    """The qualified name of the function around each store of a
    ``.translate(...)`` into a strided slice; no call is counted."""

    def visit_Call(self, node):
        self.generic_visit(node)

    def visit_Assign(self, node):
        if (isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "translate"
                and any(isinstance(t, ast.Subscript)
                        and isinstance(t.slice, ast.Slice)
                        and t.slice.step is not None for t in node.targets)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def column_fills(path):
    """`module.Qualified.name` of the function around each layout column
    fill in the source file `path`, one entry a fill."""
    fills = _ColumnFills(path.stem, None)
    fills.visit(ast.parse(path.read_text(encoding="utf-8")))
    return fills.found


def test_every_private_definition_is_used_in_the_library():
    assert unreferenced_private_definitions() == []


def test_the_guard_sees_an_unused_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return _used()\n\n\n"
        "class _Kept:\n    def _spare(self):\n        return 1\n\n\n"
        "VALUE = _Kept()\n")
    (tmp_path / "b.py").write_text("from a import _used\n")
    assert unreferenced_private_definitions(tmp_path) == ["a.py:6 _spare"]


def test_every_public_definition_is_used_exported_or_kept():
    unused = unreferenced_public_definitions()
    names = {entry.split()[-1] for entry in unused}
    assert names == PUBLIC_KEPT, unused


def test_the_guard_sees_an_unused_public_definition(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import exported, imported_only\n\n"
        "__all__ = [\"exported\"]\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    return exported()\n\n\n"
        "def imported_only():\n    return 1\n\n\n"
        "@_command(\"run\")\ndef run_cmd():\n    return 2\n\n\n"
        "class Shape:\n    def area(self):\n        return 0\n\n"
        "    def spare(self):\n        return self.area()\n\n"
        "    def side(self):\n        return 1\n\n\n"
        "def perimeter(shape):\n    side = 4\n"
        "    return side * shape.area()\n\n\n"
        "SIZE = perimeter(Shape())\n")
    assert unreferenced_public_definitions(tmp_path) == [
        "a.py:5 imported_only", "a.py:18 Shape.spare", "a.py:21 Shape.side"]


def test_every_top_level_import_is_used():
    assert unused_imports() == []


def test_the_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import VALUE\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import sys as system\n"
        "from b import (used,\n"
        "               spare)\n\n"
        "VALUE = used(system.argv)  # spare, os\n")
    assert unused_imports(tmp_path) == ["a.py:3 os", "a.py:5 spare"]


def test_only_the_listed_functions_build_groups_from_element_objects():
    assert set(from_elements_callers()) == FROM_ELEMENTS_CALLERS


def test_the_guard_sees_a_call_of_from_elements(tmp_path):
    (tmp_path / "a.py").write_text(
        "class G:\n    def cut(self):\n"
        "        return G.from_elements([])\n\n\n"
        "def named():\n    return {\"v\": lambda: from_elements(())}\n\n\n"
        "from_elements = G.from_elements\n")
    assert from_elements_callers(tmp_path) == ["a.G.cut", "a.named"]


def test_no_argument_is_a_group_or_an_element_list():
    assert element_list_coercions() == []


def test_the_guard_sees_a_group_or_list_coercion(tmp_path):
    (tmp_path / "a.py").write_text(
        "def one(kernel):\n"
        "    return list(kernel.elements if hasattr(kernel, \"elements\")\n"
        "                else kernel)\n\n\n"
        "def two(center, Group):\n"
        "    return set(center.elements if isinstance(center, Group)\n"
        "               else center)\n\n\n"
        "def fine(group):\n"
        "    return hasattr(group, \"order\") and group.elements\n")
    assert element_list_coercions(tmp_path) == ["a.py:2", "a.py:7"]


def test_no_cut_reads_its_parents_elements():
    assert cut_element_reads() == []


def test_the_guard_sees_a_cut_that_reads_elements(tmp_path):
    (tmp_path / "a.py").write_text(
        "def center(G):\n"
        "    return G._of_table(G._shape(), [t for t, x in zip(\n"
        "        G._table, G.elements) if x])\n\n\n"
        "def lift(self, F):\n"
        "    kept = self.ambient._of_table(\n"
        "        (3, 2), [t for t in self.ambient.elements])\n"
        "    glued = Group._of_table((3, 2), sorted(F.elements))\n"
        "    return kept, glued, self._of_table((3, 2), self._table)\n")
    assert cut_element_reads(tmp_path) == ["a.py:2", "a.py:7"]


def test_one_greedy_picks_every_generating_set():
    assert set(grow_loops()) == GROW_LOOPS
    assert not hasattr(permcore, "_greedy")
    assert not hasattr(permcore._Table, "generators")


def test_the_guard_sees_a_second_greedy(tmp_path):
    (tmp_path / "a.py").write_text(
        "def close(gens):\n"
        "    for g in gens:\n"
        "        _grow([], set(), [], g)\n\n\n"
        "class Table:\n"
        "    def generators(self, members):\n"
        "        gens = []\n"
        "        for x in members:\n"
        "            if len(gens) < 3:\n"
        "                self._grow([], set(), gens, x)\n"
        "        for x in members:\n"
        "            _grow([], set(), gens, x)\n"
        "        return gens\n\n\n"
        "def once(x):\n"
        "    return _grow([], set(), [], x)\n\n\n"
        "def _greedy(candidates, grow):\n"
        "    kept = []\n"
        "    for x in candidates:\n"
        "        grow(kept, x)\n"
        "    return [x for x in kept if x.grown]\n")
    assert grow_loops(tmp_path) == ["a.close", "a.Table.generators",
                                    "a._greedy"]


def test_one_routine_renders_the_tables_for_the_writer_and_the_reader():
    path = SRC / "documents.py"
    assert column_fills(path) == ["documents._rendered"]
    callers = _Callers("documents", "_rendered")
    callers.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(callers.found) == ["documents._read_canonical",
                                     "documents._serialized"]


def test_the_guard_sees_a_second_column_fill(tmp_path):
    (tmp_path / "a.py").write_text(
        "def write(out, images, size, n, chars):\n"
        "    for at in range(n):\n"
        "        out[at::size] = images[at::n].translate(chars)\n\n\n"
        "def read(data, size, n, chars):\n"
        "    packed, out = bytearray(n), bytearray(data)\n"
        "    packed[0::n] = data[0::size]\n"
        "    out[0:size] = data[0:size].translate(chars)\n"
        "    out[1::size] = data[1::size].translate(chars)\n"
        "    return packed, out\n")
    assert column_fills(tmp_path / "a.py") == ["a.write", "a.read"]
