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
registers it as a CLI subcommand. The few kept for other readers are
listed in PUBLIC_KEPT, each with its reason.
"""

import ast
import pathlib
import tokenize

import treeball

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
    """(name, line) of every NAME token in a source file."""
    with tokenize.open(path) as fh:
        return [(tok.string, tok.start[0])
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME]


def _referenced(node, path, tokens):
    """Does a NAME token outside the definition's own lines name it."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return any(name == node.name and not (
        other == path and first <= line <= node.end_lineno)
        for other, toks in tokens.items() for name, line in toks)


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
    exported = _exported(root)
    out = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _public_definitions(tree.body):
            if not (name in exported or _registered(node)
                    or _referenced(node, path, tokens)):
                out.append("%s:%d %s" % (path.name, node.lineno, name))
    return out


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
        "    def spare(self):\n        return self.area()\n")
    assert unreferenced_public_definitions(tmp_path) == [
        "a.py:5 imported_only", "a.py:18 Shape.spare"]
