"""No dead code: every private function, method and class in the library
is used by the library.

A private (``_name``) definition under src/treeball/ that nothing in src/
refers to, outside its own body, serves only the tests or nothing; test
helpers belong in tests/. References are NAME tokens, so attribute uses
(``self._grow``) count, and so does a definition's use in its own module.
"""

import ast
import pathlib
import tokenize

import treeball

SRC = pathlib.Path(treeball.__file__).parent


def _private_definitions(tree):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")):
            yield node


def _name_tokens(path):
    """(name, line) of every NAME token in a source file."""
    with tokenize.open(path) as fh:
        return [(tok.string, tok.start[0])
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME]


def unreferenced_private_definitions(root=SRC):
    files = sorted(root.glob("*.py"))
    tokens = {path: _name_tokens(path) for path in files}
    out = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _private_definitions(tree):
            first = min([node.lineno] + [d.lineno for d in
                                         node.decorator_list])
            used = any(name == node.name and not (
                other == path and first <= line <= node.end_lineno)
                for other, toks in tokens.items() for name, line in toks)
            if not used:
                out.append("%s:%d %s" % (path.name, node.lineno, node.name))
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
