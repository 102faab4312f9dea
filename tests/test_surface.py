"""The library holds no code that only tests reach.

Every module-level ``def`` and ``class`` in ``src/qtdelta`` is either
exported from ``qtdelta.__all__`` or named by some other top-level statement
of the package (a call, an attribute access or an import); a ``_private``
helper must be named by another top-level statement.  A helper that only
the tests call, or that nothing calls any more, fails here: delete it, or
export and document it.
"""

import ast
import pathlib

import qtdelta

SRC = pathlib.Path(qtdelta.__file__).parent


def _sources():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreached(sources, exported):
    # one entry per top-level statement: (module, statement, names it uses)
    statements = [(module, top, set(_names(top)))
                  for module, text in sources.items()
                  for top in ast.parse(text).body]
    out = []
    for module, top, _ in statements:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            continue
        name = top.name
        if name in exported:
            continue
        if not any(name in used for _, other, used in statements
                   if other is not top):
            out.append(f"{module}.{name}")
    return out


def test_every_public_definition_is_exported_or_used():
    sources = _sources()
    assert {"cli", "delta", "lattice", "polyhedral", "symplectic"} \
        <= set(sources)
    assert _unreached(sources, set(qtdelta.__all__)) == []


def test_guard_flags_a_definition_only_tests_call():
    planted = ("def orphan():\n    pass\n\n\n"
               "def helper():\n    pass\n\n\n"
               "class Exported:\n    pass\n\n\n"
               "def recursive(k):\n    return recursive(k - 1)\n\n\n"
               "def _orphan():\n    pass\n\n\n"
               "def _helper():\n    pass\n\n\n"
               "class _Private:\n    pass\n\n\n"
               "VALUE = helper() + _helper()\n")
    sources = dict(_sources(), planted=planted)
    assert _unreached(sources, set(qtdelta.__all__) | {"Exported"}) \
        == ["planted.orphan", "planted.recursive", "planted._orphan",
            "planted._Private"]
