"""The library holds no code that only tests reach.

Every module-level ``def`` and ``class`` in ``src/qtdelta`` is either
exported from ``qtdelta.__all__`` or named by some other top-level statement
of the package (a call, an attribute access or an import); a ``_private``
helper must be named by another top-level statement.  A helper that only
the tests call, or that nothing calls any more, fails here: delete it, or
export and document it.

Every name a module other than ``__init__`` imports is also used in that
module, so a refactor that moves a call leaves no stale import behind.

Each exported name is declared once, in the layer that defines it: the
``__all__`` of each of the six layers lists only that layer's own top-level
``def`` and ``class`` names, so a star import re-exports no imported name;
no name is listed by two layers; and ``qtdelta.__all__`` is their union,
sorted, with ``__init__`` spelling out none of the names.

An exact value keeps its type, so no call converts one to a Fraction:
``Fraction(...)`` takes two arguments, a division, everywhere except in
``jsonio.rational_from_json``, which parses a "p/q" string.

Input is validated at the boundary: the private ``_trusted`` constructor,
which checks nothing, is called only from ``torus``, ``delta``,
``lattice`` and ``polyhedral``, where the library hands over data it has
just built.  There is one of them, ``_record.Record._trusted``, so no
per-class copy grows back.

Every value type is a record: each exported class that defines
``__hash__`` derives from ``_record.Record``, so it is immutable and takes
its equality from its fields.  ``polyhedral.Cone`` is the one exception:
it compares by its point set, not by its fields, and is frozen on its own
slots.

There is one alternating-form type, ``symplectic.AlternatingMapQ``.
``torus.AlternatingFormZ`` is a second name for it, bound once in ``torus``
(``perfbench/spans.py`` looks it up) and listed in no ``__all__``, so it can
be deleted but not grow back into a subtype.  ``congruence`` restricts a
form in ``AlternatingMapQ.restrict``, ``symplectic._block_pairings`` and
``CocycleForm.restrict`` only.

No ``assert`` statement checks anything in ``src/qtdelta``: ``python -O``
strips them, so every internal check raises ``AssertionError`` itself.

JSON is written in one place: ``jsonio.to_json`` writes every CLI result,
so ``to_json`` is defined only there and in ``symplectic.AmpleReport``
(whose probes the recorded check-ample output pins), and only ``jsonio``
names ``rational_to_json``.

sympy, whose import costs more than the rest of a cold CLI run, is imported
in one place only, inside the function ``symplectic._integer_roots``, so
commands that find no pencil spectrum never load it.  That function reaches
the dense factorizer ``dup_factor_list`` as an attribute of the one
``import sympy``, and factors the checked square root of the pencil's
charpoly, at half its degree.  No module imports
``dataclasses``, which loads ``inspect`` and ``ast`` and ``exec``s the
methods of each class: the records derive from ``_record.Record``.
``hashlib`` is imported inside ``rng.derive``, so a command that draws no
random stream does not load OpenSSL.

A cone keeps one H-representation, the raw rows it was cut out by: its
canonical equalities and facets take a second double description, so
``canonical_hrep`` is named in ``src`` only by its ``def`` in
``polyhedral.Cone`` and by ``jsonio.cone_to_json``, which writes it.

There is one rational elimination, ``lattice.rref``, which returns primitive
integer rows: no other function in ``src/qtdelta`` has a name starting with
``rref``, and its retired name, ``rref`` with the suffix ``_int``, occurs
nowhere in ``src`` or ``tests``.

``tests/json_oracle.py``, which checks CLI answers from their JSON alone,
imports the standard library only, so it shares no code with ``qtdelta``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import qtdelta
from qtdelta._record import Record

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


def _unused_imports(sources):
    out = []
    for module, text in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    # "import a.b" binds "a"
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        out.append(f"{module}.{name}")
    return out


def test_every_import_is_used():
    assert _unused_imports(_sources()) == []


def test_guard_flags_an_unused_import():
    planted = ("from __future__ import annotations\n\n"
               "import json as js\n"
               "import os.path\n"
               "from fractions import Fraction\n"
               "from .lattice import hnf, solve_left\n\n\n"
               "def f(x: Fraction):\n"
               "    import re\n"
               "    return hnf(js.dumps(x))\n")
    sources = {"__init__": "import os\n", "planted": planted}
    assert _unused_imports(sources) \
        == ["planted.os", "planted.solve_left", "planted.re"]


LAYERS = ("lattice", "polyhedral", "symplectic", "torus", "delta", "groups")


def _exports(sources):
    """``(declared, faults)``: the literal ``__all__`` list of each module
    that has one, and as "module.name" each listed name the module does not
    define by a top-level ``def`` or ``class``, and each name listed again
    by a later module."""
    declared, faults, owner = {}, [], {}
    for module, text in sources.items():
        tree = ast.parse(text)
        defined = {top.name for top in tree.body
                   if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))}
        for top in tree.body:
            if isinstance(top, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in top.targets):
                declared[module] = ast.literal_eval(top.value)
        for name in declared.get(module, ()):
            if name not in defined:
                faults.append(f"{module}.{name}")
            if name in owner:
                faults.append(f"{owner[name]}.{name} again in {module}")
            owner.setdefault(name, module)
    return declared, faults


def test_each_export_declared_once_where_defined():
    sources = _sources()
    init = ast.parse(sources.pop("__init__"))
    declared, faults = _exports(sources)
    assert faults == []
    assert sorted(declared) == sorted(LAYERS)
    assert qtdelta.__all__ == sorted(name for names in declared.values()
                                     for name in names)
    spelled = set(_names(init)) | {node.value for node in ast.walk(init)
                                   if isinstance(node, ast.Constant)}
    assert not spelled & set(qtdelta.__all__)


def test_guard_flags_a_reexport_and_a_duplicate():
    first = ("from .lattice import Subspace\n\n"
             "__all__ = [\"Cone\", \"Subspace\", \"shared\"]\n\n\n"
             "class Cone:\n    pass\n\n\n"
             "def shared():\n    pass\n")
    second = ("from .first import *\n\n"
              "__all__ = [\"shared\", \"later\"]\n\n\n"
              "def shared():\n    pass\n\n\n"
              "later = shared\n")
    declared, faults = _exports({"first": first, "second": second,
                                 "plain": "X = 1\n"})
    assert declared == {"first": ["Cone", "Subspace", "shared"],
                        "second": ["shared", "later"]}
    assert faults == ["first.Subspace", "first.shared again in second",
                      "second.later"]


def _located(sources, matches,
             scopes=(ast.FunctionDef, ast.AsyncFunctionDef)):
    """"module.scope" ("module.<module>" outside any scope) of every node
    for which ``matches(node, module, scope)`` holds, the scope being the
    innermost function (or other node of type ``scopes``) around it."""
    out = []

    def visit(node, module, where):
        if matches(node, module, where):
            out.append(f"{module}.{where}")
        if isinstance(node, scopes):
            where = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, text in sources.items():
        visit(ast.parse(text), module, "<module>")
    return out


def _fraction_conversions(sources):
    """Where ``Fraction(...)`` is called with other than two arguments."""
    return _located(sources, lambda node, module, where: (
        isinstance(node, ast.Call)
        and getattr(node.func, "id",
                    getattr(node.func, "attr", None)) == "Fraction"
        and len(node.args) + len(node.keywords) != 2))


def test_fraction_only_where_a_division_happens():
    assert _fraction_conversions(_sources()) == []


def test_guard_flags_a_fraction_conversion():
    planted = ("import fractions\n"
               "from fractions import Fraction\n\n\n"
               "def rational_from_json(value):\n"
               "    return Fraction(value)\n\n\n"
               "def half(x):\n"
               "    return Fraction(x, 2) + Fraction(x, denominator=3)\n\n\n"
               "def widen(x):\n"
               "    return [Fraction(y) for y in x]\n\n\n"
               "class Box:\n"
               "    def one(self):\n"
               "        return fractions.Fraction(1)\n\n\n"
               "ZERO = Fraction()\n")
    jsonio = ("from fractions import Fraction\n\n\n"
              "def rational_from_json(value):\n"
              "    return Fraction(value)\n\n\n"
              "def rational_to_json(x):\n"
              "    return Fraction(x)\n")
    assert _fraction_conversions({"jsonio": jsonio, "planted": planted}) \
        == ["jsonio.rational_from_json", "jsonio.rational_to_json",
            "planted.rational_from_json",
            "planted.widen", "planted.one", "planted.<module>"]


def _trusted_callers(sources):
    """Modules that call a ``_trusted`` constructor, in source order."""
    out = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None))
                    == "_trusted"):
                out.append(module)
    return out


def test_trusted_constructors_stay_inside():
    # input is validated at the boundary: the readers and front ends
    # (jsonio, cli) and the layers whose records canonicalise in their
    # constructors (groups, symplectic) go through the validating ones;
    # polyhedral's Fan.irredundant skips the Fan constructor's prune
    callers = set(_trusted_callers(_sources()))
    assert callers == {"torus", "delta", "lattice", "polyhedral"}


def _trusted_definitions(sources):
    """"module.Class" ("module.<module>" outside a class) of every ``def``
    of, or assignment to, a name ``_trusted``."""
    return _located(sources, lambda node, module, where: (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "_trusted"
        or isinstance(node, ast.Name) and node.id == "_trusted"
        and isinstance(node.ctx, ast.Store)), CLASS_SCOPES)


def test_trusted_defined_on_records_only():
    assert _trusted_definitions(_sources()) == ["_record.Record"]


def test_guard_flags_a_trusted_call_at_the_boundary():
    planted = ("from . import torus\n\n\n"
               "def element_from_json(d):\n"
               "    return torus.QTorusElement._trusted(1, 0, d)\n\n\n"
               "def trusted_name(d):\n"
               "    return _trusted(d)\n\n\n"
               "def fine(d):\n"
               "    return torus.QTorusElement(1, 0, d), d._trusted\n")
    sources = {"torus": "X = QTorusElement._trusted(1, 0, {})\n",
               "jsonio": planted, "cli": "Y = CocycleForm._trusted(1, ())\n"}
    assert _trusted_callers(sources) == ["torus", "jsonio", "jsonio", "cli"]


def test_guard_flags_a_second_trusted_definition():
    record = ("class Record:\n"
              "    @classmethod\n"
              "    def _trusted(cls, *values):\n"
              "        return cls\n")
    planted = ("class CocycleForm(Record):\n"
               "    @classmethod\n"
               "    def _trusted(cls, rank, forms):\n"
               "        return cls\n\n\n"
               "class Cone(Record):\n"
               "    _trusted = classmethod(lambda cls: cls)\n\n"
               "    def restrict(self):\n"
               "        return self._trusted()\n\n\n"
               "def _trusted(*values):\n"
               "    return values\n")
    assert _trusted_definitions({"_record": record, "planted": planted}) \
        == ["_record.Record", "planted.CocycleForm", "planted.Cone",
            "planted.<module>"]


def _hashed_outside_records(namespace):
    """The names of the classes in ``namespace`` that define ``__hash__``
    (as ``None`` too, which defining ``__eq__`` alone does) but do not
    derive from ``Record``."""
    return [name for name, value in namespace.items()
            if isinstance(value, type) and "__hash__" in vars(value)
            and not issubclass(value, Record)]


def test_value_types_are_records():
    # Cone stays a slotted class: it compares by its point set, the
    # canonical (rays, lineality) key, not by its fields; it is frozen on
    # its own (tests/test_delta.py::TestRecords)
    exported = {name: getattr(qtdelta, name) for name in qtdelta.__all__}
    assert _hashed_outside_records(exported) == ["Cone"]


def test_guard_flags_a_value_class_outside_records():
    class Slotted:
        __slots__ = ("x",)

        def __init__(self, x):
            self.x = x

        def __eq__(self, other):
            return isinstance(other, Slotted) and self.x == other.x

        def __hash__(self):
            return hash(self.x)

    class Unhashable:
        def __eq__(self, other):
            return self is other

    class Kept(Record):
        x: int

        def __hash__(self):
            return hash(self.x)

    class Plain:
        pass

    namespace = {"Slotted": Slotted, "Unhashable": Unhashable, "Kept": Kept,
                 "Plain": Plain, "value": Slotted(1), "hash": hash}
    assert _hashed_outside_records(namespace) == ["Slotted", "Unhashable"]


def _uses(sources, name, scopes=(ast.FunctionDef, ast.AsyncFunctionDef)):
    """Where ``name`` is used: read, assigned, imported, an attribute, or
    defined by a ``def`` or ``class``."""
    return _located(sources, lambda node, module, where: name in (
        getattr(node, "id", None), getattr(node, "attr", None),
        getattr(node, "name", None)), scopes)


def test_one_alternating_form_type():
    from qtdelta import symplectic, torus

    assert torus.AlternatingFormZ is symplectic.AlternatingMapQ
    sources = _sources()
    declared, _ = _exports({module: text for module, text in sources.items()
                            if module != "__init__"})
    assert all("AlternatingFormZ" not in names
               for names in [qtdelta.__all__, *declared.values()])
    assert _uses(sources, "AlternatingFormZ") == ["torus.<module>"]
    assert _uses(sources, "congruence") == [
        "lattice.<module>", "symplectic.<module>", "symplectic.restrict",
        "symplectic._block_pairings", "torus.<module>", "torus.restrict"]


def test_guard_flags_a_second_form_type():
    planted = ("from .symplectic import AlternatingMapQ\n"
               "from . import torus\n\n\n"
               "class AlternatingFormZ(AlternatingMapQ):\n"
               "    def restrict(self, lattice):\n"
               "        return AlternatingFormZ(self.n, self.forms)\n\n\n"
               "def read(data):\n"
               "    return torus.AlternatingFormZ(2, data)\n")
    binding = "AlternatingFormZ = AlternatingMapQ\n"
    assert _uses({"torus": binding, "planted": planted},
                 "AlternatingFormZ") \
        == ["torus.<module>", "planted.<module>", "planted.restrict",
            "planted.read"]


CLASS_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_canonical_hrep_only_where_a_cone_is_written():
    assert _uses(_sources(), "canonical_hrep", CLASS_SCOPES) \
        == ["jsonio.cone_to_json", "polyhedral.Cone"]


def test_guard_flags_a_second_canonical_hrep_reader():
    polyhedral = ("class Cone:\n"
                  "    def canonical_hrep(self):\n"
                  "        return (), ()\n\n"
                  "    equalities = property(lambda c: c.canonical_hrep()[0])"
                  "\n\n"
                  "    def member(self, point):\n"
                  "        return self.canonical_hrep()\n\n\n"
                  "def _uncovered(fan, other):\n"
                  "    return [c.canonical_hrep() for c in other.cones]\n")
    jsonio = ("def cone_to_json(cone):\n"
              "    return cone.canonical_hrep()\n\n\n"
              "HREP = Cone.canonical_hrep\n")
    assert _uses({"jsonio": jsonio, "polyhedral": polyhedral},
                 "canonical_hrep", CLASS_SCOPES) \
        == ["jsonio.cone_to_json", "jsonio.<module>", "polyhedral.Cone",
            "polyhedral.Cone", "polyhedral.member", "polyhedral._uncovered"]


def _eliminations(sources):
    """"module.name" of every function whose name starts with ``rref``."""
    return [f"{module}.{node.name}" for module, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("rref")]


# spelled apart, so that this file does not hold the retired name
RETIRED_RREF = "rref" + "_int"


def _mentions(texts, name):
    """The keys of the texts in which ``name`` occurs."""
    return [key for key, text in texts.items() if name in text]


def test_one_rational_elimination():
    assert _eliminations(_sources()) == ["lattice.rref"]
    tests = pathlib.Path(__file__).parent
    texts = {str(path.relative_to(tests.parent)): path.read_text(
        encoding="utf-8") for path in [*SRC.glob("*.py"), *tests.glob("*.py")]}
    assert "tests/test_surface.py" in texts
    assert _mentions(texts, RETIRED_RREF) == []


def test_guard_flags_a_second_elimination():
    planted = ("from .lattice import rref\n\n\n"
               "def rref_fraction(matrix):\n"
               "    return rref(matrix)\n\n\n"
               "class Kernel:\n"
               "    def rrefs(self, m):\n"
               "        def rref_exact(r):\n"
               "            return r\n"
               "        return rref_exact(m)\n\n\n"
               "def fraction_rref(matrix):\n"
               "    return rref(matrix)\n")
    lattice = f"def rref(m):\n    return {RETIRED_RREF}(m)\n"
    assert _eliminations({"lattice": lattice, "planted": planted}) \
        == ["lattice.rref", "planted.rref_fraction", "planted.rrefs",
            "planted.rref_exact"]
    assert _mentions({"lattice": lattice, "planted": planted},
                     RETIRED_RREF) == ["lattice"]


def _imports_of(sources, package):
    """Where a statement imports ``package`` or one of its submodules."""
    def is_package(name):
        return name is not None and name.split(".")[0] == package

    return _located(sources, lambda node, module, where: (
        isinstance(node, ast.Import)
        and any(is_package(alias.name) for alias in node.names)
        or isinstance(node, ast.ImportFrom) and is_package(node.module)))


def test_sympy_imported_once_inside_a_function():
    assert _imports_of(_sources(), "sympy") == ["symplectic._integer_roots"]


def test_guard_flags_a_sympy_import():
    planted = ("import sympy\n"
               "from sympy.polys import factor_list\n"
               "import sympyish\n\n\n"
               "def roots(p):\n"
               "    import sympy as sp\n"
               "    from sympy import Poly\n"
               "    return sp, Poly, factor_list, p\n\n\n"
               "class Box:\n"
               "    from sympy import ZZ\n")
    assert _imports_of({"planted": planted}, "sympy") \
        == ["planted.<module>", "planted.<module>", "planted.roots",
            "planted.roots", "planted.<module>"]


def test_no_module_imports_dataclasses():
    assert _imports_of(_sources(), "dataclasses") == []


def test_guard_flags_a_dataclasses_import():
    planted = ("from dataclasses import dataclass\n"
               "import dataclasses as dc, json\n"
               "import dataclassesque\n\n\n"
               "def fields_of(x):\n"
               "    from dataclasses import fields\n"
               "    return fields(x), dc, dataclass\n")
    assert _imports_of({"planted": planted}, "dataclasses") \
        == ["planted.<module>", "planted.<module>", "planted.fields_of"]


def _assert_statements(sources):
    """Where an ``assert`` statement stands."""
    return _located(sources, lambda node, module, where:
                    isinstance(node, ast.Assert))


def test_no_assert_statement():
    assert _assert_statements(_sources()) == []


def test_guard_flags_an_assert_statement():
    planted = ("assert True\n\n\n"
               "def checked(x):\n"
               "    if x < 0:\n"
               "        raise AssertionError(\"negative\")\n"
               "    assert x, \"zero\"\n"
               "    return x\n\n\n"
               "class Box:\n"
               "    def open(self):\n"
               "        assert self\n"
               "        return AssertionError\n")
    assert _assert_statements({"planted": planted}) \
        == ["planted.<module>", "planted.checked", "planted.open"]


def _json_writers(sources):
    """Where ``to_json`` is defined, by the function or class around it, and
    where ``rational_to_json`` is named (called, passed on, imported or
    defined) outside ``jsonio``."""
    return _located(sources, lambda node, module, where: (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "to_json"
        or module != "jsonio"
        and "rational_to_json" in (getattr(node, "id", None),
                                   getattr(node, "attr", None),
                                   getattr(node, "name", None))),
        scopes=CLASS_SCOPES)


def test_one_json_writer():
    assert _json_writers(_sources()) \
        == ["jsonio.<module>", "symplectic.AmpleReport"]


def test_guard_flags_a_second_json_writer():
    planted = ("from . import jsonio\n"
               "from .jsonio import rational_to_json\n\n\n"
               "class Report:\n"
               "    ok: bool\n\n"
               "    def to_json(self):\n"
               "        return {\"ok\": self.ok}\n\n\n"
               "def vector(v):\n"
               "    def to_json(x):\n"
               "        return jsonio.rational_to_json(x)\n"
               "    return list(map(rational_to_json, v))\n")
    jsonio = ("def rational_to_json(x):\n"
              "    return x\n\n\n"
              "def to_json(value):\n"
              "    return rational_to_json(value)\n")
    assert _json_writers({"jsonio": jsonio, "planted": planted}) \
        == ["jsonio.<module>", "planted.<module>", "planted.Report",
            "planted.vector", "planted.to_json", "planted.vector"]


# delta, then lc on the delta command's output, in one fresh interpreter;
# a symbase run afterwards, which draws and finds a pencil spectrum, shows
# that the probe does see sympy and hashlib when loaded
_COLD_COMMANDS = """
import json, sys
from qtdelta.cli import main
tropical, two_block, work = json.loads(sys.argv[1])
def run(command, payload):
    with open(work + "/in.json", "w") as f:
        json.dump(payload, f)
    code = main([command, "--input", work + "/in.json",
                 "--output", work + "/out.json"])
    with open(work + "/out.json") as f:
        return code, json.load(f)
def loaded():
    return [name for name in ("sympy", "dataclasses", "inspect", "hashlib")
            if name in sys.modules]
code, fan = run("delta", tropical)
codes = [code, run("lc", {"fan": fan, "point": [0, 1]})[0]]
before = loaded()
codes.append(run("symbase", two_block)[0])
print(json.dumps([codes, before, loaded()]))
"""


def _outside_stdlib_imports(sources):
    """Where a statement imports a module outside the standard library, a
    relative import included."""
    def outside(name):
        return (name is None
                or name.split(".")[0] not in sys.stdlib_module_names)

    return _located(sources, lambda node, module, where: (
        isinstance(node, ast.Import)
        and any(outside(alias.name) for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.level > 0 or outside(node.module))))


def test_json_oracle_imports_the_stdlib_only():
    # the JSON-only oracle shares no code path with what it checks
    path = pathlib.Path(__file__).with_name("json_oracle.py")
    assert _outside_stdlib_imports(
        {"json_oracle": path.read_text(encoding="utf-8")}) == []


def test_guard_flags_an_import_outside_the_stdlib():
    planted = ("import itertools\n"
               "from fractions import Fraction\n"
               "import qtdelta.torus\n"
               "from qtdelta import delta\n"
               "from . import oracles\n\n\n"
               "def check(payload):\n"
               "    from qtdelta.jsonio import to_json\n"
               "    import json, sympy\n"
               "    return to_json, json, sympy, Fraction, itertools\n")
    assert _outside_stdlib_imports({"planted": planted}) \
        == ["planted.<module>", "planted.<module>", "planted.<module>",
            "planted.check", "planted.check"]


def test_delta_and_lc_never_load_sympy(tmp_path):
    from test_cli import TROPICAL, TWO_BLOCK

    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_COMMANDS,
         json.dumps([TROPICAL, TWO_BLOCK, str(tmp_path)])],
        capture_output=True, text=True, env=env, check=True)
    codes, before, after = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert before == []
    assert {"sympy", "hashlib"} <= set(after)
