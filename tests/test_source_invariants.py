"""Source rules for the engine, checked on its syntax trees: no ``assert``
(``python -O`` strips it, so invariants are explicit raises), no floating
point (no float literal, no ``float`` name and no true division ``/``,
which turns two ints into a float; exact quotients are ``Fraction(p, q)``
or ``//``) and no environment reads (every bound is a constant, not a
knob).  Only ``rootsys`` imports ``fractions``, for the ``Weight`` I/O
boundary, so the command line, the linear algebra and the certificate,
integral-system, orbit and induction layers keep to integers.
The experiment scripts in
``scripts/`` check their conclusions, so they follow the ``assert`` rule too.

Every function, class and method in ``src/`` is reached from outside the
tests (``unreached``): a name nothing but the tests reads is code kept for
the tests alone, and the tests' references hold their own copies.  A public
name is no exception: the package's export table names every public name,
so it is not a use, and a public name only the tests reach needs a reason
in ``UNREACHED_ALLOWED``."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitcert").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
FRACTION_MODULES = {"rootsys.py"}


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Assert):
            found.append(f"{line}: assert")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{line}: true division")
        elif isinstance(node, ast.Name) and (node.id == "float" or node.id in ENVIRONMENT):
            found.append(f"{line}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append(f"{line}: attribute {node.attr}")
        elif isinstance(node, ast.alias) and node.name in ENVIRONMENT:
            found.append(f"{line}: import {node.name}")
    return found


def fraction_imports(tree: ast.AST) -> list[str]:
    return [f"{node.lineno}: import fractions" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "fractions"
            or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)]


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"certify.py", "cli.py", "integral.py", "linalg.py",
                                               "lsinduce.py", "orbits.py"} | FRACTION_MODULES
    assert {path.name for path in SCRIPTS} >= {"congruence_sweep.py", "oracle_audit.py",
                                               "reproduce_e8.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_float_or_environment(path):
    assert violations(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_scripts_check_without_assert(path):
    assert [v for v in violations(ast.parse(path.read_text(), filename=str(path)))
            if v.endswith(": assert")] == []


@pytest.mark.parametrize("source", [
    "assert x", "y = 0.5", "y = 1j", "z = float(w)", "y = a / b", "y /= b",
    "import os\nn = os.environ['N']",
    "import os\nn = os.getenv('N')", "from os import environ", "from os import getenv as g",
])
def test_scanner_flags_each_rule(source):
    assert violations(ast.parse(source))


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name not in FRACTION_MODULES],
                         ids=lambda path: path.name)
def test_integer_layers_import_no_fractions(path):
    assert fraction_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("source", [
    "import fractions", "import math, fractions as fr", "from fractions import Fraction",
])
def test_scanner_flags_fraction_imports(source):
    assert fraction_imports(ast.parse(source))


# The public names kept although only the tests call them, each with its use.
UNREACHED_ALLOWED = {
    "integral.prop67_dim": "Prop. 6.7, the parametric dim VA formula: every report whose (B) "
                           "is undecided tells the user to call it",
    "orbits.bv_candidate": "the Barbasch-Vogan candidate weight h_dual - rho, kept for the "
                           "derivation of the duality table (ROADMAP.md, item 3)",
    "orbits.rigid_table_json": "acceptance criterion 8 (test_criterion_8_data_fidelity): the "
                               "embedded rigid table exports byte-identically as JSON",
    "orbits.duality_table_json": "acceptance criterion 8 (test_criterion_8_data_fidelity): the "
                                 "embedded duality table exports byte-identically as JSON",
}


def referenced_names(tree: ast.AST, strings: bool = True) -> Counter:
    """How often each identifier is named in a tree: as a ``Name``, an
    ``Attribute``, the last part of an import, or, with ``strings``, a
    string constant that is an identifier (perfbench lists the functions it
    traces as strings)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names[node.value] += 1
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(qualified name, node) for each top-level function and class and each
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, FUNCTIONS):
                        yield f"{node.name}.{member.name}", member


def unreached(sources: dict[str, ast.Module], outside: list[ast.AST]) -> list[str]:
    """The definitions in ``sources`` (module name -> tree) that nothing names
    outside their own body: not the sources and not the ``outside`` trees
    (the scripts and perfbench).  The strings of the package's ``__init__``
    do not count: its export table names every public name as a string.
    Dunders are left out, since Python calls them.  The match is by name
    alone, so a dead function that shares its name with a live one passes:
    this can miss dead code, but never flags live code."""
    named = Counter()
    for module, tree in sources.items():
        named += referenced_names(tree, strings=module != "__init__")
    for tree in outside:
        named += referenced_names(tree)
    return [f"{module}.{name}" for module, tree in sources.items()
            for name, node in definitions(tree)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and named[node.name] <= referenced_names(node)[node.name]]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_is_reached_outside_the_tests():
    found = unreached({path.stem: _parse(path) for path in SOURCES},
                      [_parse(path) for path in SCRIPTS + PERFBENCH])
    assert sorted(set(found) - set(UNREACHED_ALLOWED)) == []
    assert set(UNREACHED_ALLOWED) <= set(found)  # an exception no longer needed is dropped
    assert all(reason.strip() for reason in UNREACHED_ALLOWED.values())


def test_reachability_scanner_flags_unreferenced_code():
    source = ast.parse(
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def orphan(): return orphan()\n"  # naming itself does not count
        "def exported(): pass\n"
        "def traced(): pass\n"
        "class Model:\n"
        "    def live(self): return self.dead_too\n"
        "    def dead(self): return 0\n"
        "    def dead_too(self): return 0\n"
        "    def __eq__(self, other): return True\n")
    script = ast.parse("import m\nm.used()\nm.Model().live()\nm.exported()\n"
                       "TRACED = ('traced',)\n")
    assert unreached({"m": source}, [script]) == ["m.orphan", "m.Model.dead"]
    assert unreached({"m": source}, []) == [
        "m.used", "m.orphan", "m.exported", "m.traced", "m.Model", "m.Model.live",
        "m.Model.dead"]
    # a name the package exports, named only as a string in its export table
    package = ast.parse("_EXPORTS = {'m': ('used', 'exported', 'orphan')}\n"
                        "__all__ = sorted(name for names in _EXPORTS.values() for name in names)\n")
    assert unreached({"__init__": package, "m": source}, [script]) == [
        "m.orphan", "m.Model.dead"]
