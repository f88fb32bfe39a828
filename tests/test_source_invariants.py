"""Source rules for the engine, checked on its syntax trees: no ``assert``
(``python -O`` strips it, so invariants are explicit raises), no floating
point (no float literal, no ``float`` name and no true division ``/``,
which turns two ints into a float; exact quotients are ``Fraction(p, q)``
or ``//``) and no environment reads (every bound is a constant, not a
knob).  Only ``rootsys``, ``linalg`` and ``cli`` import ``fractions``, so the
certificate, integral-system, orbit and induction layers keep to integers.
The experiment scripts in
``scripts/`` check their conclusions, so they follow the ``assert`` rule too."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitcert").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
FRACTION_MODULES = {"cli.py", "linalg.py", "rootsys.py"}


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
    assert {path.name for path in SOURCES} >= {"certify.py", "cli.py", "integral.py",
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
