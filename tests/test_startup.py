"""What a cold start loads.  ``import orbitcert`` loads no submodule: its
public names are imported from their home modules on first access (PEP 562).
Each CLI command, run in a fresh interpreter, loads only the engine it
runs: the root-system commands (certify, delta-prime, integral, info,
pairing) load no ``orbits``, ``lsinduce``, ``random`` or ``csv``, and the partition
commands (rigid, induce, dimz, oracle, tables) load no ``rootsys``,
``certify``, ``integral``, ``fractions`` or ``decimal``.  A module counts as
loaded by the command when it was not already loaded when the interpreter
started, so a module that the host's site set-up imports is not charged to
the program."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcert
from orbitcert import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
# prints the modules the statement loaded, as the last line of stdout
PROBE = """import sys
before = set(sys.modules)
{statement}
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)"""
RUN_COMMAND = "from orbitcert.cli import main\ncode = main(sys.argv[1:])"

ROOT_SYSTEM_FREE = {"orbitcert.rootsys", "orbitcert.certify", "orbitcert.integral",
                    "fractions", "decimal"}
PARTITION_FREE = {"orbitcert.orbits", "orbitcert.lsinduce", "random", "csv"}
E8_H = "5,3,1,-1,-3,-5,1,-1,0"
E8_LAMBDA_PRIME = "1,7/6,1/3,1/2,2/3,5/6,1/6,-1/6,-9/2"
DESCRIPTOR = '{"gl_blocks":[{"k":3,"d":[2,1]}]}'
# case -> (argv, exit code, modules it must not load)
COMMANDS = {
    "certify": (["certify", "--type", "E8", "--levi", "a1,a2,a3,a4,a5,a7",
                 "--lambda-prime", E8_LAMBDA_PRIME, "--principal"], 0, PARTITION_FREE),
    "delta-prime": (["delta-prime", "--type", "E8", "--h", E8_H], 0, PARTITION_FREE),
    "integral": (["integral", "--type", "E8", "--lambda-prime", E8_LAMBDA_PRIME], 0,
                 PARTITION_FREE),
    "info": (["info", "--type", "G2"], 0, PARTITION_FREE),
    "pairing": (["pairing", "--type", "A2", "--lambda", "1,0,-1", "--root", "1,-1,0"], 0,
                PARTITION_FREE),
    "rigid": (["rigid", "--type", "sp", "--partition", "4,4,2,2"], 0, ROOT_SYSTEM_FREE),
    "induce": (["induce", "--type", "sp", "--ambient", "6", "--levi", DESCRIPTOR], 0,
               ROOT_SYSTEM_FREE),
    "dimz": (["dimz", "--type", "so", "--partition", "3,1,1"], 0, ROOT_SYSTEM_FREE),
    "oracle": (["oracle", "--type", "sp", "--ambient", "6", "--levi", DESCRIPTOR], 0,
               ROOT_SYSTEM_FREE),
    # the oracle's undecided verdict, which the oracle command reports itself
    "oracle-undecided": (["oracle", "--type", "sp", "--ambient", "6", "--levi", DESCRIPTOR,
                          "--seed", "850592468", "--trials", "2"], 3, ROOT_SYSTEM_FREE),
    "tables": (["--output", "text", "tables", "--table", "rigid"], 0, ROOT_SYSTEM_FREE),
}


def loaded_by(statement: str, *argv: str) -> tuple[int, set[str]]:
    """Exit code and the modules ``statement`` loads in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, set(proc.stdout.splitlines()[-1].split())


def test_every_command_is_covered():
    assert {next(word for word in argv if word in cli._COMMANDS)
            for argv, _, _ in COMMANDS.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv, exit_code, forbidden", COMMANDS.values(), ids=list(COMMANDS))
def test_command_loads_only_its_engine(argv, exit_code, forbidden):
    code, modules = loaded_by(RUN_COMMAND, *argv)
    assert code == exit_code
    assert "orbitcert.cli" in modules and not modules & forbidden, sorted(modules & forbidden)


def test_package_import_loads_no_submodule():
    code, modules = loaded_by("import orbitcert\ncode = 0")
    assert code == 0 and "orbitcert" in modules
    assert not [name for name in modules if name.startswith("orbitcert.")]


def test_public_names_are_their_home_objects():
    """Each name of ``__all__`` is the object its defining module binds to
    that name, kept in the package globals after the first access;
    ``orbitcert.certify`` is the submodule."""
    for name in orbitcert.__all__:
        value = getattr(orbitcert, name)
        assert vars(orbitcert)[name] is value, name
        if name != "certify":
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("orbitcert.") and vars(home)[name] is value, name
    assert orbitcert.certify is sys.modules["orbitcert.certify"]
    assert set(orbitcert.__all__) <= set(dir(orbitcert))
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        orbitcert.nonexistent


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from orbitcert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(orbitcert.__all__)
    assert all(namespace[name] is getattr(orbitcert, name) for name in namespace)
