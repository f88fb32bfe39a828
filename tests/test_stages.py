"""Each command's stages, as ``cli._COMMANDS`` names them, are what the
command runs.

A stage is named ``"module.name"``: a function or class defined in that
``orbitcert`` module.  The test resolves it there, then rebinds every global
bound to that object, in every loaded ``orbitcert`` module, to a wrapper that
counts calls: a stage imported by name into another module (``certify``'s
``from .rootsys import root_values``) and a class read outside its home
module are counted too.  A name that does not resolve fails at install
time, before anything is rebound.  The argvs take every branch of each
command (``tests/test_startup.COMMANDS``, and the cases below), and a stage
they leave uncalled fails the test: a renamed or bypassed stage fails here,
in the change that renames or bypasses it.
"""
import contextlib
import importlib
import io
import pkgutil
import sys

import pytest

import orbitcert
from orbitcert import cli
from test_startup import COMMANDS, E8_H, E8_LAMBDA_PRIME

E8_LEVI = "a1,a2,a3,a4,a5,a7"
GL_DESCRIPTOR = '{"gl_blocks":[{"k":2,"d":[2]},{"k":1,"d":[1]}]}'
# case -> (argv, exit code), beside the startup cases
BRANCHES = {
    "certify-h": (["certify", "--type", "E8", "--levi", E8_LEVI, "--h", E8_H,
                   "--lambda-prime", E8_LAMBDA_PRIME, "--principal"], 0),
    "certify-not-principal": (["certify", "--type", "A2", "--levi", "a1,a2",
                               "--lambda-prime", "1/3,0,-1/3"], 3),
    "certify-C-fail": (["certify", "--type", "A2", "--levi", "a1", "--lambda-prime", "0,0,0",
                        "--principal"], 1),
    "delta-prime-root-coords": (["delta-prime", "--type", "A2", "--h", "2,2", "--root-coords"],
                                0),
    "integral-G2": (["integral", "--type", "G2", "--lambda-prime", "1/2,0,-1/2"], 0),
    "induce-gl": (["induce", "--type", "gl", "--ambient", "3", "--levi", GL_DESCRIPTOR], 0),
    "induce-very-even": (["induce", "--type", "so", "--ambient", "8", "--levi",
                          '{"gl_blocks":[{"k":4,"d":[1,1,1,1]}]}'], 0),
    "rigid-rigid": (["rigid", "--type", "sp", "--partition", "2,1,1"], 0),
    "rigid-gl": (["rigid", "--type", "gl", "--partition", "3,2,2", "--ambient", "7"], 0),
    "tables-rigid-row": (["tables", "--table", "rigid", "--algebra", "E8", "--label", "A5+A1"],
                         0),
    "tables-duality-row": (["tables", "--table", "duality", "--algebra", "E8", "--label",
                            "2A1"], 0),
    "tables-duality-listing": (["tables", "--table", "duality", "--algebra", "E7"], 0),
    "oracle-gl": (["oracle", "--type", "gl", "--ambient", "3", "--levi", GL_DESCRIPTOR], 0),
}
CASES = {**{case: (argv, code) for case, (argv, code, _) in COMMANDS.items()}, **BRANCHES}


def command_of(argv) -> str:
    return next(word for word in argv if word in cli._COMMANDS)


def resolve(stage: str):
    """The object a stage names: a function or class that its module
    defines and binds under that name; LookupError otherwise."""
    module, dot, name = stage.partition(".")
    if not dot or "." in name:
        raise LookupError(f"stage {stage!r} is not 'module.name'")
    try:
        home = importlib.import_module(f"orbitcert.{module}")
    except ModuleNotFoundError:
        raise LookupError(f"stage {stage!r}: no module orbitcert.{module}") from None
    obj = vars(home).get(name)
    if not callable(obj) or getattr(obj, "__module__", None) != home.__name__:
        raise LookupError(f"stage {stage!r} is no function or class of {home.__name__}")
    return obj


def engine_modules() -> list:
    """Every ``orbitcert`` module, each imported now, so that none binds a
    stage later, while its wrapper is installed."""
    for info in pkgutil.iter_modules(orbitcert.__path__):
        importlib.import_module(f"orbitcert.{info.name}")
    return [module for name, module in sorted(sys.modules.items())
            if name == "orbitcert" or name.startswith("orbitcert.")]


def bindings() -> dict:
    """(module name, global name) -> object, over every ``orbitcert`` module."""
    return {(module.__name__, name): value for module in engine_modules()
            for name, value in vars(module).items()}


def _counting(obj, stage: str, counts: dict):
    def counted(*args, **kwargs):
        counts[stage] += 1
        return obj(*args, **kwargs)
    return counted


@contextlib.contextmanager
def counted_stages(stages):
    """Yield stage -> calls, counted while the block runs; every rebound
    global is restored on the way out."""
    objects = {stage: resolve(stage) for stage in stages}
    counts = dict.fromkeys(objects, 0)
    modules = engine_modules()
    saved = []
    try:
        for stage, obj in objects.items():
            wrapper = _counting(obj, stage, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is obj:
                        saved.append((module, name, obj))
                        setattr(module, name, wrapper)
        yield counts
    finally:
        for module, name, obj in reversed(saved):
            setattr(module, name, obj)


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_stage_table_keys_are_the_subcommands():
    _, subcommands = cli._parsers()
    assert set(cli._COMMANDS) == set(subcommands)
    assert all(len(entry) == 2 and callable(entry[0]) for entry in cli._COMMANDS.values())


def test_every_command_has_a_case():
    assert {command_of(argv) for argv, _ in CASES.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_stages_resolve_to_distinct_home_objects(command):
    stages = cli._COMMANDS[command][1]
    assert stages and stages[0] == "cli.parse_argv"
    objects = [resolve(stage) for stage in stages]
    assert len({id(obj) for obj in objects}) == len(stages), stages


@pytest.mark.parametrize("stage", [
    "certify.no_such_stage",  # renamed away
    "nomodule.certify",
    "certify",  # not dotted
    "certify.certify.certify",
    "certify.root_values",  # bound in certify, defined in rootsys
    "certify.PASS",  # not callable
    "cli.EXIT_PASS",
])
def test_a_stage_that_does_not_resolve_fails_at_install(stage):
    before = bindings()
    with pytest.raises(LookupError, match="stage"):
        with counted_stages(["cli.parse_argv", stage]):
            pass
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_stage_is_called(command):
    """Every stage of the command records a call over the command's cases,
    and each case exits as it should."""
    cases = {case: (argv, code) for case, (argv, code) in CASES.items()
             if command_of(argv) == command}
    with counted_stages(cli._COMMANDS[command][1]) as counts:
        codes = {case: run(argv) for case, (argv, _) in cases.items()}
    assert codes == {case: code for case, (_, code) in cases.items()}
    assert [stage for stage, calls in counts.items() if not calls] == []


def test_a_stage_the_command_does_not_run_records_no_call():
    argv, code = CASES["certify"]
    with counted_stages(["certify.certify", "certify.delta", "lsinduce.induce"]) as counts:
        assert run(argv) == code
    assert counts == {"certify.certify": 1, "certify.delta": 0, "lsinduce.induce": 0}


def test_install_rebinds_each_holder_and_uninstall_restores_every_binding():
    stages = sorted({stage for _, staged in cli._COMMANDS.values() for stage in staged})
    before = bindings()
    objects = {stage: resolve(stage) for stage in stages}
    with counted_stages(stages):
        during = bindings()
        rebound = {key for key, value in before.items() if during[key] is not value}
        held = {key for key, value in before.items()
                if any(value is obj for obj in objects.values())}
        assert rebound == held
        # a stage imported by name, and a class, are rebound in every holder
        assert {("orbitcert.certify", "root_values"), ("orbitcert.rootsys", "root_values"),
                ("orbitcert.certify", "cor68_from_values"),
                ("orbitcert.integral", "cor68_from_values"),
                ("orbitcert.certify", "CertificateInput"),
                ("orbitcert.lsinduce", "dim_z_partition")} <= rebound
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
