"""Command-line front end.

Subcommands wrap one engine operation each and serialize the result as JSON
(default) or text.  Weights are entered in epsilon-coordinates as
comma-separated exact rationals ("1,7/6,...", read as integers; any other
form ``Fraction`` accepts, such as "0.5", also works) unless --root-coords
is given, in which case the entries are coefficients on the simple roots
(``rootsys.read_weight``).
``certify`` without --h takes the regular characteristic of the Levi as
its integer values on the simple roots (``CertificateInput`` given None),
building no epsilon h.  An argv whose first word is a command goes straight
to that command's parser (``parse_argv``), one argparse pass; any other
argv takes the full top-level parse, with the same output.  Exit codes:
0 success/pass, 1 fail verdict, 2 usage error, 3 undecided (a certify
verdict, or an oracle that used up its draws), 4 internal error (a bug,
never a verdict).

Each command imports the engine modules it runs when it runs, so a cold
start loads and compiles only those (``import orbitcert`` itself loads no
submodule).  The imports are absolute: on every call a relative one also
resolves the package name through ``__spec__.parent``, a Python property.
"""
from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .orbits import Partition
    from .rootsys import RootSystemModel

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_UNDECIDED, EXIT_INTERNAL = 0, 1, 2, 3, 4
# The digits a partition's part, or an integer of a --levi descriptor, is written
# with, as for a weight's entries; the partition commands print sums of at most
# L^2 such parts, far under int's 4300.
MAX_PART_DIGITS = 2000


def _parse_levi_indices(text: str, model: RootSystemModel) -> tuple[int, ...]:
    """Parse "a1,a2,a7" or "1,2,7" (1-based simple root names) to 0-based indices."""
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        m = re.fullmatch(r"(?:alpha|a)?(\d+)", token)
        if m is None:
            raise ValueError(f"malformed simple root name {token!r}")
        digits = m.group(1)
        if len(digits) > 2:  # leading zeros, or past any rank: int reads at most 4300 digits
            from orbitcert.rootsys import decimal_digits
            digits = decimal_digits(digits)
        if len(digits) > 2 or not 1 <= int(digits) <= model.rank:
            raise ValueError(f"simple root index {int(digits) if len(digits) <= 2 else digits} "
                             f"out of 1..{model.rank}")
        out.append(int(digits) - 1)
    return tuple(sorted(set(out)))


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload, indent: str = "") -> None:
    """One scalar per line, nested containers indented; a container inside a
    list opens with a line "-" of its own, and None prints as null."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {_text_scalar(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                print(f"{indent}-")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{_text_scalar(value)}")
    else:
        print(f"{indent}{_text_scalar(payload)}")


def _text_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "null" if value is None else str(value)


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by command word,
    built once per process."""
    parser = argparse.ArgumentParser(
        prog="orbitcert",
        description="Exact certificates and orbit computations for classical "
                    "and exceptional Lie types.")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="root-system counts for a Cartan type")
    p.add_argument("--type", required=True)

    p = sub.add_parser("pairing", help="<lambda, alpha^vee> for a root alpha")
    p.add_argument("--type", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--root-coords", action="store_true",
                   help="inputs are simple-root coefficients, not epsilon coords")

    p = sub.add_parser("delta-prime", help="half-sum of positive roots with <a,h> in {0,1}")
    p.add_argument("--type", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--root-coords", action="store_true")

    p = sub.add_parser("certify", help="run the four-condition certificate")
    p.add_argument("--type", required=True)
    p.add_argument("--levi", required=True, help="simple roots, e.g. a1,a2,a3,a4,a5,a7")
    p.add_argument("--h", help="characteristic in epsilon coords; defaults to "
                               "the regular characteristic of the Levi")
    p.add_argument("--lambda-prime", dest="lambda_prime", required=True)
    p.add_argument("--principal", action="store_true",
                   help="e is regular (principal) in the Levi")
    p.add_argument("--root-coords", action="store_true")

    p = sub.add_parser("integral", help="integral root subsystem of lambda'")
    p.add_argument("--type", required=True)
    p.add_argument("--lambda-prime", dest="lambda_prime", required=True)
    p.add_argument("--root-coords", action="store_true")

    p = sub.add_parser("induce", help="Lusztig-Spaltenstein induction of a Levi orbit")
    p.add_argument("--type", required=True, choices=("gl", "so", "sp"))
    p.add_argument("--ambient", type=int)
    p.add_argument("--levi", required=True, help="descriptor JSON")

    p = sub.add_parser("rigid", help="rigidity test for a partition, with an inducing Levi")
    p.add_argument("--type", required=True, choices=("gl", "so", "sp"))
    p.add_argument("--partition", required=True)
    p.add_argument("--ambient", type=int, help="defaults to the partition total")

    p = sub.add_parser("dimz", help="centralizer dimension of a classical orbit")
    p.add_argument("--type", required=True, choices=("gl", "so", "sp"))
    p.add_argument("--partition", required=True)

    p = sub.add_parser("tables", help="embedded rigid/duality reference tables")
    p.add_argument("--table", required=True, choices=("rigid", "duality"))
    p.add_argument("--algebra")
    p.add_argument("--label")

    p = sub.add_parser("oracle", help="randomized exact Jordan-type oracle")
    p.add_argument("--type", required=True, choices=("gl", "so", "sp"))
    p.add_argument("--ambient", type=int)
    p.add_argument("--levi", required=True, help="descriptor JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=8)
    return parser, sub.choices


def _parse_partition(text: str, kind: str) -> Partition:
    import orbitcert.orbits as orb
    return orb.Partition(tuple(_parse_part(x) for x in text.split(",") if x.strip()), kind)


def _parse_part(token: str, what: str = "a part") -> int:
    """``int(token)``, but a usage error naming the limit when the token has
    more than MAX_PART_DIGITS digits, before ``int`` reads it."""
    if len(token) > MAX_PART_DIGITS:  # a shorter token has fewer digits
        digits = sum(map(str.isdigit, token))
        if digits > MAX_PART_DIGITS:
            raise ValueError(f"{what} has {digits} digits, more than the limit of "
                             f"{MAX_PART_DIGITS}")
    return int(token)


def _parse_descriptor(text: str, kind: str, ambient: int | None):
    """The --levi descriptor JSON, each integer in it read by ``_parse_part``;
    JSON nested past the decoder's recursion limit is a usage error too."""
    import orbitcert.lsinduce as ls
    try:
        data = json.loads(text, parse_int=lambda token: _parse_part(token, "a JSON integer"))
    except RecursionError:
        raise ValueError("the descriptor JSON is nested too deeply") from None
    return ls.LeviDescriptor.from_json_dict(data, kind, ambient)


def _cmd_info(args) -> int:
    import orbitcert.rootsys as rs
    model = rs.build(args.type)
    _emit({"dim": model.dim, "positive_roots": len(model.pos_coefficients),
           "rank": model.rank}, args.output)
    return EXIT_PASS


def _cmd_pairing(args) -> int:
    import orbitcert.rootsys as rs
    model = rs.build(args.type)
    lam = rs.read_weight(model, args.lam, args.root_coords)
    root = rs.read_weight(model, args.root, args.root_coords)
    value = rs.pairing(model, lam, root)
    _emit({"pairing": str(value)}, args.output)
    return EXIT_PASS


def _cmd_delta_prime(args) -> int:
    import orbitcert.certify as ct, orbitcert.rootsys as rs
    model = rs.build(args.type)
    h = rs.read_weight(model, args.h, args.root_coords)
    _emit({"delta_prime": ct.delta_prime(model, h).to_strings()}, args.output)
    return EXIT_PASS


def _cmd_certify(args) -> int:
    import orbitcert.certify as ct, orbitcert.rootsys as rs
    model = rs.build(args.type)
    levi = _parse_levi_indices(args.levi, model)
    h = None if args.h is None else rs.read_weight(model, args.h, args.root_coords)
    lambda_prime = rs.read_weight(model, args.lambda_prime, args.root_coords)
    report = ct.certify(ct.CertificateInput(model, levi, h, lambda_prime, args.principal))
    _emit(report.to_json_dict(), args.output)
    if report.overall == ct.PASS:
        return EXIT_PASS
    if report.overall == ct.FAIL:
        return EXIT_FAIL
    return EXIT_UNDECIDED


def _cmd_integral(args) -> int:
    import orbitcert.integral as ig, orbitcert.rootsys as rs
    model = rs.build(args.type)
    lambda_prime = rs.read_weight(model, args.lambda_prime, args.root_coords)
    isys = ig.integral_system(model, lambda_prime)
    _emit({
        "integral_type": rs.format_type(isys.cartan_type),
        "simple_roots": [b.to_strings() for b in isys.simple_system],
        "count": isys.size,
        "cor68": None if isys.cor68 is None else str(isys.cor68),
    }, args.output)
    return EXIT_PASS


def _cmd_induce(args) -> int:
    import orbitcert.lsinduce as ls
    levi = _parse_descriptor(args.levi, args.type, args.ambient)
    result = ls.induce(levi)
    if ls.is_very_even(result):
        print("note: very even partition; labels orbits I/II ambiguously",
              file=sys.stderr)
    _emit(list(result.parts), args.output)
    return EXIT_PASS


def _cmd_rigid(args) -> int:
    import orbitcert.lsinduce as ls
    p = _parse_partition(args.partition, args.type)
    if args.ambient is not None and args.ambient != p.total:
        raise ValueError(f"partition sums to {p.total}, not {args.ambient}")
    rigid, witness = ls.is_rigid(p)
    _emit({"rigid": rigid,
           "witness": None if witness is None else witness.to_json_dict()},
          args.output)
    return EXIT_PASS


def _cmd_dimz(args) -> int:
    import orbitcert.orbits as orb
    p = _parse_partition(args.partition, args.type)
    _emit({"dim_z": orb.dim_z_partition(p)}, args.output)
    return EXIT_PASS


def _cmd_tables(args) -> int:
    import csv
    import orbitcert.orbits as orb
    # table -> (records, label field, one-row lookup, one-row payload, listing row)
    records, label_field, lookup, one_row, listing_row = {
        "rigid": (orb.RIGID_TABLE, "bala_carter", orb.rigid_table,
                  lambda r: {"dim_z": r.dim_z, "q": r.q_type},
                  lambda r: {"algebra": r.algebra, "label": r.bala_carter,
                             "q_type": r.q_type, "dim_z": r.dim_z}),
        "duality": (orb.DUALITY_TABLE, "e_label", orb.duality_table,
                    lambda r: {"dual": r.e_dual_label},
                    lambda r: {"algebra": r.algebra, "label": r.e_label,
                               "dual": r.e_dual_label}),
    }[args.table]
    if args.algebra is not None:
        orb._check_table_algebra(args.algebra)  # the listing refuses it as the lookup does
        if args.label is not None:
            rec = lookup(args.algebra, args.label)
            _emit(None if rec is None else one_row(rec), args.output)
            return EXIT_PASS
    matches = [rec for rec in records
               if (args.algebra is None or rec.algebra == args.algebra)
               and (args.label is None or getattr(rec, label_field) == args.label)]
    if args.output == "text":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(listing_row(records[0])),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(map(listing_row, matches))
    else:
        _emit([listing_row(rec) for rec in matches], args.output)
    return EXIT_PASS


def _cmd_oracle(args) -> int:
    import orbitcert.lsinduce as ls
    levi = _parse_descriptor(args.levi, args.type, args.ambient)
    try:
        result = ls.jordan_oracle(levi, seed=args.seed, trials=args.trials)
    except ls.TrialBudgetExhausted as exc:  # a ValueError, but a verdict, not a usage error
        _emit({"undecided": str(exc)}, args.output)
        return EXIT_UNDECIDED
    _emit(list(result.parts), args.output)
    return EXIT_PASS


# command word -> (handler, stages).  The stages are the engine functions and
# classes the command runs, each named "module.name" in its home module, in
# call order; tests/test_stages.py runs every branch of each command and
# fails when a stage is not called.
_COMMANDS = {
    "info": (_cmd_info, ("cli.parse_argv", "rootsys.build")),
    "pairing": (_cmd_pairing, ("cli.parse_argv", "rootsys.build", "rootsys.read_weight",
                               "rootsys.pairing")),
    "delta-prime": (_cmd_delta_prime, (
        "cli.parse_argv", "rootsys.build", "rootsys.read_weight", "certify.delta_prime",
        "rootsys.h_values", "rootsys.root_values", "rootsys.combine")),
    "certify": (_cmd_certify, (
        "cli.parse_argv", "rootsys.build", "rootsys.read_weight", "certify.CertificateInput",
        "certify._regular_values", "rootsys.h_values", "certify.certify",
        "rootsys.coroot_values", "certify._verdict_A", "integral.cor68_from_values",
        "rootsys.root_values", "certify.orbit_dim_from_values", "rootsys.combine",
        "certify._verdict_C", "certify._levi_solve", "rootsys.levi_coords",
        "rootsys.levi_part")),
    "integral": (_cmd_integral, (
        "cli.parse_argv", "rootsys.build", "rootsys.read_weight", "integral.integral_system",
        "rootsys.coroot_values", "rootsys.height_simples", "rootsys.classify_gram",
        "integral.cor68_from_values", "rootsys.format_type")),
    "induce": (_cmd_induce, ("cli.parse_argv", "cli._parse_descriptor", "lsinduce.induce",
                             "lsinduce.collapse", "lsinduce.is_very_even")),
    "rigid": (_cmd_rigid, ("cli.parse_argv", "cli._parse_partition", "lsinduce.is_rigid",
                           "lsinduce.induce")),
    "dimz": (_cmd_dimz, ("cli.parse_argv", "cli._parse_partition", "orbits.dim_z_partition")),
    "tables": (_cmd_tables, ("cli.parse_argv", "orbits._check_table_algebra",
                             "orbits.rigid_table", "orbits.duality_table")),
    "oracle": (_cmd_oracle, (
        "cli.parse_argv", "cli._parse_descriptor", "lsinduce.jordan_oracle",
        "lsinduce._random_element", "lsinduce._jordan_chain", "linalg.integer_row_basis",
        "orbits.dim_z_partition")),
}


def parse_argv(argv=None) -> argparse.Namespace:
    """The top-level parser's ``parse_args(argv)`` in one argparse pass when argv[0]
    names a command: the rest goes straight to that command's parser, as
    the top-level parser would hand it on after scanning it.  Any other argv
    takes the full parse, and so does one with a token starting with "--="
    before "--", which that scan reports as ambiguous between --help and
    --output."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None or any(token.startswith("--=")
                              for token in itertools.takewhile("--".__ne__, argv)):
        return parser.parse_args(argv)
    namespace = argparse.Namespace(output=parser.get_default("output"), command=argv[0])
    args, extras = command.parse_known_args(argv[1:], namespace)
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_argv(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ValueError as exc:  # bad input, json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: report it without a verdict's exit code
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
