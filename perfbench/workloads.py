"""The benchmark's three seeded workloads: input generators, ops and checks.

Each generator turns a seed into a fixed pool of ops, stratified so that every
seed gives the same number of ops per cell, and interleaved round-robin over
the cells.  A run replays the pool in whole passes.  Inputs are plain JSON so
that the parent process can generate them once and hand them to the fresh
interpreters it measures.

A workload's check takes an op and its result and returns
``(ok, message, canonical_output)``: ``ok`` is the verdict of the op's
correctness check, and ``canonical_output`` is the text that goes into the
workload's sha256 output digest.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from orbitcert import certify as ct
from orbitcert import cli
from orbitcert import lsinduce as ls
from orbitcert import rootsys as rs
from orbitcert.integral import integral_system
from orbitcert.orbits import Partition, dim_z_partition

# The paper's flagship: E8 with the Levi A5+A1 on simple roots a1..a5, a7.
FLAGSHIP_LEVI = (0, 1, 2, 3, 4, 6)
FLAGSHIP_H = (5, 3, 1, -1, -3, -5, 1, -1, 0)
FLAGSHIP_LAMBDA_PRIME = ("1", "7/6", "1/3", "1/2", "2/3", "5/6", "1/6", "-1/6", "-9/2")
FLAGSHIP_DELTA_PRIME = ("3/2", "1", "2", "1", "3/2", "1/2", "1", "0", "-4")
FLAGSHIP_INTEGRAL_TYPE = "A5+A2+A1"
FLAGSHIP_COR68 = 202  # = 248 - 46


def _sum_zero(coords) -> list[str]:
    """Canonical representative in the E-type quotient model (coordinate sum 0)."""
    values = [Fraction(c) for c in coords]
    mean = sum(values) / len(values)
    return [str(v - mean) for v in values]


# The fields of the flagship report that the paper fixes, plus its exit code.
EXPECTED_FLAGSHIP = {
    "exit": 0,
    "overall": "pass",
    "cor68": str(FLAGSHIP_COR68),
    "dim_g": 248,
    "dim_orbit": FLAGSHIP_COR68,
    "delta_prime": _sum_zero(FLAGSHIP_DELTA_PRIME),
}

FLAGSHIP_ARGV = [
    "certify", "--type", "E8", "--levi", "a1,a2,a3,a4,a5,a7",
    "--h=" + ",".join(map(str, FLAGSHIP_H)),
    "--lambda-prime=" + ",".join(FLAGSHIP_LAMBDA_PRIME), "--principal",
]

_EXIT_OF = {"pass": 0, "fail": 1, "undecided": 3}


def _round_robin(cells: dict[str, list]) -> list:
    """Interleave the cells' ops: one from each cell in turn."""
    pool = []
    width = max(len(ops) for ops in cells.values())
    for j in range(width):
        for ops in cells.values():
            if j < len(ops):
                pool.append(ops[j])
    return pool


def _spread_sample(rng: random.Random, items: list, k: int) -> list:
    """k items, none repeated until every item has been taken once."""
    out: list = []
    while len(out) < k:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch[:k - len(out)])
    return out


def _subsets(rank: int, sizes) -> list[tuple[int, ...]]:
    return [c for size in sizes for c in itertools.combinations(range(rank), size)]


def _levi_names(levi) -> str:
    return ",".join(f"a{i + 1}" for i in levi)


# ---------------------------------------------------------------------------
# certify-mix: in-process CLI certificates across types and Levi sizes

CERTIFY_TYPES = ("G2", "A4", "B3", "F4", "E6", "E7", "E8")
CERTIFY_PER_CELL = 5
CERTIFY_DRAWS = 3
# per cell: 1/4 of the ops are off the Levi span (C fails), 1/4 run without
# --principal, the rest are on-span principal certificates
CERTIFY_VARIANTS = ("on", "on", "plain", "off")


def _certify_levi_size(rank: int, size_class: str) -> int:
    return {"small": 1, "mid": (rank + 1) // 2, "large": rank - 1}[size_class]


def _random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if q or not nonzero:
            return q


def _integral_count(model, lam) -> int:
    """#positive roots with integral pairing: sets the cost of a certificate."""
    return sum(1 for beta in model.positive_roots
               if rs.pairing(model, lam, beta).denominator == 1)


def _certify_lambda(rng: random.Random, model, levi, off_span: bool):
    lam = ct.delta_prime(model, ct.h_regular(model, levi))
    for i in levi:
        lam = lam + _random_rational(rng) * model.simple_roots[i]
    if off_span:
        j_off = rng.choice([i for i in range(model.rank) if i not in levi])
        lam = lam + _random_rational(rng, nonzero=True) * model.simple_roots[j_off]
    return lam


def certify_mix_pool(seed: int) -> list[dict]:
    """Ops by type x Levi size; each op is the draw with the median integral
    count out of CERTIFY_DRAWS, which keeps the cost of a pool steady across
    seeds."""
    rng = random.Random(seed)
    cells: dict[str, list] = {}
    for label in CERTIFY_TYPES:
        model = rs.build(label)
        for size_class in ("small", "mid", "large"):
            size = _certify_levi_size(model.rank, size_class)
            cell = f"{label}/{size_class}"
            levis = _spread_sample(rng, _subsets(model.rank, [size]),
                                   CERTIFY_PER_CELL * CERTIFY_DRAWS)
            cells[cell] = []
            for j in range(CERTIFY_PER_CELL):
                variant = CERTIFY_VARIANTS[j % len(CERTIFY_VARIANTS)]
                draws = []
                for levi in levis[j * CERTIFY_DRAWS:(j + 1) * CERTIFY_DRAWS]:
                    lam = _certify_lambda(rng, model, levi, variant == "off")
                    draws.append((_integral_count(model, lam), levi, lam))
                draws.sort(key=lambda d: d[0])
                _, levi, lam = draws[len(draws) // 2]
                argv = ["certify", "--type", label, "--levi", _levi_names(levi),
                        "--lambda-prime=" + ",".join(lam.to_strings())]
                if variant != "plain":
                    argv.append("--principal")
                cells[cell].append({"cell": cell, "argv": argv, "on_span": variant != "off",
                                    "principal": variant != "plain", "flagship": False})
    flagship = {"cell": "flagship", "argv": FLAGSHIP_ARGV, "on_span": True,
                "principal": True, "flagship": True}
    return [flagship] + _round_robin(cells)


def run_cli(argv) -> tuple[int, str, str]:
    """``orbitcert.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_flagship_report(code: int, stdout: str,
                          expected: dict = EXPECTED_FLAGSHIP) -> tuple[bool, str]:
    """The flagship certificate as the paper states it."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False, "flagship output is not JSON"
    got = {"exit": code, **{k: report.get(k) for k in expected if k != "exit"}}
    if got != expected:
        bad = sorted(k for k in expected if got.get(k) != expected[k])
        return False, f"flagship fields differ from the paper: {bad}"
    return True, ""


def flagship_library_facts() -> tuple[bool, str]:
    """The flagship's h and integral type, which the CLI report does not echo."""
    e8 = rs.build("E8")
    h = ct.h_regular(e8, FLAGSHIP_LEVI)
    if h.to_strings() != _sum_zero(FLAGSHIP_H):
        return False, f"h_regular(E8, A5+A1) = {h.to_strings()}"
    lam = rs.canonicalize(e8, [Fraction(c) for c in FLAGSHIP_LAMBDA_PRIME])
    got = rs.format_type(integral_system(e8, lam).cartan_type)
    if got != FLAGSHIP_INTEGRAL_TYPE:
        return False, f"flagship integral type {got}"
    return True, ""


def certify_op(op: dict):
    return run_cli(op["argv"])


def check_certify(op: dict, result, expected_flagship: dict = EXPECTED_FLAGSHIP):
    code, out, err = result
    canonical = f"{code}\n{out}"
    if op["flagship"]:
        ok, msg = check_flagship_report(code, out, expected_flagship)
        return ok, msg, canonical
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return False, f"exit {code}, output is not JSON: {err.strip()[-200:]}", canonical
    overall = report.get("overall")
    if _EXIT_OF.get(overall) != code:
        return False, f"exit {code} disagrees with overall {overall!r}", canonical
    c_status = report.get("C", {}).get("status")
    if c_status != ("pass" if op["on_span"] else "fail"):
        return False, f"C is {c_status!r} for on_span={op['on_span']}", canonical
    if not op["principal"] and report.get("D", {}).get("status") != "undecided":
        return False, "D decided without --principal", canonical
    return True, "", canonical


# ---------------------------------------------------------------------------
# levi-sweep: criterion-3 congruences for sampled Levi subsets of E6/E7/E8

SWEEP_TYPES = ("E6", "E7", "E8")
SWEEP_SIZES = {"small": (1, 2), "mid": (3, 4), "large": (5, 8)}
SWEEP_PER_CELL = 11


def levi_sweep_pool(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cells: dict[str, list] = {}
    for label in SWEEP_TYPES:
        rank = int(label[1:])
        for size_class, (lo, hi) in SWEEP_SIZES.items():
            levis = _spread_sample(rng, _subsets(rank, range(lo, min(hi, rank) + 1)),
                                   SWEEP_PER_CELL)
            cells[f"{label}/{size_class}"] = [
                {"cell": f"{label}/{size_class}", "type": label, "levi": list(levi)}
                for levi in levis]
    return _round_robin(cells)


def sweep_op(op: dict):
    """delta' - delta - rho and every (k,l) weight-sum difference in Q.Pi_0.

    Returns the in_levi_span verdicts; the first is the shift congruence,
    the rest are one per (theta, h)-bucket pair with l > 0.
    """
    model = rs.build(op["type"])
    pi0 = tuple(op["levi"])
    h = ct.h_regular(model, pi0)
    theta = ct.theta_for_levi(model, pi0)
    resid = ct.delta_prime(model, h) - ct.delta(model, pi0, h) - rs.rho(model)
    verdicts = [ct.in_levi_span(model, resid, pi0)[0]]
    sums = {}
    for beta in model.roots:
        key = (beta.dot(theta), beta.dot(h))
        sums[key] = sums[key] + beta if key in sums else beta
    for (k, l), s in sorted(sums.items()):
        if l > 0:
            diff = s - sums[(k, -l)] if (k, -l) in sums else s
            verdicts.append(ct.in_levi_span(model, diff, pi0)[0])
    return verdicts


def check_sweep(op: dict, verdicts):
    pairs = len(verdicts) - 1
    canonical = f"{op['type']} {op['levi']} pairs={pairs}"
    if not all(verdicts):
        return False, f"{op['type']} {op['levi']}: a congruence fails", canonical
    return True, "", canonical


# ---------------------------------------------------------------------------
# induction-audit: induction, centralizer and rigidity against their oracles

# (op kind, ambient type, ambient size) per cell.  A cell holds one ambient
# size, not a range: op costs grow steeply with it, and a range would let the
# seed move the pool's cost percentiles.  Ordered by cost, the 22 cells put
# the median op inside three induce cells of like cost (ambient 6) and the
# 90th percentile inside the four costliest ones (ambient 14 and gl 16).
# Rigidity stops at ambient 11: from 12 on, the search cost of one partition
# swings tenfold with its shape and would move the median op.
AUDIT_CELLS = (
    [("induce", kind, n) for kind, sizes in (("gl", (6, 10, 14, 16)), ("so", (6, 10, 14)),
                                             ("sp", (6, 10, 14))) for n in sizes]
    + [("centralizer", kind, n) for kind, sizes in (("gl", (4, 7)), ("so", (5, 9)),
                                                    ("sp", (4, 8))) for n in sizes]
    + [("rigid", kind, n) for kind, sizes in (("gl", (8, 11)), ("so", (8, 11)),
                                              ("sp", (8, 10))) for n in sizes]
)
AUDIT_PER_CELL = 24
AUDIT_DRAWS = 3


def _partition(rng: random.Random, n: int, kind: str) -> Partition:
    return rng.choice(list(ls.valid_partitions(n, kind)))


def _descriptor(rng: random.Random, kind: str, n: int) -> ls.LeviDescriptor:
    """A proper Levi of the ambient with a random orbit on each factor."""
    def block(k):
        return ls.GLBlock(k, _partition(rng, k, "gl"))
    if kind == "gl":
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return ls.LeviDescriptor("gl", n, tuple(block(k) for k in sizes))
    while True:
        k_total = rng.randint(1, n // 2)
        m = n - 2 * k_total
        if kind == "sp" and m % 2:
            continue
        first = rng.randint(1, k_total)
        sizes = [first] + ([k_total - first] if k_total > first else [])
        tail = ls.Tail(m, _partition(rng, m, kind)) if m else None
        return ls.LeviDescriptor(kind, n, tuple(block(k) for k in sizes), tail)


def _systematic_descriptors(rng: random.Random, kind: str, n: int) -> list:
    """AUDIT_PER_CELL descriptors, systematic in the induced orbit's largest part.

    That part is the number of matrix powers jordan_oracle takes, which sets
    the op's cost; drawing AUDIT_DRAWS times as many descriptors and keeping
    the middle one of each run of AUDIT_DRAWS, in order of that part, keeps
    the cost of a cell steady across seeds.
    """
    draws = [_descriptor(rng, kind, n) for _ in range(AUDIT_PER_CELL * AUDIT_DRAWS)]
    draws.sort(key=lambda levi: ls.induce(levi).parts[0])
    kept = draws[AUDIT_DRAWS // 2::AUDIT_DRAWS]
    rng.shuffle(kept)
    return kept


def induction_audit_pool(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cells: dict[str, list] = {}
    for op_kind, kind, n in AUDIT_CELLS:
        name = f"{op_kind}/{kind}/{n}"
        if op_kind == "induce":
            cells[name] = [{"cell": name, "kind": op_kind, "levi": levi.to_json_dict(),
                            "oracle_seed": rng.randrange(2**31)}
                           for levi in _systematic_descriptors(rng, kind, n)]
        else:
            cells[name] = [{"cell": name, "kind": op_kind, "type": kind,
                            "parts": list(_partition(rng, n, kind).parts)}
                           for _ in range(AUDIT_PER_CELL)]
    return _round_robin(cells)


def audit_op(op: dict):
    if op["kind"] == "induce":
        levi = ls.LeviDescriptor.from_json_dict(op["levi"])
        induced = ls.induce(levi)
        oracle = ls.jordan_oracle(levi, seed=op["oracle_seed"])
        return induced, oracle, dim_z_partition(induced), ls.induced_dim_z(levi)
    p = Partition(tuple(op["parts"]), op["type"])
    if op["kind"] == "centralizer":
        return ls.centralizer_oracle(p), dim_z_partition(p)
    return ls.is_rigid(p)


def check_audit(op: dict, result):
    kind = op["kind"]
    if kind == "induce":
        induced, oracle, dim_induced, dim_levi = result
        canonical = f"induce {json.dumps(op['levi'], sort_keys=True)} -> {list(induced.parts)}"
        if induced != oracle:
            return False, f"induce {induced.parts} != jordan_oracle {oracle.parts}", canonical
        if dim_induced != dim_levi:
            return False, f"dim z {dim_induced} != Levi dim z {dim_levi}", canonical
        return True, "", canonical
    if kind == "centralizer":
        oracle, formula = result
        canonical = f"dimz {op['type']} {op['parts']} -> {formula}"
        if oracle != formula:
            return False, f"centralizer_oracle {oracle} != dim_z_partition {formula}", canonical
        return True, "", canonical
    rigid, witness = result
    canonical = f"rigid {op['type']} {op['parts']} -> {rigid}"
    if rigid != (witness is None):
        return False, "rigid flag and witness disagree", canonical
    if witness is not None and list(ls.induce(witness).parts) != op["parts"]:
        return False, f"witness induces {ls.induce(witness).parts}, not {op['parts']}", canonical
    return True, "", canonical


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A pool generator, the op it runs and the check applied to its result."""

    name: str
    types: tuple[str, ...]       # root-system models the ops use
    pool: Callable[[int], list[dict]]
    op: Callable
    check: Callable
    cold_argv: list[str]         # the CLI command timed from a cold start


RIGID_COLD_PARTITION = "4,4,2,2"

WORKLOADS = {
    "certify-mix": Workload(
        "certify-mix", CERTIFY_TYPES, certify_mix_pool, certify_op, check_certify,
        FLAGSHIP_ARGV),
    "levi-sweep": Workload(
        "levi-sweep", SWEEP_TYPES, levi_sweep_pool, sweep_op, check_sweep,
        ["delta-prime", "--type", "E8", "--h=" + ",".join(map(str, FLAGSHIP_H))]),
    "induction-audit": Workload(
        "induction-audit", (), induction_audit_pool, audit_op, check_audit,
        ["rigid", "--type", "sp", "--partition", RIGID_COLD_PARTITION]),
}


def check_cold(workload: str, code: int, stdout: str) -> tuple[bool, str]:
    """Check a cold CLI run of the workload's command against in-process truth."""
    if workload == "certify-mix":
        return check_flagship_report(code, stdout)
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return False, "output is not JSON"
    if code != 0:
        return False, f"exit {code}"
    if workload == "levi-sweep":
        if payload != {"delta_prime": EXPECTED_FLAGSHIP["delta_prime"]}:
            return False, "delta-prime differs from the paper"
        return True, ""
    parts = tuple(int(x) for x in RIGID_COLD_PARTITION.split(","))
    rigid, witness = ls.is_rigid(Partition(parts, "sp"))
    expected = {"rigid": rigid,
                "witness": None if witness is None else witness.to_json_dict()}
    if payload != expected:
        return False, "rigid output differs from the in-process result"
    return True, ""
