"""Batch CLI: constructions and verifications as reproducible runs.

Every subcommand builds the requested object, re-verifies the claimed
parameters against enumeration, and emits a report in which each numeric
claim is labeled exact or bound.  Reports are deterministic byte streams
for fixed inputs and caps (timing is opt-in for that reason).

Every claim fails one way: ``ParameterMismatch``, raised at its first
failed check.  A quantum record's checks are decided by the construction
that returns it (``qcode.require``), the classical GRM record's rank by
``GrmCode`` and its distance and dual by ``grm_record``, all through one
rule (``errors.decide``); a report copies the checks of the record it lists
(``RunReport.add_record``), all of them passed.  A failed claim ends a
single command with exit 4 and no report, and makes its sweep row
``fail``, with the message as ``mismatch``; an MDS row left with a bound
raises ``CapExceeded`` and is ``capped`` (any other bound row passes,
``exact: false``), and either way the other rows stand.  So a sweep's
``all_rows_pass`` is the only report check that can fail.

Exit codes partition outcomes: 0 pass; 2 bad parameters (an order
outside the quantum range, a q below 2 or an m below 1 in any
subcommand, a malformed sweep grid, a witness weight below 1, and
``--csv`` with ``--json`` or ``--timing`` included); 3
enumeration capped (strict mode, an inconclusive witness scan, or a
weight distribution over the cap); 4 a claim was contradicted: a
``ParameterMismatch`` (a contradicted MDS chain included), or a sweep
row that failed on one; 5 a witness weight was proven absent, a weight
above the length included, before any puncture code is built.  A bare
``AssertionError`` is an internal bug and is not mapped to an exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable

from . import __version__
from .errors import CapExceeded, GrmError, ParameterMismatch, WitnessNotFound, decide
from .grm import GrmCode, build_grm, grm_dual_code
from .lincode import DEFAULT_CAP
from .puncture import (
    check_witness_weight,
    find_weight_witness,
    mds_chain,
    puncture_code_css,
    puncture_code_hermitian,
    puncture_css,
    puncture_hermitian,
)
from .qcode import check_quantum_orders, css_grm, hermitian_grm, quantum_orders

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_MISMATCH = 4
EXIT_ABSENT = 5

CAP_ENV_VAR = "GRMCODES_CAP"


def _int_at_least(low: int, noun: str) -> Callable[[str], int]:
    """An argparse type for one integer >= low; anything else is a usage error."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {raw!r}")
        return value

    return parse


def _grid(item: Callable[[str], int]) -> Callable[[str], list]:
    """An argparse type for a comma-separated list of ``item`` values."""
    return lambda raw: [item(tok) for tok in raw.split(",") if tok != ""]


_positive = _int_at_least(1, "a positive integer")
_field_size = _int_at_least(2, "a field size of at least 2")


@dataclass
class RunReport:
    """One command's echo, records, and named verification results."""

    command: str
    params: dict
    records: list = dc_field(default_factory=list)
    checks: list = dc_field(default_factory=list)
    cap: int = DEFAULT_CAP
    capped: bool = False
    matrices: dict = dc_field(default_factory=dict)
    tables: dict = dc_field(default_factory=dict)
    timing: float | None = None

    def check(self, name: str, passed: bool, observed=None, expected=None, exact: bool = True):
        self.checks.append(
            {
                "name": name,
                "status": "pass" if passed else "fail",
                "observed": observed,
                "expected": expected,
                "exact": exact,
            }
        )

    def add_record(self, record: dict, checks: list):
        """List a record with the checks its builder decided; capped when its d is a bound."""
        self.records.append(record)
        self.capped = record["d_is_lower_bound"]
        for check in checks:
            self.check(*check)

    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_dict(self, with_timing: bool = False) -> dict:
        out = {
            "command": self.command,
            "params": self.params,
            "records": self.records,
            "checks": self.checks,
            "cap": self.cap,
            "capped": self.capped,
            "version": __version__,
        }
        if self.matrices:
            out["matrices"] = self.matrices
        if self.tables:
            out["tables"] = self.tables
        if with_timing and self.timing is not None:
            out["timing_seconds"] = self.timing
        return out

    def render_text(self, with_timing: bool = False) -> str:
        lines = [f"# {self.command}"]
        lines.append("params: " + json.dumps(self.params, sort_keys=True))
        for rec in self.records:
            extra = []
            if rec.get("pure") is not None:
                extra.append(f"pure={rec['pure']}")
            if "singleton_slack" in rec:
                extra.append(f"slack={rec['singleton_slack']}")
                extra.append(f"mds={rec['mds']}")
            lines.append(f"record: {rec['params']} ({rec['construction']}) " + " ".join(extra))
        for name, table in self.tables.items():
            lines.append(f"{name}: " + json.dumps(table, sort_keys=True))
        for c in self.checks:
            tag = "exact" if c["exact"] else "bound"
            detail = "" if c["observed"] is None else f" observed={c['observed']} expected={c['expected']}"
            lines.append(f"check [{c['status'].upper()}] {c['name']} ({tag}){detail}")
        for name, mat in self.matrices.items():
            lines.append(f"{name}:")
            lines.extend(" ".join(str(int(v)) for v in row) for row in mat)
        lines.append(f"cap: {self.cap} capped: {str(self.capped).lower()}")
        if with_timing and self.timing is not None:
            lines.append(f"timing_seconds: {self.timing:.3f}")
        lines.append("result: " + ("PASS" if self.ok() else "FAIL"))
        return "\n".join(lines)


# -- the classical record -----------------------------------------------------


def grm_record(g: GrmCode, cap: int, dual_check: bool) -> tuple[dict, list]:
    """Enumerate wt(R_q(nu, m)) under the cap and decide d and the dual; the record and its checks, k's first."""
    w, exact = g.code.min_weight(cap)
    if exact:
        checks = [("enumerated_distance_equals_formula", w == g.d_formula, w, g.d_formula, True)]
    else:
        checks = [("distance_lower_bound_consistent", w <= g.d_formula, w, g.d_formula, False)]
    if dual_check:
        dual = g.code.dual() == grm_dual_code(g)
        checks.append(("dual_is_grm_of_dual_order", dual, None, f"order {g.nu_perp}", True))
    decide("classical-grm", *checks)
    rank = ("rank_equals_dimension_formula", g.k == g.k_formula, g.k, g.k_formula, True)  # GrmCode decided it
    return {
        "construction": "classical-grm",
        "params": f"[{g.n},{g.k},{w if exact else f'>={w}'}]_{g.q}",
        "q": g.q,
        "n": g.n,
        "k": g.k,
        "d": w,
        "d_is_lower_bound": not exact,
        "pure": None,
    }, [rank, *checks]


# -- the family table ----------------------------------------------------------


def _grm_row(cap: int, q: int, m: int, nu: int) -> dict:
    rec, _ = grm_record(build_grm(q, m, nu), cap, dual_check=True)
    exact = not rec["d_is_lower_bound"]
    return {"params": f"[{rec['n']},{rec['k']},{rec['d'] if exact else '?'}]_{q}", "exact": exact}


def _css_row(cap: int, q: int, m: int, nu1: int, nu2: int) -> dict:
    rec = css_grm(q, m, nu1, nu2, cap)
    return {"params": rec.params_str(), "exact": rec.exact}


def _hermitian_row(cap: int, q: int, m: int, nu: int) -> dict:
    rec = hermitian_grm(q, m, nu, cap)
    return {"params": rec.params_str(), "exact": rec.exact}


def _mds_grid(q: int, m: int) -> list:
    if m != 1:
        raise GrmError("sweep mds is defined for m=1 inputs")
    return [(nu,) for nu in quantum_orders(q, 1)]


def _mds_row(cap: int, q: int, nu: int) -> dict:
    rec = mds_chain(q, nu, cap)
    return {"params": rec.params_str(), "exact": rec.exact, "slack": rec.singleton_slack}


@dataclass(frozen=True)
class Sweep:
    """A family as a sweep sees it.

    ``orders`` names a row's key fields after q, ``grid(q, m)`` lists their
    values, and ``row(cap, q, *key)`` builds the record, whose builder
    decides its checks, and returns the row's other fields.
    Row builders call the library through this module's names at call
    time, so a rebinding of those names (a tracer, a test) reaches them.
    """

    orders: tuple
    grid: Callable[[int, int], list]
    row: Callable[..., dict]


SWEEPS = {
    "grm": Sweep(("m", "nu"), lambda q, m: [(m, nu) for nu in range(m * (q - 1) + 1)], _grm_row),
    "css": Sweep(
        ("m", "nu1", "nu2"),
        lambda q, m: [(m, a, b) for a in quantum_orders(q, m) for b in quantum_orders(q, m)[a:]],
        _css_row,
    ),
    "hermitian": Sweep(("m", "nu"), lambda q, m: [(m, nu) for nu in quantum_orders(q, m)], _hermitian_row),
    "mds": Sweep(("nu",), _mds_grid, _mds_row),
}


def _record_params(args) -> dict:
    """q and the orders of a css or hermitian record, as the report echoes them."""
    return {"q": args.q, **{name: getattr(args, name) for name in SWEEPS[args.construction].orders}}


# -- subcommand implementations ------------------------------------------------


def run_grm(args) -> RunReport:
    params = {"q": args.q, "m": args.m, "order": args.order, "strict": args.strict}
    rep = RunReport("grm", params, cap=args.cap)
    g = build_grm(args.q, args.m, args.order)
    rep.add_record(*grm_record(g, args.cap, args.dual_check))
    if args.dump_matrix:
        rep.matrices["generator"] = g.code.gen.tolist()
    return rep


def run_quantum(args) -> RunReport:
    rep = RunReport(f"quantum {args.construction}", _record_params(args), cap=args.cap)
    build = css_grm if args.construction == "css" else hermitian_grm
    rec = build(*rep.params.values(), args.cap)
    rep.add_record(rec.to_dict(), rec.checks)
    if args.dump_stabilizer:
        rep.matrices["stabilizer"] = rec.stabilizer.matrix.tolist()
        rep.matrices["stabilizer_symplectic_expansion"] = rec.stabilizer.expanded().tolist()
    return rep


def run_puncture(args) -> RunReport:
    rep = RunReport(f"puncture {args.construction}", _record_params(args), cap=args.cap)
    check_quantum_orders(**rep.params)
    css = args.construction == "css"
    if not css and args.mds_chain:
        if args.m != 1:
            raise GrmError("--mds-chain is defined for m=1 inputs")
        rec = mds_chain(args.q, args.nu, args.cap)
        rep.add_record(rec.to_dict(), rec.checks)
        return rep
    if css:
        codes = build_grm(args.q, args.m, args.nu1), build_grm(args.q, args.m, args.nu2)
    else:
        codes = (build_grm(args.q * args.q, args.m, args.nu),)
    if args.target_weight is not None:
        check_witness_weight(args.target_weight, codes[0].n)  # before any puncture code is built
    if css:
        prec = puncture_code_css(*codes)
        rep.check("puncture_code_is_grm_difference_order", prec.provenance.get("grm_identity", False))
    else:
        # only the witness search reads the family's restriction subcodes
        prec = puncture_code_hermitian(codes[0].code if args.list_weights else codes[0])
    if args.list_weights:
        counts = prec.pcode.weight_distribution(args.cap)
        rep.tables["puncture_code_weights"] = {"counts": list(counts), "exact": True}
        return rep
    materialize = puncture_css if css else puncture_hermitian
    rec = materialize(*codes, find_weight_witness(prec, args.target_weight, args.cap), args.cap, pcode_record=prec)
    rep.add_record(rec.to_dict(), rec.checks)
    return rep


def run_sweep(args) -> RunReport:
    family = SWEEPS[args.family]
    ms = [1] if args.m is None else args.m
    rep = RunReport(f"sweep {args.family}", {"q": args.q, "m": ms}, cap=args.cap)
    keys = [(q, *key) for q in args.q for m in ms for key in family.grid(q, m)]
    rows: list[dict] = []
    for key in keys:
        row = dict(zip(("q", *family.orders), key))
        try:
            row.update(family.row(args.cap, *key), status="pass")
        except CapExceeded:
            # only a distance bound: this row is capped, the others stand
            row.update(exact=False, status="capped")
        except ParameterMismatch as exc:
            # a claim of this row failed: the row fails, the others stand
            row.update(status="fail", mismatch=str(exc))
        rows.append(row)
    rep.tables["rows"] = rows
    passes = sum(1 for r in rows if r["status"] == "pass")
    failures = sum(1 for r in rows if r["status"] == "fail")
    rep.check("all_rows_pass", failures == 0, f"{passes}/{len(rows)} pass")
    # a mismatch row has no record, so it says nothing about capping
    rep.capped = any(not r.get("exact", True) for r in rows)
    return rep


def _render_csv(rep: RunReport) -> str:
    rows = rep.tables.get("rows", [])
    if not rows:
        return "empty\n"
    headers = sorted({key for row in rows for key in row})
    # csv.writer quotes a field that holds a comma, such as [[3,1,2]]_3
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([row.get(h, "") for h in headers] for row in rows)
    return buf.getvalue().removesuffix("\n")


# -- argument parsing ------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: it holds no state of a
    run, since ``main`` reads the environment and parses into a fresh
    namespace on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap",
        type=_positive,
        help=f"codeword-count ceiling for exhaustive enumeration (default: env {CAP_ENV_VAR}, else {DEFAULT_CAP})",
    )
    common.add_argument("--strict", action="store_true", help="fail instead of degrading to bounds")
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--timing", action="store_true", help="include wall time (breaks byte-for-byte determinism)")

    p = argparse.ArgumentParser(
        prog="grmcodes",
        description="Generalized Reed-Muller codes, derived quantum codes, puncture machinery.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grm", parents=[common], help="build a classical GRM code and verify its parameters")
    g.add_argument("-q", type=_field_size, required=True)
    g.add_argument("-m", type=_positive, required=True)
    g.add_argument("--order", type=int, required=True)
    g.add_argument("--dual-check", action="store_true")
    g.add_argument("--dump-matrix", action="store_true")
    g.set_defaults(func=run_grm)

    # the orders a css or hermitian record is built from, shared by quantum and puncture
    css_orders = argparse.ArgumentParser(add_help=False, parents=[common])
    css_orders.add_argument("-q", type=_field_size, required=True)
    css_orders.add_argument("-m", type=_positive, required=True)
    css_orders.add_argument("--nu1", type=int, required=True)
    css_orders.add_argument("--nu2", type=int, required=True)
    herm_orders = argparse.ArgumentParser(add_help=False, parents=[common])
    herm_orders.add_argument("-q", type=_field_size, required=True)
    herm_orders.add_argument("-m", type=_positive, default=1)
    herm_orders.add_argument("--nu", type=int, required=True)

    quantum = sub.add_parser("quantum", help="derive a quantum code from GRM inputs")
    qsub = quantum.add_subparsers(dest="construction", required=True)
    for name, orders in (("css", css_orders), ("hermitian", herm_orders)):
        qp = qsub.add_parser(name, parents=[orders])
        qp.add_argument("--dump-stabilizer", action="store_true")
        qp.set_defaults(func=run_quantum)

    punc = sub.add_parser("puncture", help="puncture codes, witnesses, punctured records")
    psub = punc.add_subparsers(dest="construction", required=True)
    for name, orders in (("css", css_orders), ("hermitian", herm_orders)):
        pp = psub.add_parser(name, parents=[orders])
        mode = pp.add_mutually_exclusive_group(required=True)
        mode.add_argument("--target-weight", type=_positive)
        if name == "hermitian":
            mode.add_argument("--mds-chain", action="store_true")
        mode.add_argument("--list-weights", action="store_true")
        pp.set_defaults(func=run_puncture)

    sw = sub.add_parser("sweep", parents=[common], help="tabulate a family across a parameter grid")
    sw.add_argument("family", choices=list(SWEEPS))
    sw.add_argument("-q", type=_grid(_field_size), required=True, help="comma-separated field sizes")
    sw.add_argument("-m", type=_grid(_positive), help="comma-separated m values (default 1)")
    sw.add_argument("--csv", action="store_true")
    sw.set_defaults(func=run_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "csv", False) and (args.json or args.timing):
        parser.error("--csv cannot be combined with --json or --timing")
    if args.cap is None:
        raw = os.environ.get(CAP_ENV_VAR)
        try:
            args.cap = _positive(raw) if raw else DEFAULT_CAP
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{CAP_ENV_VAR}: {exc}")
    t0 = time.perf_counter()
    try:
        rep: RunReport = args.func(args)
    except WitnessNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABSENT if exc.proven_absent else EXIT_CAPPED
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except ParameterMismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except GrmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep.timing = time.perf_counter() - t0

    if getattr(args, "csv", False):
        print(_render_csv(rep))
    elif args.json:
        print(json.dumps(rep.to_dict(with_timing=args.timing), sort_keys=True, indent=2))
    else:
        print(rep.render_text(with_timing=args.timing))

    if not rep.ok():
        return EXIT_MISMATCH
    if rep.capped and args.strict:
        return EXIT_CAPPED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
