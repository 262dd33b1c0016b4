"""Batch CLI: constructions and verifications as reproducible runs.

Every subcommand builds the requested object, re-verifies the claimed
parameters against enumeration, and emits a report in which each numeric
claim is labeled exact or bound.  Reports are deterministic byte streams
for fixed inputs and caps (timing is opt-in for that reason).

Exit codes partition outcomes: 0 pass, 2 bad parameters, 3 enumeration
capped (strict mode, an inconclusive witness scan, or a weight
distribution over the cap), 4 a predicted
parameter disagreed with enumeration, 5 a witness weight was proven
absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from .errors import CapExceeded, GrmError, WitnessNotFound
from .grm import build_grm, grm_dual_code
from .lincode import DEFAULT_CAP
from .puncture import (
    find_weight_witness,
    mds_chain,
    puncture_code_css,
    puncture_code_hermitian,
    puncture_css,
    puncture_hermitian,
)
from .qcode import QuantumCodeRecord, css_grm, hermitian_grm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_MISMATCH = 4
EXIT_ABSENT = 5

CAP_ENV_VAR = "GRMCODES_CAP"


def _positive_cap(raw: str) -> int:
    try:
        cap = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}") from None
    if cap <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {cap}")
    return cap


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

    def add_record(self, rec: QuantumCodeRecord):
        self.records.append(rec.to_dict())

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


def _matrix_rows(mat: np.ndarray) -> list:
    return [[int(v) for v in row] for row in mat]


# -- subcommand implementations ------------------------------------------------


def run_grm(args) -> RunReport:
    cap = args.cap
    rep = RunReport(
        "grm",
        {"q": args.q, "m": args.m, "order": args.order, "strict": args.strict},
        cap=cap,
    )
    g = build_grm(args.q, args.m, args.order)
    w, exact = g.code.min_weight(cap)
    if not exact:
        rep.capped = True
    rep.records.append(
        {
            "construction": "classical-grm",
            "params": f"[{g.n},{g.k},{w if exact else f'>={w}'}]_{args.q}",
            "q": args.q,
            "n": g.n,
            "k": g.k,
            "d": w,
            "d_is_lower_bound": not exact,
            "pure": None,
        }
    )
    rep.check("rank_equals_dimension_formula", g.k == g.k_formula, g.k, g.k_formula)
    if exact:
        rep.check("enumerated_distance_equals_formula", w == g.d_formula, w, g.d_formula)
    else:
        rep.check("distance_lower_bound_consistent", w <= g.d_formula, w, g.d_formula, exact=False)
    if args.dual_check:
        dual_ok = g.code.dual() == grm_dual_code(g)
        rep.check("dual_is_grm_of_dual_order", dual_ok, expected=f"order {g.nu_perp}")
    if args.dump_matrix:
        rep.matrices["generator"] = _matrix_rows(g.code.gen)
    return rep


def run_quantum(args) -> RunReport:
    cap = args.cap
    if args.construction == "css":
        params = {"q": args.q, "m": args.m, "nu1": args.nu1, "nu2": args.nu2}
        rep = RunReport("quantum css", params, cap=cap)
        rec = css_grm(args.q, args.m, args.nu1, args.nu2, cap)
        d_pred = rec.provenance["d_predicted"]
        k_pred = rec.provenance["k_predicted"]
    else:
        params = {"q": args.q, "m": args.m, "nu": args.nu}
        rep = RunReport("quantum hermitian", params, cap=cap)
        rec = hermitian_grm(args.q, args.m, args.nu, cap)
        d_pred = rec.provenance["d_predicted"]
        k_pred = rec.provenance["k_predicted"]
    rep.add_record(rec)
    rep.capped = rec.d_is_lower_bound
    rep.check("dimension_matches_formula", rec.k == k_pred, rec.k, k_pred)
    if rec.d_is_lower_bound:
        rep.check("distance_bound_recorded", True, rec.d, d_pred, exact=False)
    else:
        rep.check("distance_matches_formula", rec.d == d_pred, rec.d, d_pred)
        rep.check("purity_certified", rec.pure is True, rec.pure, True)
        rep.check("singleton_slack_nonnegative", rec.singleton_slack >= 0, rec.singleton_slack, ">=0")
    rep.check("stabilizer_symplectic", rec.stabilizer.is_self_orthogonal())
    if args.dump_stabilizer:
        rep.matrices["stabilizer"] = _matrix_rows(rec.stabilizer.matrix)
        rep.matrices["stabilizer_symplectic_expansion"] = _matrix_rows(rec.stabilizer.expanded())
    return rep


def run_puncture(args) -> RunReport:
    cap = args.cap
    if args.kind == "css":
        params = {"q": args.q, "m": args.m, "nu1": args.nu1, "nu2": args.nu2}
        rep = RunReport("puncture css", params, cap=cap)
        g1 = build_grm(args.q, args.m, args.nu1)
        g2 = build_grm(args.q, args.m, args.nu2)
        if not 0 <= args.nu1 <= args.nu2 <= args.m * (args.q - 1) - 1:
            raise GrmError("orders must satisfy 0 <= nu1 <= nu2 <= m(q-1)-1")
        prec = puncture_code_css(g1, g2)
        rep.check("puncture_code_is_grm_difference_order", prec.provenance.get("grm_identity", False))
        if args.list_weights:
            dist = prec.pcode.weight_distribution(cap)
            rep.tables["puncture_code_weights"] = {"counts": list(dist.counts), "exact": True}
            return rep
        w = find_weight_witness(prec, args.target_weight, cap)
        rec = puncture_css(g1, g2, w, cap, pcode_record=prec)
        rep.add_record(rec)
        rep.capped = rep.capped or rec.d_is_lower_bound
        rep.check("witness_in_puncture_code", True, w.source)
        rep.check(
            "dimension_meets_bound",
            rec.k >= rec.provenance["k_lower_bound"],
            rec.k,
            f">={rec.provenance['k_lower_bound']}",
        )
        if not rec.d_is_lower_bound:
            rep.check(
                "distance_meets_bound",
                rec.d >= rec.provenance["d_lower_bound"],
                rec.d,
                f">={rec.provenance['d_lower_bound']}",
            )
        rep.check("stabilizer_symplectic", rec.stabilizer.is_self_orthogonal())
        return rep

    params = {"q": args.q, "m": args.m, "nu": args.nu}
    rep = RunReport("puncture hermitian", params, cap=cap)
    if args.mds_chain:
        if args.m != 1:
            raise GrmError("--mds-chain is defined for m=1 inputs")
        rec = mds_chain(args.q, args.nu, cap)
        rep.add_record(rec)
        rep.check("exact_parameters", rec.exact)
        rep.check("singleton_slack_zero", rec.singleton_slack == 0, rec.singleton_slack, 0)
        expect = ((args.nu + 1) * args.q, (args.nu + 1) * args.q - 2 * args.nu - 2, args.nu + 2)
        rep.check("matches_mds_family_formula", (rec.n, rec.k, rec.d) == expect, [rec.n, rec.k, rec.d], list(expect))
        rep.check("stabilizer_symplectic", rec.stabilizer.is_self_orthogonal())
        return rep
    g = build_grm(args.q * args.q, args.m, args.nu)
    prec = puncture_code_hermitian(g)
    if args.list_weights:
        dist = prec.pcode.weight_distribution(cap)
        rep.tables["puncture_code_weights"] = {"counts": list(dist.counts), "exact": True}
        return rep
    w = find_weight_witness(prec, args.target_weight, cap)
    rec = puncture_hermitian(g, w, cap, pcode_record=prec)
    rep.add_record(rec)
    rep.capped = rep.capped or rec.d_is_lower_bound
    rep.check("witness_in_puncture_code", True, w.source)
    rep.check(
        "dimension_meets_bound",
        rec.k >= rec.provenance["k_lower_bound"],
        rec.k,
        f">={rec.provenance['k_lower_bound']}",
    )
    if not rec.d_is_lower_bound:
        rep.check(
            "distance_meets_bound",
            rec.d >= rec.provenance["d_lower_bound"],
            rec.d,
            f">={rec.provenance['d_lower_bound']}",
        )
    rep.check("stabilizer_symplectic", rec.stabilizer.is_self_orthogonal())
    return rep


def _parse_int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok != ""]


def run_sweep(args) -> RunReport:
    cap = args.cap
    qs = _parse_int_list(args.q)
    ms = _parse_int_list(args.m) if args.m else [1]
    rep = RunReport(f"sweep {args.family}", {"q": qs, "m": ms}, cap=cap)
    rows: list[dict] = []
    if args.family == "grm":
        for q in qs:
            for m in ms:
                for nu in range(m * (q - 1) + 1):
                    g = build_grm(q, m, nu)
                    w, exact = g.code.min_weight(cap)
                    ok = g.k == g.k_formula and (not exact or w == g.d_formula)
                    ok = ok and g.code.dual() == grm_dual_code(g)
                    rows.append(
                        {
                            "q": q,
                            "m": m,
                            "nu": nu,
                            "params": f"[{g.n},{g.k},{w if exact else '?'}]_{q}",
                            "exact": exact,
                            "status": "pass" if ok else "fail",
                        }
                    )
    elif args.family == "css":
        for q in qs:
            for m in ms:
                top = m * (q - 1) - 1
                for nu1 in range(top + 1):
                    for nu2 in range(nu1, top + 1):
                        rec = css_grm(q, m, nu1, nu2, cap)
                        ok = rec.k == rec.provenance["k_predicted"] and (
                            rec.d_is_lower_bound or (rec.d == rec.provenance["d_predicted"] and rec.pure)
                        )
                        rows.append(
                            {
                                "q": q,
                                "m": m,
                                "nu1": nu1,
                                "nu2": nu2,
                                "params": rec.params_str(),
                                "exact": rec.exact,
                                "status": "pass" if ok else "fail",
                            }
                        )
    elif args.family == "hermitian":
        for q in qs:
            for m in ms:
                for nu in range(m * (q - 1)):
                    rec = hermitian_grm(q, m, nu, cap)
                    ok = rec.k == rec.provenance["k_predicted"] and (
                        rec.d_is_lower_bound or rec.d == rec.provenance["d_predicted"]
                    )
                    rows.append(
                        {
                            "q": q,
                            "m": m,
                            "nu": nu,
                            "params": rec.params_str(),
                            "exact": rec.exact,
                            "status": "pass" if ok else "fail",
                        }
                    )
    elif args.family == "mds":
        for q in qs:
            for nu in range(q - 1):
                try:
                    rec = mds_chain(q, nu, cap)
                except CapExceeded:
                    # only a distance bound: this row is capped, the others stand
                    rows.append({"q": q, "nu": nu, "exact": False, "status": "capped"})
                    continue
                ok = rec.exact and rec.singleton_slack == 0
                rows.append(
                    {
                        "q": q,
                        "nu": nu,
                        "params": rec.params_str(),
                        "exact": rec.exact,
                        "slack": rec.singleton_slack,
                        "status": "pass" if ok else "fail",
                    }
                )
    rep.tables["rows"] = rows
    passes = sum(1 for r in rows if r["status"] == "pass")
    failures = sum(1 for r in rows if r["status"] == "fail")
    rep.check("all_rows_pass", failures == 0, f"{passes}/{len(rows)} pass")
    rep.capped = any(not r.get("exact", True) for r in rows)
    return rep


def _render_csv(rep: RunReport) -> str:
    rows = rep.tables.get("rows", [])
    if not rows:
        return "empty\n"
    headers = sorted({key for row in rows for key in row})
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(row.get(h, "")) for h in headers))
    return "\n".join(lines)


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap",
        type=_positive_cap,
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
    g.add_argument("-q", type=int, required=True)
    g.add_argument("-m", type=int, required=True)
    g.add_argument("--order", type=int, required=True)
    g.add_argument("--dual-check", action="store_true")
    g.add_argument("--dump-matrix", action="store_true")
    g.set_defaults(func=run_grm)

    quantum = sub.add_parser("quantum", help="derive a quantum code from GRM inputs")
    qsub = quantum.add_subparsers(dest="construction", required=True)
    qc = qsub.add_parser("css", parents=[common])
    qc.add_argument("-q", type=int, required=True)
    qc.add_argument("-m", type=int, required=True)
    qc.add_argument("--nu1", type=int, required=True)
    qc.add_argument("--nu2", type=int, required=True)
    qc.add_argument("--dump-stabilizer", action="store_true")
    qc.set_defaults(func=run_quantum, construction="css")
    qh = qsub.add_parser("hermitian", parents=[common])
    qh.add_argument("-q", type=int, required=True)
    qh.add_argument("-m", type=int, default=1)
    qh.add_argument("--nu", type=int, required=True)
    qh.add_argument("--dump-stabilizer", action="store_true")
    qh.set_defaults(func=run_quantum, construction="hermitian")

    punc = sub.add_parser("puncture", help="puncture codes, witnesses, punctured records")
    psub = punc.add_subparsers(dest="kind", required=True)
    pc = psub.add_parser("css", parents=[common])
    pc.add_argument("-q", type=int, required=True)
    pc.add_argument("-m", type=int, required=True)
    pc.add_argument("--nu1", type=int, required=True)
    pc.add_argument("--nu2", type=int, required=True)
    pc_mode = pc.add_mutually_exclusive_group(required=True)
    pc_mode.add_argument("--target-weight", type=int)
    pc_mode.add_argument("--list-weights", action="store_true")
    pc.set_defaults(func=run_puncture, kind="css")
    ph = psub.add_parser("hermitian", parents=[common])
    ph.add_argument("-q", type=int, required=True)
    ph.add_argument("-m", type=int, default=1)
    ph.add_argument("--nu", type=int, required=True)
    ph_mode = ph.add_mutually_exclusive_group(required=True)
    ph_mode.add_argument("--target-weight", type=int)
    ph_mode.add_argument("--mds-chain", action="store_true")
    ph_mode.add_argument("--list-weights", action="store_true")
    ph.set_defaults(func=run_puncture, kind="hermitian")

    sw = sub.add_parser("sweep", parents=[common], help="tabulate a family across a parameter grid")
    sw.add_argument("family", choices=["grm", "css", "hermitian", "mds"])
    sw.add_argument("-q", type=str, required=True, help="comma-separated field sizes")
    sw.add_argument("-m", type=str, default="", help="comma-separated m values (default 1)")
    sw.add_argument("--csv", action="store_true")
    sw.set_defaults(func=run_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap is None:
        raw = os.environ.get(CAP_ENV_VAR)
        try:
            args.cap = _positive_cap(raw) if raw else DEFAULT_CAP
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
    except AssertionError as exc:
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
