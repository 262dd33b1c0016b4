"""The benchmark's three verification workloads and their correctness gate.

A workload is a fixed list of cases.  Each case calls the library's public
API or the in-process CLI once (``run``), and its result is then checked
against the paper's closed forms (``check``) outside the timed region.
Library functions are looked up on their modules at call time, so the
tracer's wrappers are seen by every call.

The closed forms are written out here rather than imported from the
library, so that a wrong formula in the library cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
from dataclasses import dataclass
from typing import Callable

import grmcodes
from grmcodes import cli, grm


@dataclass(frozen=True)
class Outcome:
    """What one case produced: failed operations and each record's exactness."""

    failed: int
    exact: tuple[bool, ...]


@dataclass(frozen=True)
class Case:
    label: str
    ops: int  # operations the case counts toward `attempted`
    run: Callable[[], object]
    check: Callable[[object], Outcome]


# -- closed forms from the paper ----------------------------------------------


def grm_dim(q: int, m: int, nu: int) -> int:
    """Monomials x^a with 0 <= a_i <= q-1 and total degree <= nu."""
    return sum(1 for a in itertools.product(range(q), repeat=m) if sum(a) <= nu)


def grm_dist(q: int, m: int, nu: int) -> int:
    """(R+1) q^Q with m(q-1) - nu = (q-1)Q + R."""
    Q, R = divmod(m * (q - 1) - nu, q - 1)
    return (R + 1) * q**Q


def css_params(q: int, m: int, nu1: int, nu2: int) -> tuple[int, int, int]:
    d = min(grm_dist(q, m, m * (q - 1) - 1 - nu1), grm_dist(q, m, nu2))
    return q**m, grm_dim(q, m, nu2) - grm_dim(q, m, nu1), d


def hermitian_params(q: int, m: int, nu: int) -> tuple[int, int, int]:
    q2 = q * q
    n = q2**m
    return n, n - 2 * grm_dim(q2, m, nu), grm_dist(q2, m, m * (q2 - 1) - 1 - nu)


def mds_params(q: int, nu: int) -> tuple[int, int, int]:
    n = (nu + 1) * q
    return n, n - 2 * nu - 2, nu + 2


# -- record checks -------------------------------------------------------------


def check_record(rec: dict, params: tuple[int, int, int], mds: bool = False) -> tuple[bool, bool]:
    """(passes, exact) for one quantum record given as a dict.

    An exact record must equal the closed form and be pure; a bound record
    must carry its flag and the promised bound.  MDS records must be exact
    with Singleton slack 0.
    """
    n, k, d = params
    exact = not rec["d_is_lower_bound"]
    ok = (rec["n"], rec["k"], rec["d"]) == (n, k, d) and not rec["k_is_lower_bound"]
    if exact:
        ok = ok and rec["pure"] is True and rec["singleton_slack"] == n - k - 2 * (d - 1)
    if mds:
        ok = ok and exact and rec["singleton_slack"] == 0
    return ok, exact


def api_record_check(params: tuple[int, int, int], mds: bool = False):
    def check(rec) -> Outcome:
        ok, exact = check_record(rec.to_dict(), params, mds)
        return Outcome(0 if ok else 1, (exact,))

    return check


_PARAMS = re.compile(r"^\[\[?(\d+),(>=)?(\d+),(>=)?(\d+|\?)\]\]?_(\d+)$")


def _parse_params(text: str):
    """'[[n,k,d]]_q' or '[n,k,d]_q' -> (n, k, d or None, d_is_bound)."""
    match = _PARAMS.match(text)
    if match is None:
        return None
    n, k_ge, k, d_ge, d, _ = match.groups()
    if k_ge:
        return None
    return int(n), int(k), None if d == "?" else int(d), bool(d_ge) or d == "?"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_report(result) -> dict | None:
    """The JSON report of a CLI run that exited 0 with every check passing."""
    code, text = result
    if code != 0:
        return None
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not rep["checks"] or any(c["status"] != "pass" for c in rep["checks"]):
        return None
    return rep


def sweep_check(expected: dict) -> Callable[[object], Outcome]:
    """Check every row of a `sweep --json` report against its closed form.

    ``expected`` maps a row key (q, m, nu...) to (n, k, d); a missing or
    wrong row is one failed operation.
    """

    def check(result) -> Outcome:
        rep = _cli_report(result)
        if rep is None:
            return Outcome(len(expected), ())
        failed, exact = 0, []
        seen = set()
        for row in rep["tables"]["rows"]:
            key = tuple(row[f] for f in ("q", "m", "nu1", "nu2", "nu") if f in row)
            parsed = _parse_params(row["params"])
            want = expected.get(key)
            if want is None or key in seen or parsed is None:
                failed += 1
                continue
            seen.add(key)
            n, k, d, bound = parsed
            ok = row["status"] == "pass" and row["exact"] is not bound and (n, k) == want[:2]
            if bound:
                ok = ok and d in (None, want[2])
            else:
                ok = ok and d == want[2]
            failed += not ok
            exact.append(not bound)
        failed += len(expected) - len(seen)
        return Outcome(failed, tuple(exact))

    return check


def cli_record_check(params: tuple[int, int, int], mds: bool = False):
    def check(result) -> Outcome:
        rep = _cli_report(result)
        if rep is None or len(rep["records"]) != 1:
            return Outcome(1, ())
        ok, exact = check_record(rep["records"][0], params, mds)
        return Outcome(0 if ok else 1, (exact,))

    return check


def cli_puncture_check(n: int):
    """A witness-punctured record: CLI checks pass and the length is the witness weight."""

    def check(result) -> Outcome:
        rep = _cli_report(result)
        if rep is None or len(rep["records"]) != 1 or rep["records"][0]["n"] != n:
            return Outcome(1, ())
        return Outcome(0, (not rep["records"][0]["d_is_lower_bound"],))

    return check


# -- workload: hermitian-mds ---------------------------------------------------


def hermitian_mds() -> list[Case]:
    cases = []
    for q in (3, 4, 5, 7, 8):
        for nu in range(min(3, q - 2) + 1):
            cases.append(
                Case(
                    f"mds_chain({q},{nu})",
                    1,
                    lambda q=q, nu=nu: grmcodes.mds_chain(q, nu),
                    api_record_check(mds_params(q, nu), mds=True),
                )
            )
    for nu in (1, 3, 5):
        cases.append(
            Case(
                f"hermitian_grm(4,2,{nu})",
                1,
                lambda nu=nu: grmcodes.hermitian_grm(4, 2, nu),
                api_record_check(hermitian_params(4, 2, nu)),
            )
        )
    return cases


# -- workload: grm-css-sweep ---------------------------------------------------


def grm_css_sweep() -> list[Case]:
    grm_rows = {
        (q, m, nu): (q**m, grm_dim(q, m, nu), grm_dist(q, m, nu))
        for q in (2, 3, 4, 5)
        for m in (1, 2)
        for nu in range(m * (q - 1) + 1)
    }
    css_rows = {
        (q, m, nu1, nu2): css_params(q, m, nu1, nu2)
        for q in (2, 3, 4)
        for m in (1, 2)
        for nu1 in range(m * (q - 1))
        for nu2 in range(nu1, m * (q - 1))
    }
    argvs = [
        ("sweep grm -q 2,3,4,5 -m 1,2 --json", len(grm_rows), sweep_check(grm_rows)),
        ("sweep css -q 2,3,4 -m 1,2 --json", len(css_rows), sweep_check(css_rows)),
        (
            "quantum css -q 5 -m 2 --nu1 1 --nu2 3 --json",
            1,
            cli_record_check(css_params(5, 2, 1, 3)),
        ),
    ]
    return [
        Case(argv, ops, lambda argv=argv: run_cli(argv.split()), check)
        for argv, ops, check in argvs
    ]


# -- workload: puncture-build --------------------------------------------------

# The paper proves only that the known restriction subcodes lie inside the
# Hermitian puncture code, not its dimension, so these dimensions are
# reference values from the initial implementation.
HERMITIAN_PCODE_DIM = {
    (3, 0): 80, (3, 1): 72, (3, 2): 45, (3, 3): 15,
    (4, 1): 247, (4, 2): 220, (4, 3): 156, (4, 4): 83, (4, 5): 25,
}


def _pcode_hermitian_check(q: int, nu: int):
    m = 2

    def check(rec) -> Outcome:
        pcode = rec.pcode
        known = rec.known_subcodes
        ok = (
            pcode.field.q == q
            and pcode.n == q ** (2 * m)
            and pcode.k == HERMITIAN_PCODE_DIM[q, nu]
            # one restriction subcode per mu in [(q+1)nu, m(q^2-1))
            and len(known) == m * (q * q - 1) - (q + 1) * nu
            and all(sub.k <= pcode.k and sub.n == pcode.n for _, sub in known)
        )
        return Outcome(0 if ok else 1, ())

    return check


def _pcode_css_check(q: int, m: int, nu1: int, nu2: int):
    def check(rec) -> Outcome:
        pcode = rec.pcode
        ok = (
            rec.provenance.get("grm_identity") is True
            and (pcode.n, pcode.k) == (q**m, grm_dim(q, m, nu2 - nu1))
            and len(rec.known_subcodes) == nu2 - nu1 + 1
        )
        return Outcome(0 if ok else 1, ())

    return check


def _dual_identity(nu: int):
    g = grmcodes.build_grm(16, 2, nu)
    dual = g.code.dual()
    return g.k, dual.k, dual == grm.grm_dual_code(g)


def _dual_identity_check(nu: int):
    def check(result) -> Outcome:
        k, k_dual, equal = result
        ok = equal and k == grm_dim(16, 2, nu) and k_dual == 256 - k
        return Outcome(0 if ok else 1, ())

    return check


def puncture_build() -> list[Case]:
    cases = []
    for q, nus in ((3, range(4)), (4, range(1, 6))):
        for nu in nus:
            cases.append(
                Case(
                    f"puncture_code_hermitian(build_grm({q * q},2,{nu}))",
                    1,
                    lambda q=q, nu=nu: grmcodes.puncture_code_hermitian(grmcodes.build_grm(q * q, 2, nu)),
                    _pcode_hermitian_check(q, nu),
                )
            )
    for q, m in ((5, 2), (7, 2)):
        top = m * (q - 1) - 1
        for nu1 in range(top + 1):
            for nu2 in range(nu1, top + 1):
                cases.append(
                    Case(
                        f"puncture_code_css({q},{m},{nu1},{nu2})",
                        1,
                        lambda q=q, m=m, nu1=nu1, nu2=nu2: grmcodes.puncture_code_css(
                            grmcodes.build_grm(q, m, nu1), grmcodes.build_grm(q, m, nu2)
                        ),
                        _pcode_css_check(q, m, nu1, nu2),
                    )
                )
    for nu in range(2 * 15 + 1):
        cases.append(Case(f"dual_identity(16,2,{nu})", 1, lambda nu=nu: _dual_identity(nu), _dual_identity_check(nu)))
    for argv, n in (
        ("puncture hermitian -q 5 --nu 2 --target-weight 15 --json", 15),
        ("puncture hermitian -q 3 -m 2 --nu 2 --target-weight 27 --json", 27),
    ):
        cases.append(Case(argv, 1, lambda argv=argv: run_cli(argv.split()), cli_puncture_check(n)))
    return cases


WORKLOADS = {
    "hermitian-mds": hermitian_mds,
    "grm-css-sweep": grm_css_sweep,
    "puncture-build": puncture_build,
}
