"""CLI behaviour: commands, exit codes, output determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grmcodes.cli as cli
import grmcodes.grm as grm
import grmcodes.puncture as puncture
import grmcodes.qcode as qcode
from grmcodes.cli import (
    EXIT_ABSENT,
    EXIT_CAPPED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from grmcodes.errors import ParameterMismatch


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grm_command(capsys):
    code, out, _ = run(capsys, "grm", "-q", "3", "-m", "2", "--order", "1", "--dual-check")
    assert code == EXIT_OK
    assert "[9,3,6]_3" in out
    assert "result: PASS" in out


def test_grm_dump_matrix(capsys):
    code, out, _ = run(capsys, "grm", "-q", "2", "-m", "1", "--order", "0", "--dump-matrix")
    assert code == EXIT_OK
    assert "[2,1,2]_2" in out
    assert "1 1" in out  # generator row of the repetition code


def test_quantum_css_command(capsys):
    code, out, _ = run(capsys, "quantum", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "2")
    assert code == EXIT_OK
    assert "[[9,3,3]]_3" in out and "pure=True" in out


def test_quantum_hermitian_commands(capsys):
    code, out, _ = run(capsys, "quantum", "hermitian", "-q", "2", "-m", "1", "--nu", "0")
    assert code == EXIT_OK and "[[4,2,2]]_2" in out
    code, out, _ = run(capsys, "quantum", "hermitian", "-q", "3", "-m", "1", "--nu", "1")
    assert code == EXIT_OK and "[[9,5,3]]_3" in out and "mds=True" in out


def test_puncture_mds_chain_command(capsys):
    code, out, _ = run(capsys, "puncture", "hermitian", "-q", "3", "--nu", "1", "--mds-chain")
    assert code == EXIT_OK
    assert "[[6,2,3]]_3" in out and "slack=0" in out


def test_puncture_list_weights(capsys):
    code, out, _ = run(
        capsys, "puncture", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "2", "--list-weights"
    )
    assert code == EXIT_OK
    table = json.loads(out.splitlines()[2].split(": ", 1)[1])
    assert table["counts"][6] == 24 and table["exact"]


@pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["default", "strict"])
def test_list_weights_over_cap_exits_capped(capsys, strict):
    # the [256, 156]_4 puncture code: q^k = 4^156 and its dual 4^100, so no
    # exact distribution fits either side, and no sampled one is printed
    code, out, err = run(
        capsys, "puncture", "hermitian", "-q", "4", "-m", "2", "--nu", "3", "--list-weights", *strict
    )
    assert code == EXIT_CAPPED
    assert out == "" and "exact distribution" in err


def test_hermitian_list_weights_builds_no_subcodes(capsys, monkeypatch):
    # only the witness search reads the restriction subcodes, so listing
    # the weights builds none of them; the [81, 72]_3 code's distribution
    # comes from its dual's 3^9 words
    built = []
    real = puncture.build_grm
    monkeypatch.setattr(puncture, "build_grm", lambda q, m, nu: built.append((q, m, nu)) or real(q, m, nu))
    code, _, _ = run(capsys, "puncture", "hermitian", "-q", "3", "-m", "2", "--nu", "1", "--list-weights")
    assert code == EXIT_OK
    assert built == []


@pytest.mark.parametrize(
    "nu, k, weights",
    [(1, 21, set(range(4, 26))), (2, 16, {6, *range(8, 26)})],
)
def test_hermitian_list_weights_through_the_dual(capsys, nu, k, weights):
    # P(C) for C = R_25(nu, 1) is [25, 21]_5 (nu = 1) or [25, 16]_5 (nu = 2):
    # its distribution is carried over from its dual's 5^4 or 5^9 words.
    # At nu = 2 no word weighs 5 or 7, so no punctured code has length 5 or 7
    code, out, _ = run(capsys, "puncture", "hermitian", "-q", "5", "--nu", str(nu), "--list-weights", "--json")
    assert code == EXIT_OK
    table = json.loads(out)["tables"]["puncture_code_weights"]
    counts = table["counts"]
    assert table["exact"] and len(counts) == 26 and counts[0] == 1
    assert sum(counts) == 5**k
    assert {w for w, c in enumerate(counts) if c and w} == weights


def test_css_list_weights_decides_the_identity_in_the_puncture_code(capsys, monkeypatch):
    # R_3(2, 2), the difference order of (1, 3), planted as R_3(1, 2) where
    # puncture_code_css builds it: the identity fails there, and listing
    # the weights exits 4 with its message and no report
    real = puncture.build_grm
    monkeypatch.setattr(puncture, "build_grm", lambda q, m, nu: real(q, m, nu - ((q, m, nu) == (3, 2, 2))))
    argv = ("puncture", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "3", "--list-weights")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_MISMATCH and out == ""
    assert err == (
        "mismatch: CSSPunctureCode check puncture_code_is_grm_difference_order failed:"
        " observed [9,6], expected grm(q=3,m=2,nu=2) = [9,3]\n"
    )
    monkeypatch.setattr(puncture, "build_grm", real)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and "check [PASS] puncture_code_is_grm_difference_order" in out


def test_puncture_full_weight_witness(capsys):
    code, out, _ = run(
        capsys, "puncture", "hermitian", "-q", "2", "--nu", "0", "--target-weight", "4"
    )
    assert code == EXIT_OK
    assert "[[4,2,2]]_2" in out


def test_exit_absent_for_impossible_weight(capsys):
    code, _, err = run(
        capsys, "puncture", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "1", "--target-weight", "5"
    )
    assert code == EXIT_ABSENT
    assert "proven absent" in err


def test_exit_capped_for_inconclusive_scan(capsys):
    code, _, err = run(
        capsys,
        "puncture", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "1",
        "--target-weight", "5", "--cap", "2",
    )
    assert code == EXIT_CAPPED


def test_exit_usage_on_bad_parameters(capsys):
    code, _, err = run(capsys, "quantum", "css", "-q", "3", "-m", "2", "--nu1", "2", "--nu2", "1")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "grm", "-q", "6", "-m", "1", "--order", "0")
    assert code == EXIT_USAGE


HERMITIAN_Q3_RANGE = "error: need 0 <= nu <= m(q-1)-1 = 1 for q=3, m=1, got nu=2\n"
CSS_Q3_M2_RANGE = "error: need 0 <= nu1 <= nu2 <= m(q-1)-1 = 3 for q=3, m=2, got nu1=1, nu2=4\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("quantum", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "4"), CSS_Q3_M2_RANGE),
        (("quantum", "hermitian", "-q", "3", "-m", "1", "--nu", "2"), HERMITIAN_Q3_RANGE),
        (
            ("puncture", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "4", "--target-weight", "3"),
            CSS_Q3_M2_RANGE,
        ),
        (("puncture", "hermitian", "-q", "3", "--nu", "2", "--target-weight", "9"), HERMITIAN_Q3_RANGE),
        (("puncture", "hermitian", "-q", "3", "--nu", "2", "--list-weights"), HERMITIAN_Q3_RANGE),
        (("puncture", "hermitian", "-q", "3", "--nu", "2", "--mds-chain"), HERMITIAN_Q3_RANGE),
        (
            ("puncture", "hermitian", "-q", "3", "-m", "2", "--nu", "4", "--target-weight", "3"),
            "error: need 0 <= nu <= m(q-1)-1 = 3 for q=3, m=2, got nu=4\n",
        ),
    ],
    ids=[
        "quantum-css",
        "quantum-hermitian",
        "puncture-css",
        "puncture-hermitian-target-weight",
        "puncture-hermitian-list-weights",
        "puncture-hermitian-mds-chain",
        "puncture-hermitian-m2-target-weight",
    ],
)
def test_order_one_past_the_quantum_range_exits_usage(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", message)


def test_strict_mode_exits_capped_on_degraded_record(capsys):
    code, out, _ = run(
        capsys, "quantum", "css", "-q", "3", "-m", "2", "--nu1", "0", "--nu2", "3",
        "--cap", "2", "--strict",
    )
    assert code == EXIT_CAPPED
    assert "capped: true" in out


def test_grm_distance_stays_a_bound_when_the_support_route_does_not_fit_the_cap(capsys):
    # [25,15,5]_5 is exact at the default cap.  At cap 249 the weight <= 5
    # supports (68,405) do not fit, so the support route is not tried, and
    # the footprint route's price, n min(k, n - k) = 250, does not fit
    # either; at cap 250 the footprint settles it
    code, out, _ = run(capsys, "grm", "-q", "5", "-m", "2", "--order", "4", "--cap", "249")
    assert code == EXIT_OK
    assert "[25,15,>=2]_5" in out and "capped: true" in out
    for cap in (("--cap", "250"), ()):
        code, out, _ = run(capsys, "grm", "-q", "5", "-m", "2", "--order", "4", *cap)
        assert code == EXIT_OK
        assert "[25,15,5]_5" in out and "capped: false" in out


def test_json_reports_are_deterministic(capsys):
    args = ("quantum", "hermitian", "-q", "3", "-m", "1", "--nu", "1", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["records"][0]["params"] == "[[9,5,3]]_3"
    assert {c["name"] for c in payload["checks"]} >= {"dimension_matches_formula", "stabilizer_symplectic"}
    assert "timing_seconds" not in payload


def test_sweep_css_all_pass(capsys):
    code, out, _ = run(capsys, "sweep", "css", "-q", "2,3", "-m", "1,2")
    assert code == EXIT_OK
    assert "all_rows_pass" in out


def test_sweep_mds_keeps_rows_around_capped_ones(capsys):
    argv = ("sweep", "mds", "-q", "5", "--cap", "256", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = [(r["nu"], r.get("params"), r["exact"], r["status"]) for r in payload["tables"]["rows"]]
    assert rows == [
        (0, "[[5,3,2]]_5", True, "pass"),
        (1, "[[10,6,3]]_5", True, "pass"),
        (2, None, False, "capped"),
        (3, None, False, "capped"),
    ]
    assert payload["capped"] is True
    assert payload["checks"] == [
        {"name": "all_rows_pass", "status": "pass", "observed": "2/4 pass", "expected": None, "exact": True}
    ]
    code, _, _ = run(capsys, *argv, "--strict")
    assert code == EXIT_CAPPED


CAPPED_MDS_CHAIN = ("puncture", "hermitian", "-q", "5", "--nu", "3", "--mds-chain", "--cap", "16")


def test_capped_mds_chain_exits_capped(capsys):
    code, _, err = run(capsys, *CAPPED_MDS_CHAIN)
    assert code == EXIT_CAPPED
    assert "only a distance bound" in err


def test_capped_mds_chain_exits_capped_without_asserts():
    # python -O strips assert statements; exit codes must not depend on them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "grmcodes", *CAPPED_MDS_CHAIN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == EXIT_CAPPED, proc.stderr
    assert "only a distance bound" in proc.stderr


@pytest.mark.parametrize(
    "env_cap,argv_cap",
    [("abc", ()), (None, ("--cap", "0")), (None, ("--cap", "-5"))],
    ids=["env-not-a-number", "cap-zero", "cap-negative"],
)
def test_bad_cap_exits_usage(capsys, monkeypatch, env_cap, argv_cap):
    if env_cap is None:
        monkeypatch.delenv("GRMCODES_CAP", raising=False)
    else:
        monkeypatch.setenv("GRMCODES_CAP", env_cap)
    with pytest.raises(SystemExit) as exc:
        main(["grm", "-q", "2", "-m", "1", "--order", "0", *argv_cap])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "expected a positive integer" in err
    if env_cap is not None:
        assert "GRMCODES_CAP" in err


def test_one_parser_serves_every_command_in_a_process(capsys, monkeypatch):
    # build_parser is built once per process; each main call parses into a
    # fresh namespace and reads the environment itself, so no command's
    # options reach a later one, and bad input still exits 2
    monkeypatch.delenv("GRMCODES_CAP", raising=False)
    assert cli.build_parser() is cli.build_parser()
    grm_json = ("grm", "-q", "3", "-m", "2", "--order", "1", "--json")
    sweep_csv = ("sweep", "css", "-q", "2", "-m", "1,2", "--csv")
    first = run(capsys, *grm_json), run(capsys, *sweep_csv)
    assert first[0][0] == first[1][0] == EXIT_OK
    assert (run(capsys, *grm_json), run(capsys, *sweep_csv)) == first
    bad = [("sweep", "css", "-q", "2", "--csv", "--json"), ("grm", "-q", "3", "-m", "2"), (*grm_json, "--cap", "0")]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert "error" in capsys.readouterr().err
    assert run(capsys, *grm_json) == first[0]


def test_cap_env_variable_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("GRMCODES_CAP", "123456")
    code, out, _ = run(capsys, "grm", "-q", "2", "-m", "1", "--order", "0")
    assert code == EXIT_OK
    assert "cap: 123456" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grmcodes", "grm", "-q", "3", "-m", "1", "--order", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[3,2,2]_3" in proc.stdout


def test_sweep_csv_output(capsys):
    code, out, _ = run(capsys, "sweep", "mds", "-q", "3", "--csv")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l]
    assert lines[0].startswith("exact,")
    assert any("[[6,2,3]]_3" in l for l in lines)


@pytest.mark.parametrize(
    "argv",
    [("sweep", "mds", "-q", "3,4"), ("sweep", "grm", "-q", "2,3", "-m", "1,2"), ("sweep", "css", "-q", "2", "-m", "1,2")],
)
def test_sweep_csv_rows_parse_to_the_header_width(capsys, argv):
    # the params field holds commas; unquoted it would split into columns
    code, out, _ = run(capsys, *argv, "--csv")
    assert code == EXIT_OK
    header, *rows = list(csv.reader(out.splitlines()))
    assert rows and "params" in header
    assert all(len(row) == len(header) for row in rows)
    params = [row[header.index("params")] for row in rows]
    assert all(p.startswith("[") and p.count(",") == 2 for p in params)


def test_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, "sweep", "grm", "-q", "", "-m", "")
    assert code == EXIT_OK


def test_sweep_explicitly_empty_m_grid_is_an_empty_sweep(capsys):
    # only an absent -m takes the default m = 1
    code, out, _ = run(capsys, "sweep", "grm", "-q", "3", "-m", ",", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tables"]["rows"] == [] and report["params"]["m"] == []


def exit_code(capsys, *argv):
    """Exit code and stderr, whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("sweep", "grm", "-q", "a"), "expected a field size"),
        (("sweep", "grm", "-q", "2", "-m", "x"), "expected a positive integer"),
        (("sweep", "css", "-q", "3", "-m", "-2"), "expected a positive integer"),
        (("sweep", "hermitian", "-q", "3", "-m", "-1"), "expected a positive integer"),
        (("sweep", "mds", "-q", "3", "-m", "2"), "m=1"),
    ],
    ids=["grm-q-not-a-number", "grm-m-not-a-number", "css-m-negative", "hermitian-m-negative", "mds-m-not-1"],
)
def test_bad_sweep_grid_exits_usage(capsys, argv, message):
    code, err = exit_code(capsys, *argv)
    assert code == EXIT_USAGE
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("grm", "-q", "{q}", "-m", "{m}", "--order", "0"),
        ("quantum", "css", "-q", "{q}", "-m", "{m}", "--nu1", "0", "--nu2", "0"),
        ("quantum", "hermitian", "-q", "{q}", "-m", "{m}", "--nu", "0"),
        ("puncture", "css", "-q", "{q}", "-m", "{m}", "--nu1", "0", "--nu2", "0", "--list-weights"),
        ("puncture", "hermitian", "-q", "{q}", "-m", "{m}", "--nu", "0", "--mds-chain"),
        ("sweep", "grm", "-q", "{q}", "-m", "{m}"),
    ],
    ids=["grm", "quantum-css", "quantum-hermitian", "puncture-css", "puncture-hermitian", "sweep"],
)
def test_q_and_m_have_one_type_in_every_subcommand(capsys, argv):
    # -m 0 once reached the library and was reported against nu (quantum
    # hermitian: "need 0 <= nu <= m(q-1)-1 = -1"); -q and -m are now
    # parsed alike everywhere
    for q, m, message in (
        ("3", "0", "expected a positive integer, got '0'"),
        ("1", "1", "expected a field size of at least 2, got '1'"),
    ):
        code, err = exit_code(capsys, *(a.format(q=q, m=m) for a in argv))
        assert code == EXIT_USAGE and message in err


def test_negative_target_weight_exits_usage(capsys):
    # a weight of 0 punctures to nothing, so it is rejected with the negatives
    for weight in ("-1", "0"):
        code, err = exit_code(capsys, "puncture", "hermitian", "-q", "3", "--nu", "0", "--target-weight", weight)
        assert code == EXIT_USAGE
        assert f"expected a positive integer, got '{weight}'" in err


@pytest.mark.parametrize("flag", ["--json", "--timing"])
def test_sweep_csv_rejects_json_and_timing(capsys, flag):
    code, err = exit_code(capsys, "sweep", "grm", "-q", "2", "--csv", flag)
    assert code == EXIT_USAGE
    assert "--csv cannot be combined with --json or --timing" in err


def test_parameter_mismatch_exits_mismatch_and_assertion_error_is_not_caught(capsys, monkeypatch):
    def mismatch(*args):
        raise ParameterMismatch("planted")

    monkeypatch.setattr(cli, "css_grm", mismatch)
    code, _, err = run(capsys, "quantum", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "2")
    assert code == EXIT_MISMATCH
    assert err == "mismatch: planted\n"

    def internal_bug(*args):
        raise AssertionError("internal")

    monkeypatch.setattr(cli, "css_grm", internal_bug)
    with pytest.raises(AssertionError):
        main(["quantum", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "2"])


def test_planted_grm_distance_fails_the_command_and_its_sweep_row(capsys, monkeypatch):
    # d(R_3(1, 2)) planted one too high: the single command and the sweep
    # row build the same record, whose check fails through ParameterMismatch
    true_distance = grm.grm_distance
    monkeypatch.setattr(
        grm, "grm_distance", lambda q, m, nu: true_distance(q, m, nu) + ((q, m, nu) == (3, 2, 1))
    )
    message = "classical-grm check enumerated_distance_equals_formula failed: observed 6, expected 7"
    code, out, err = run(capsys, "grm", "-q", "3", "-m", "2", "--order", "1", "--json")
    assert code == EXIT_MISMATCH
    assert out == "" and err == f"mismatch: {message}\n"
    code, out, _ = run(capsys, "sweep", "grm", "-q", "3", "-m", "2", "--json")
    assert code == EXIT_MISMATCH
    report = json.loads(out)
    rows = {r["nu"]: r for r in report["tables"]["rows"]}
    assert {nu: r["status"] for nu, r in rows.items()} == {0: "pass", 1: "fail", 2: "pass", 3: "pass", 4: "pass"}
    assert rows[1]["mismatch"] == message and all("mismatch" not in r for nu, r in rows.items() if nu != 1)
    assert {c["name"]: (c["status"], c["observed"]) for c in report["checks"]} == {"all_rows_pass": ("fail", "4/5 pass")}


def test_planted_grm_dimension_fails_the_command_and_its_sweep_rows(capsys, monkeypatch):
    # k(R_3(1, 2)) planted one too high: GrmCode decides the rank as the
    # report's named check, so the command and every sweep row that builds
    # the code (order 1, and order 2 through its dual) fail through it
    true_dimension = grm.grm_dimension
    monkeypatch.setattr(
        grm, "grm_dimension", lambda q, m, nu: true_dimension(q, m, nu) + ((q, m, nu) == (3, 2, 1))
    )
    message = "classical-grm check rank_equals_dimension_formula failed: observed 3, expected 4"
    code, out, err = run(capsys, "grm", "-q", "3", "-m", "2", "--order", "1")
    assert code == EXIT_MISMATCH
    assert out == "" and err == f"mismatch: {message}\n"
    code, out, _ = run(capsys, "sweep", "grm", "-q", "3", "-m", "2", "--json")
    assert code == EXIT_MISMATCH
    rows = {r["nu"]: r for r in json.loads(out)["tables"]["rows"]}
    assert {nu: r["status"] for nu, r in rows.items()} == {0: "pass", 1: "fail", 2: "fail", 3: "pass", 4: "pass"}
    assert rows[1]["mismatch"] == rows[2]["mismatch"] == message


def test_planted_symplectic_gram_exits_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(qcode.StabilizerMatrix, "symplectic_gram", lambda self: [[1]])
    code, out, err = run(capsys, "quantum", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "2")
    assert code == EXIT_MISMATCH and out == ""
    assert err == "mismatch: CSS check stabilizer_symplectic failed: observed None, expected None\n"


def test_empty_mds_witness_scan_contradicts_the_chain(capsys, monkeypatch):
    # the paper guarantees the scan a witness: finding none is a mismatch
    # (exit 4), and in a sweep each such row fails while the report stands
    monkeypatch.setattr(puncture, "find_first_of_weight", lambda *args: None)
    code, out, err = run(capsys, "sweep", "mds", "-q", "3,4", "--json")
    assert code == EXIT_MISMATCH and err == ""
    report = json.loads(out)
    rows = report["tables"]["rows"]
    assert [(r["q"], r["nu"], r["status"]) for r in rows] == [
        (3, 0, "fail"), (3, 1, "fail"), (4, 0, "fail"), (4, 1, "fail"), (4, 2, "fail")
    ]
    assert rows[0]["mismatch"] == "no weight-3 vector in grm(q=3,m=2,nu=2); this contradicts the chain"
    assert all("this contradicts the chain" in r["mismatch"] for r in rows)
    assert report["checks"][0]["observed"] == "0/5 pass" and report["capped"] is False
    code, out, err = run(capsys, "puncture", "hermitian", "-q", "3", "--nu", "1", "--mds-chain")
    assert code == EXIT_MISMATCH and out == ""
    assert err == "mismatch: no weight-6 vector in grm(q=3,m=2,nu=1); this contradicts the chain\n"


def test_mismatch_row_fails_and_the_other_rows_stand(capsys, monkeypatch):
    # d(R_3(2, 2)) planted one too high: css_grm raises ParameterMismatch on
    # every row whose predicted distance uses it, and only those rows fail
    true_distance = qcode.grm_distance
    monkeypatch.setattr(
        qcode, "grm_distance", lambda q, m, nu: true_distance(q, m, nu) + ((q, m, nu) == (3, 2, 2))
    )
    code, out, _ = run(capsys, "sweep", "css", "-q", "2,3", "-m", "2", "--json")
    assert code == EXIT_MISMATCH
    report = json.loads(out)
    rows = report["tables"]["rows"]
    failed = {(r["nu1"], r["nu2"]) for r in rows if r["status"] == "fail"}
    assert failed == {(1, 1), (1, 2), (2, 2)}
    message = "CSS check distance_matches_formula failed: observed 3, expected 4"
    assert all(r["q"] == 3 and r["mismatch"] == message for r in rows if r["status"] == "fail")
    assert len(rows) == 13 and sum(r["status"] == "pass" for r in rows) == 10
    assert report["capped"] is False
    assert {c["name"]: c["observed"] for c in report["checks"]} == {"all_rows_pass": "10/13 pass"}


# Each family's closed form planted wrong in a python -O subprocess: the
# library call must raise ParameterMismatch naming the failed check, and
# the command built on it must exit 4 with the same message.  The MDS
# family's formula is written only in mds_chain, so there the plant is on
# the other side: the punctured record it checks reports k - 2 and d + 1,
# which keeps the Singleton slack at 0 and breaks only the formula.
PLANTED_FAMILY = """
import sys
import grmcodes.cli as cli
import grmcodes.puncture as puncture
import grmcodes.qcode as qcode
from grmcodes.errors import ParameterMismatch
from grmcodes.grm import build_grm
true_distance = qcode.grm_distance
planted = tuple(int(v) for v in sys.argv[2].split(",")) if sys.argv[2] else None
qcode.grm_distance = lambda q, m, nu: true_distance(q, m, nu) + ((q, m, nu) == planted)
true_puncture_hermitian = puncture.puncture_hermitian
def shifted(*args, **kwargs):
    rec = true_puncture_hermitian(*args, **kwargs)
    rec.k, rec.d = rec.k - 2, rec.d + 1
    return rec
if sys.argv[1] == "mds_chain":
    puncture.puncture_hermitian = shifted
def punctured(g, r, pcode, materialize):
    prec = pcode(*g)
    return materialize(*g, puncture.find_weight_witness(prec, r), pcode_record=prec)
calls = {
    "hermitian_grm": lambda: qcode.hermitian_grm(3, 1, 1),
    "puncture_css": lambda: punctured(
        (build_grm(3, 2, 1), build_grm(3, 2, 2)), 6, puncture.puncture_code_css, puncture.puncture_css
    ),
    "puncture_hermitian": lambda: punctured(
        (build_grm(25, 1, 2),), 15, puncture.puncture_code_hermitian, puncture.puncture_hermitian
    ),
    "mds_chain": lambda: puncture.mds_chain(5, 2),
}
try:
    rec = calls[sys.argv[1]]()
except ParameterMismatch as exc:
    print("ParameterMismatch:", exc)
else:
    print("record", rec.params_str())
print("exit", cli.main(sys.argv[3].split()))
"""


@pytest.mark.parametrize(
    "family,plant,command,message",
    [
        (
            "hermitian_grm",
            "9,1,6",
            "quantum hermitian -q 3 -m 1 --nu 1",
            "Hermitian check distance_matches_formula failed: observed 3, expected 4",
        ),
        (
            "puncture_css",
            "3,2,2",
            "puncture css -q 3 -m 2 --nu1 1 --nu2 2 --target-weight 6",
            "PuncturedCSS check distance_meets_bound failed: observed 3, expected >=4",
        ),
        (
            "puncture_hermitian",
            "25,1,21",
            "puncture hermitian -q 5 --nu 2 --target-weight 15",
            "PuncturedHermitian check distance_meets_bound failed: observed 4, expected >=5",
        ),
        (
            "mds_chain",
            "",
            "puncture hermitian -q 5 --nu 2 --mds-chain",
            "PuncturedHermitian check matches_mds_family_formula failed: observed [15, 7, 5], expected [15, 9, 4]",
        ),
    ],
    ids=["hermitian_grm", "puncture_css", "puncture_hermitian", "mds_chain"],
)
def test_planted_family_closed_form_raises_and_exits_mismatch_without_asserts(family, plant, command, message):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_FAMILY, family, plant, command],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ParameterMismatch: {message}\nexit {EXIT_MISMATCH}\n"
    assert proc.stderr == f"mismatch: {message}\n"


@pytest.mark.parametrize(
    "argv,n",
    [
        (("puncture", "hermitian", "-q", "3", "-m", "2", "--nu", "2", "--target-weight", "82"), 81),
        (("puncture", "hermitian", "-q", "4", "--nu", "1", "--target-weight", "17"), 16),
        (("puncture", "hermitian", "-q", "4", "-m", "2", "--nu", "1", "--target-weight", "257"), 256),
        (("puncture", "css", "-q", "3", "-m", "2", "--nu1", "1", "--nu2", "2", "--target-weight", "10"), 9),
    ],
    ids=["over-the-cap", "within-the-cap", "restriction-subcodes", "css"],
)
def test_target_weight_above_the_length_is_absent_without_a_scan(capsys, monkeypatch, argv, n):
    # the length is known from the GRM code, so no puncture code is built either
    def scan(*args):
        raise AssertionError("a weight above the length needs no scan and no puncture code")

    monkeypatch.setattr(puncture, "find_first_of_weight", scan)
    for module in (cli, puncture):
        monkeypatch.setattr(module, "puncture_code_css", scan)
        monkeypatch.setattr(module, "puncture_code_hermitian", scan)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ABSENT
    assert out == ""
    assert err == f"error: weight {argv[-1]} exceeds the length {n}\n"


def test_over_length_grm_exits_usage(capsys):
    code, out, err = run(capsys, "grm", "-q", "2", "-m", "9", "--order", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: q^m = 512 exceeds the configured maximum 256\n"


def test_stabilizer_dump(capsys):
    code, out, _ = run(
        capsys, "quantum", "css", "-q", "2", "-m", "2", "--nu1", "0", "--nu2", "1", "--dump-stabilizer"
    )
    assert code == EXIT_OK
    assert "stabilizer:" in out


# Reports written by the commands below with --json at the default cap;
# the JSON report is the regression oracle, so any byte that moves fails.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_COMMANDS = {
    "sweep_css_q2_3_m1_2": "sweep css -q 2,3 -m 1,2",
    "quantum_hermitian_q4_m2_nu3": "quantum hermitian -q 4 -m 2 --nu 3",
    "puncture_hermitian_q3_m2_nu2_w27": "puncture hermitian -q 3 -m 2 --nu 2 --target-weight 27",
    "sweep_mds_q3_4_5": "sweep mds -q 3,4,5",
    # the frontier: [[35,25,6]]_7 and [[40,30,6]]_8, whose support searches
    # certify every 5-subset at w = r = 5, and three capped rows
    "sweep_mds_q7_8": "sweep mds -q 7,8",
    # C2 minus C1 within the cap, settled by the footprint where the search
    # would build its information sets, and C1-perp minus C2-perp over the
    # cap, where the search's first look settles the weight
    "quantum_css_q5_m2_nu1_1_nu2_3": "quantum css -q 5 -m 2 --nu1 1 --nu2 3",
    # its [256,253]_16 side is over the cap: the weight distributions settle it
    "quantum_hermitian_q4_m2_nu1": "quantum hermitian -q 4 -m 2 --nu 1",
    # the search's first look settles 8 rows, the footprint [16,10]_4 and
    # R_5(3,2) = [25,10,10]_5 where the search would build its information
    # sets, the support search R_5(4,2), and the distributions the rest
    "sweep_grm_q2_3_4_5_m1_2": "sweep grm -q 2,3,4,5 -m 1,2",
    "grm_q3_m2_order1_dual_dump": "grm -q 3 -m 2 --order 1 --dual-check --dump-matrix",
    # exact at cap 50000 by the footprint route, priced at 25 * 10
    "grm_q5_m2_order4_cap50000": "grm -q 5 -m 2 --order 4 --cap 50000",
    # RREF generators written by the Lagrange construction, over GF(16)
    # and in three variables
    "grm_q16_m2_order2_dump": "grm -q 16 -m 2 --order 2 --dump-matrix",
    "grm_q4_m3_order2_dump": "grm -q 4 -m 3 --order 2 --dump-matrix",
    "quantum_css_q2_m2_nu1_0_nu2_1_dump": "quantum css -q 2 -m 2 --nu1 0 --nu2 1 --dump-stabilizer",
    "quantum_hermitian_q3_m1_nu1_dump": "quantum hermitian -q 3 -m 1 --nu 1 --dump-stabilizer",
    "puncture_css_q3_m2_nu1_1_nu2_2_w6": "puncture css -q 3 -m 2 --nu1 1 --nu2 2 --target-weight 6",
    "puncture_css_q3_m2_nu1_1_nu2_2_weights": "puncture css -q 3 -m 2 --nu1 1 --nu2 2 --list-weights",
    # [[35,9,4]]_7: its [35,15]_7 minus [35,6]_7 side weighs 7, settled by the
    # information-set search alone (length 35 is no 7^m, and the other
    # routes' prices top the cap)
    "puncture_css_q7_m2_nu1_2_nu2_6_w35": "puncture css -q 7 -m 2 --nu1 2 --nu2 6 --target-weight 35",
    "puncture_hermitian_q3_nu1_weights": "puncture hermitian -q 3 --nu 1 --list-weights",
    "puncture_hermitian_q5_nu2_mds_chain": "puncture hermitian -q 5 --nu 2 --mds-chain",
    "puncture_hermitian_q5_nu2_w15": "puncture hermitian -q 5 --nu 2 --target-weight 15",
    # the footprint route settles the three q = 4, m = 2 rows the other
    # routes leave as bounds
    "sweep_hermitian_q2_4_m1_2": "sweep hermitian -q 2,4 -m 1,2",
    "sweep_css_q3_m2_cap2": "sweep css -q 3 -m 2 --cap 2",
}

# Text and CSV renderings, pinned the same way; the file name carries the
# format, and the command is run as written.
RENDERED_GOLDEN_COMMANDS = {
    "quantum_hermitian_q3_m1_nu1_dump.txt": "quantum hermitian -q 3 -m 1 --nu 1 --dump-stabilizer",
    "grm_q5_m2_order4_cap50000.txt": "grm -q 5 -m 2 --order 4 --cap 50000",
    "puncture_css_q3_m2_nu1_1_nu2_2_weights.txt": "puncture css -q 3 -m 2 --nu1 1 --nu2 2 --list-weights",
    "sweep_mds_q3_4.csv": "sweep mds -q 3,4 --csv",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_json_report_matches_golden(capsys, monkeypatch, name):
    monkeypatch.delenv("GRMCODES_CAP", raising=False)
    code, out, _ = run(capsys, *GOLDEN_COMMANDS[name].split(), "--json")
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(RENDERED_GOLDEN_COMMANDS))
def test_rendered_report_matches_golden(capsys, monkeypatch, name):
    monkeypatch.delenv("GRMCODES_CAP", raising=False)
    code, out, _ = run(capsys, *RENDERED_GOLDEN_COMMANDS[name].split())
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_golden_reports_do_not_depend_on_the_order_of_commands(capsys, monkeypatch):
    # the GRM codes and their duals and restrictions are shared by every
    # command in a process: no command may change what a later one prints
    monkeypatch.delenv("GRMCODES_CAP", raising=False)
    runs = [(f"{name}.json", [*cmd.split(), "--json"]) for name, cmd in sorted(GOLDEN_COMMANDS.items())]
    runs += [(name, cmd.split()) for name, cmd in sorted(RENDERED_GOLDEN_COMMANDS.items())]
    for name, argv in runs + runs[::-1]:
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK, name
        assert out.encode() == (GOLDEN_DIR / name).read_bytes(), name
