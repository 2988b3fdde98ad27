import json

import pytest

from znec import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_structure_human(capsys):
    code, out, err = run(capsys, "structure", "--a", "7", "--b", "3", "--n", "169")
    assert (code, err) == (0, "")
    assert out == "Z/169\n"
    code, out, _ = run(capsys, "structure", "--a", "1", "--b", "6", "--n", "169")
    assert out == "Z/13 ⊕ Z/13\n"


def test_structure_json_round_trip(capsys):
    code, out, err = run(capsys, "structure", "--a", "167707", "--b", "21664", "--n", "187187", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["order"] == "161051"
    assert payload["factors"] == ["11", "11", "11", "11", "11"]
    assert payload["rank"] == 5
    cases = [loc["case"] for loc in payload["local"]]
    assert cases == ["non-anomalous", "split", "non-anomalous", "non-anomalous"]
    # serialization is canonical: parse and re-dump reproduces stdout
    assert cli._dump(payload) + "\n" == out


def test_dlp_human_and_json(capsys):
    # (3, 7) = 5 * (2, 4) on the anomalous curve E_{1,6}(F_13)
    argv = ["dlp", "--p", "13", "--a", "1", "--b", "6", "--px", "2", "--py", "4", "--qx", "3", "--qy", "7"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["5", "verified: 5 * (2, 4) = (3, 7)"]
    code, out, _ = run(capsys, *argv, "--json")
    assert json.loads(out) == {"n": "5", "verified": True}


def test_dlp_rejects_non_anomalous(capsys):
    code, out, err = run(capsys, "dlp", "--p", "13", "--a", "1", "--b", "1",
                         "--px", "1", "--py", "4", "--qx", "1", "--qy", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("znec dlp:")


def test_rank_bound_report(capsys):
    code, out, err = run(capsys, "rank-bound", "--p", "13")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["bound"] == 8
    assert payload["chi_witness"] == {"q": "157", "a": "0", "b": "15"}
    assert "construction" not in payload


def test_rank_bound_construct(capsys):
    code, out, _ = run(capsys, "rank-bound", "--p", "11", "--construct")
    assert code == 0
    construction = json.loads(out)["construction"]
    assert construction["n"] == "187187"
    assert construction["sharp"] is True
    assert construction["skipped"] == []


def test_f_poly(capsys):
    code, out, err = run(capsys, "f-poly", "--a", "1", "--b", "1", "--p", "5", "--e", "4")
    assert (code, err) == (0, "")
    assert out == "f(X) = 1*X^3\n"
    code, out, _ = run(capsys, "f-poly", "--a", "1", "--b", "1", "--p", "5", "--e", "2")
    assert out == "f(X) = 0\n"
    code, out, _ = run(capsys, "f-poly", "--a", "2", "--b", "3", "--p", "7", "--e", "10", "--json")
    payload = json.loads(out)
    assert (payload["p"], payload["e"]) == ("7", 10)
    coeffs = [int(c) for c in payload["coefficients"]]
    assert len(coeffs) == 10
    assert coeffs[:3] == [0, 0, 0] and coeffs[3] == 1
    # closed form through degree 9: X^3 + A X^7 + B X^9 mod p^e
    assert coeffs[7] % 7**10 == 2 and coeffs[9] == 3
    assert coeffs[4] == coeffs[5] == coeffs[6] == coeffs[8] == 0


def test_singular_curve_exits_2(capsys):
    code, out, err = run(capsys, "structure", "--a", "2", "--b", "3", "--n", "175")
    assert code == 2
    assert out == ""
    assert "discriminant" in err and "25" in err  # names the offending divisor


def test_f_poly_rejects_composite_p_exits_2(capsys):
    code, out, err = run(capsys, "f-poly", "--a", "2", "--b", "3", "--p", "49", "--e", "4")
    assert code == 2
    assert out == ""
    assert "49^4" in err  # names the offending factor


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["structure", "--a", "1", "--b", "1"])
    assert exc.value.code == 1
    assert "required: --n" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_verify_paper_examples(capsys):
    code, out, err = run(capsys, "verify-paper-examples")
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert len(lines) >= 16
    assert all(line.startswith("PASS  ") for line in lines)


def test_verify_failure_exits_3(capsys, monkeypatch):
    from znec import reference

    monkeypatch.setattr(reference, "verify_all", lambda: [("a", True, "got 1"), ("b", False, "got 2, want 3")])
    code, out, err = run(capsys, "verify-paper-examples")
    assert code == 3
    assert out == "PASS  a: got 1\nFAIL  b: got 2, want 3\n"
    assert err.startswith("znec verify-paper-examples: self-check failed: ") and err.count("\n") == 1


def test_budget_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("ZNEC_BUDGET", "10")
    code, out, err = run(capsys, "structure", "--a", "167707", "--b", "21664", "--n", "187187")
    assert code == 2
    assert out == ""
    assert "budget" in err.lower()
    monkeypatch.setenv("ZNEC_BUDGET", "banana")
    code, out, err = run(capsys, "structure", "--a", "7", "--b", "3", "--n", "169")
    assert (code, out) == (2, "")
    assert "ZNEC_BUDGET" in err


@pytest.mark.parametrize(
    "budget,argv",
    [
        (None, ["rank-bound", "--p", "12"]),
        (None, ["structure", "--a", "1", "--b", "1", "--n", "1"]),
        (None, ["structure", "--a", "1", "--b", "1", "--n", "0"]),
        ("abc", ["structure", "--a", "7", "--b", "3", "--n", "169"]),
        ("0", ["structure", "--a", "7", "--b", "3", "--n", "169"]),
        (None, ["dlp", "--p", "169", "--a", "7", "--b", "3", "--px", "0", "--py", "61", "--qx", "0", "--qy", "61"]),
        ("abc", ["f-poly", "--a", "1", "--b", "1", "--p", "5", "--e", "3"]),
        ("abc", ["dlp", "--p", "13", "--a", "1", "--b", "6", "--px", "2", "--py", "4", "--qx", "3", "--qy", "7"]),
        ("abc", ["rank-bound", "--p", "11"]),
        ("1000", ["structure", "--a", "1", "--b", "1", "--n", str((2**31 - 1) * (2**61 - 1))]),
        (None, ["f-poly", "--a", "1", "--b", "1", "--p", "5", "--e", "0"]),
        (None, ["f-poly", "--a", "1", "--b", "1", "--p", "5", "--e", "-1"]),
    ],
)
def test_precondition_failures_exit_2(capsys, monkeypatch, budget, argv):
    if budget is None:
        monkeypatch.delenv("ZNEC_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ZNEC_BUDGET", budget)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"znec {argv[0]}: ") and err.count("\n") == 1
    if argv[0] == "f-poly" and budget is None:  # e < 1 is named, not the modulus p^e it would build
        assert err == f"znec f-poly: e must be at least 1, got {argv[-1]}\n"


def test_failed_self_check_exits_3(capsys, monkeypatch):
    from znec import dlp, structure

    monkeypatch.setattr(dlp, "theta", lambda curve, pt: 1)  # so the log reads 1, not 5
    code, out, err = run(capsys, "dlp", "--p", "13", "--a", "1", "--b", "6", "--px", "2", "--py", "4", "--qx", "3", "--qy", "7")
    assert (code, out) == (3, "")
    assert err.startswith("znec dlp: self-check failed: ") and err.count("\n") == 1
    monkeypatch.setattr(structure, "_DRAWS", 1)  # too few draws to certify the shape (13, 13)
    code, out, err = run(capsys, "structure", "--a", "0", "--b", "15", "--n", "157")
    assert (code, out) == (3, "")
    assert err.startswith("znec structure: self-check failed: ") and err.count("\n") == 1


def test_entry_point_module():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "znec", "f-poly", "--a", "1", "--b", "1", "--p", "5", "--e", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "f(X) = 1*X^3\n"
