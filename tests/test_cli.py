import json

from speigen.cli import main

INST12 = ["--N", "2", "--R", "3", "--q", "2", "--p", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_eleven_json(capsys):
    code, out, _ = run_cli(capsys, ["decide", *INST12, "--t", "11", "--json"])
    assert code == 0
    report = json.loads(out)
    decision = report["decision"]
    assert decision["verdict"] == "NotSpectrum"
    assert decision["reason"] == "CycleFound"
    assert decision["cycle"] == {"nodes": ["3"], "digits": ["33"]}
    assert decision["missing_frequency"] == "-3"
    assert report["instance"]["descriptor"] == {"N": "2", "R": "3", "q": 2, "p": [1]}


def test_decide_invalid_instance_exit_code(capsys):
    code, _, err = run_cli(capsys, ["decide", "--N", "2", "--R", "4", "--q", "2", "--p", "1", "--t", "3"])
    assert code == 2
    assert "gcd(R,N) must be 1" in err


def test_decide_budget_exhaustion_exit_code(capsys):
    code, _, err = run_cli(capsys, ["decide", *INST12, "--t", "11", "--node-budget", "1"])
    assert code == 3
    assert "budget" in err


def test_decide_rational_scaling(capsys):
    code, out, _ = run_cli(capsys, ["decide", *INST12, "--t", "3/2", "--json"])
    assert code == 0
    assert json.loads(out)["decision"]["reason"] == "NonInteger"


def test_json_output_is_byte_stable_and_round_trips(capsys):
    argv = ["decide", *INST12, "--t", "11", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    reparsed = json.dumps(json.loads(first), indent=2, sort_keys=False, ensure_ascii=False) + "\n"
    assert reparsed == first


def test_search_table(capsys):
    code, out, _ = run_cli(capsys, ["search", *INST12, "--t-from", "1", "--t-to", "19"])
    assert code == 0
    lines = out.strip().splitlines()
    assert any("11" in line and "NotSpectrum" in line for line in lines)
    assert sum("SharesFactorWithN" in line for line in lines) == 9


def test_signed_command(capsys):
    code, out, _ = run_cli(capsys, ["signed", *INST12, "--t", "11", "--omega", "1,-1", "--json"])
    assert code == 0
    decision = json.loads(out)["decision"]
    assert decision["omega"] == [1, -1]
    assert decision["verdict"] == "Spectrum"


def test_type2_command_with_witness_search(capsys):
    code, out, _ = run_cli(capsys, ["type2", *INST12, "--t", "3/5", "--r-max", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["is_second_type_eigenvalue"] is True
    assert report["sign_word"] == [1]
    code, out, _ = run_cli(capsys, ["type2", *INST12, "--t", "1/2", "--json"])
    assert json.loads(out)["is_second_type_eigenvalue"] is False


def test_attractor_command(capsys):
    code, out, _ = run_cli(capsys, ["attractor", *INST12, "--t", "11", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["nodes"] == ["0", "3", "6", "9"]
    assert report["cycle"] == {"nodes": ["3"], "digits": ["33"]}
    assert {"from": "3", "digit": "33", "to": "3"} in report["graph"]["edges"]


def test_zeroset_command(capsys):
    code, out, _ = run_cli(capsys, ["zeroset", *INST12, "--t", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True and report["decomposition"]["k"] == 0
    code, out, _ = run_cli(capsys, ["zeroset", *INST12, "--t", "1/2", "--json"])
    assert json.loads(out)["member"] is False


def test_validate_command(capsys):
    code, out, _ = run_cli(capsys, ["validate", *INST12, "--t", "11", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["orthogonality"]["orthogonal"] is True
    assert report["probe"]["missing_frequency_check"] == {"d": "-3", "confirmed": True}
    assert report["probe"]["violations"] == []


def test_reproduce_all_cases(capsys):
    code, out, _ = run_cli(capsys, ["reproduce-paper", "--json"])
    assert code == 0
    report = json.loads(out)
    assert [case["id"] for case in report["cases"]] == ["5.2", "5.3", "5.4"]
    assert report["pass"] is True


def test_reproduce_single_case_table(capsys):
    code, out, _ = run_cli(capsys, ["reproduce-paper", "--example", "5.4"])
    assert code == 0
    assert "case 5.4" in out
    assert "overall: pass" in out
    code, _, err = run_cli(capsys, ["reproduce-paper", "--example", "9.9"])
    assert code == 2 and "unknown example id" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 2, "R": 3, "q": 2, "p": [1], "t": "5"}))
    code, out, _ = run_cli(capsys, ["decide", "--config", str(config), "--json"])
    assert code == 0
    assert json.loads(out)["decision"]["t"] == "5"
    code, out, _ = run_cli(capsys, ["decide", "--config", str(config), "--t", "11", "--json"])
    assert json.loads(out)["decision"]["t"] == "11"


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, ["decide", "--config", str(missing), "--t", "1"])
    assert code == 2 and "config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, ["decide", "--config", str(bad), "--t", "1"])
    assert code == 2


def test_missing_parameters(capsys):
    code, _, err = run_cli(capsys, ["decide", "--t", "3"])
    assert code == 2 and "missing instance parameter" in err
    code, _, err = run_cli(capsys, ["decide", *INST12])
    assert code == 2 and "--t" in err


def test_single_block_note_surfaces(capsys):
    code, out, _ = run_cli(capsys, ["decide", "--N", "2", "--R", "3", "--q", "2", "--t", "5", "--json"])
    assert code == 0
    notes = json.loads(out)["instance"]["notes"]
    assert any("s=0" in note for note in notes)


def test_long_integers_are_answered_in_full(capsys):
    code, out, _ = run_cli(capsys, ["decide", "--N", "2", "--R", "3", "--q", "20000", "--p", "1", "--t", "7", "--json"])
    assert code == 0
    assert json.loads(out)["instance"]["M"] == str(3 * 2**20000)


def test_omega_list_from_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 2, "R": 3, "q": 2, "p": [1], "t": "11", "omega": [1, -1]}))
    code, out, _ = run_cli(capsys, ["signed", "--config", str(config), "--json"])
    assert code == 0
    decision = json.loads(out)["decision"]
    assert decision["omega"] == [1, -1] and decision["verdict"] == "Spectrum"
    code, out, _ = run_cli(capsys, ["validate", "--config", str(config), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["omega"] == [1, -1] and report["decision"] is None
    assert report["orthogonality"]["orthogonal"] is True


def test_non_integer_scaling_is_rejected(capsys):
    for command in (["signed", "--omega", "1,-1"], ["attractor"], ["validate"]):
        code, _, err = run_cli(capsys, [command[0], *INST12, *command[1:], "--t", "3/2"])
        assert code == 2 and "needs an integer t" in err


def test_omega_leading_minus_needs_equals_form(capsys):
    code, out, _ = run_cli(capsys, ["signed", *INST12, "--t", "11", "--omega=-1,1", "--json"])
    assert code == 0
    assert json.loads(out)["decision"]["omega"] == [-1, 1]
    code, _, err = run_cli(capsys, ["signed", *INST12, "--t", "11", "--omega=1,2"])
    assert code == 2 and "sign word" in err
