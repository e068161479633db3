import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import speigen
from speigen import CycleWitness, InvalidParameters, eigen, from_descriptor, spectra, validate, zero_set_contains
from speigen.cli import COMMANDS, FIELDS, FLAG_ONLY, build_parser, execute, main

from oracles import argparse_reference_parser

INST12 = ["--N", "2", "--R", "3", "--q", "2", "--p", "1"]
INST54 = ["--N", "3", "--R", "2", "--q", "3", "--p", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reason_codes(argv):
    """Reason codes of the InvalidParameters a command raises (main prints only the messages)."""
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidParameters) as info:
        execute(args)
    return info.value.codes


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
    code, _, err = run_cli(capsys, ["decide", *INST12, "--t", "10000000000000001", "--node-budget", "10000"])
    assert code == 3
    assert "attractor word sums: needs 1048576, budget is 10000" in err


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


def test_search_budget_counts_the_scalings(capsys):
    code, out, err = run_cli(capsys, ["search", *INST12, "--t-from", "1", "--t-to", "1000000000"])
    assert code == 3 and out == ""
    assert "search scalings: needs 1000000000, budget is 10000000" in err


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
    code, out, _ = run_cli(capsys, ["type2", *INST12, "--t", "11/7", "--r-max", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "no common sign word found up to period 1 (search bound, not a proof)"


def test_attractor_command(capsys):
    code, out, _ = run_cli(capsys, ["attractor", *INST12, "--t", "11", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["nodes"] == ["0", "3", "6", "9"]
    assert report["cycle"] == {"nodes": ["3"], "digits": ["33"]}
    assert {"from": "3", "digit": "33", "to": "3"} in report["graph"]["edges"]
    inst54 = ["--N", "3", "--R", "2", "--q", "3", "--p", "1"]
    # 9**7 block digits: the table counts them, and only the export, which lists them, refuses.
    argv = ["attractor", *inst54, "--t", "5", "--omega=1,1,1,1,1,1,1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.splitlines()[1].startswith("base ") and ", 4782969 digits, " in out.splitlines()[1]
    code, out, err = run_cli(capsys, [*argv, "--json"])
    assert code == 3 and out == ""
    assert "spectrum truncation elements: needs 4782969, budget is 1000000" in err
    # t = 0 is refused with and without a sign word, by every command that scales.
    for argv in (
        ["attractor", "--t", "0"],
        ["attractor", "--t=0", "--omega=1,-1"],
        ["decide", "--t", "0"],
        ["signed", "--t", "0", "--omega=1,-1"],
        ["validate", "--t", "0"],
        ["validate", "--t", "0", "--omega=1,-1"],
        ["type2", "--t", "0"],
    ):
        code, out, err = run_cli(capsys, [argv[0], *INST12, *argv[1:]])
        assert (code, out) == (2, ""), argv
        assert "scaling t must be nonzero" in err, argv


def test_attractor_at_a_scaling_sharing_a_factor_with_n(capsys):
    # t = 10 on M = 6: 1 and 6 both step to 6, 5 and 0 both to 0, so the graph is a map but no
    # permutation; the walk from 1 closes the cycle on 6.
    code, out, _ = run_cli(capsys, ["attractor", "--N", "2", "--R", "3", "--q", "1", "--p=", "--t", "10", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["nodes"] == ["0", "1", "5", "6"] and report["integer_points"] == 4
    assert report["cycle"] == {"nodes": ["6"], "digits": ["30"]}


def test_zeroset_command(capsys):
    code, out, _ = run_cli(capsys, ["zeroset", *INST12, "--t", "3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True and report["decomposition"]["k"] == 0
    code, out, _ = run_cli(capsys, ["zeroset", *INST12, "--t", "1/2", "--json"])
    assert json.loads(out)["member"] is False
    code, out, _ = run_cli(capsys, ["zeroset", "--N", "2", "--R", "3", "--q", "4", "--p", "3", "--t", "6", "--json"])
    assert code == 0 and json.loads(out)["member"] is False


def test_validate_command(capsys):
    code, out, _ = run_cli(capsys, ["validate", *INST12, "--t", "11", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["orthogonality"]["orthogonal"] is True
    assert report["probe"]["missing_frequency_check"] == {"d": "-3", "confirmed": True}
    assert report["probe"]["violations"] == []
    code, out, _ = run_cli(capsys, ["validate", *INST12, "--t", "2"])
    assert code == 0
    assert "level-2 orthogonality: FAILED" in out.splitlines()
    assert "  failing pair: (0, 12)" in out.splitlines()


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


def test_a_numeric_example_in_a_config_names_its_case(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"example": 5.2}))
    code, out, _ = run_cli(capsys, ["reproduce-paper", "--config", str(config), "--json"])
    assert code == 0
    assert [case["id"] for case in json.loads(out)["cases"]] == ["5.2"]
    config.write_text(json.dumps({"example": 6.1}))
    code, out, err = run_cli(capsys, ["reproduce-paper", "--config", str(config)])
    assert (code, out) == (2, "")
    assert err == "error: unknown example id: '6.1' (use 5.2, 5.3 or 5.4)\n"
    assert reason_codes(["reproduce-paper", "--config", str(config)]) == ["example"]


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
    instance = {"N": 2, "R": 3, "q": 2, "p": [1]}
    cases = [
        ("signed", {"t": "11", "omega": 5}, "omega_parse", "sign word"),
        ("signed", {"t": "11", "omega": [1, 2]}, "omega_parse", "sign word"),
        ("signed", {"t": "11", "omega": [True]}, "omega_parse", "sign word"),
        ("search", {"t_from": "x", "t_to": 3}, "t_from_parse", "t_from is not a decimal integer"),
        ("search", {"t_from": 1, "t_to": "x"}, "t_to_parse", "t_to is not a decimal integer"),
        ("type2", {"t": "3/5", "r_max": "x"}, "r_max_parse", "r_max is not a decimal integer"),
        ("decide", {"t": "11", "node_budget": 0}, "node_budget", "node_budget must be at least 1"),
        ("validate", {"t": "11", "tol": "x"}, "tol_parse", "tol is not a number"),
        ("validate", {"t": "11", "tol": 2}, "tol", "tol must be below 1"),
        ("validate", {"t": "11", "tol": True}, "tol_type", "tol must be a number"),
        ("validate", {"t": "11", "tol": [1]}, "tol_type", "tol must be a number"),
        ("decide", {"t": "11", "node-budget": 5}, "config_key", "config keys not read by decide: 'node-budget'"),
        ("search", {"t-from": 1, "t_to": 3}, "config_key", "config keys not read by search: 't-from'"),
        ("decide", {"t": "11", "json": True, "example": "5.2"}, "config_key", "'example', 'json'"),
        ("reproduce-paper", {}, "config_key", "config keys not read by reproduce-paper: 'N', 'R', 'p', 'q'"),
    ]
    for command, fields, reason, message in cases:
        path = tmp_path / f"{reason}.json"
        path.write_text(json.dumps({**instance, **fields}))
        argv = [command, "--config", str(path)]
        code, _, err = run_cli(capsys, argv)
        assert code == 2 and message in err, (fields, err)
        assert reason_codes(argv) == [reason]
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    argv = ["decide", "--config", str(listed), *INST12, "--t", "1"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2 and "config file must hold a JSON object" in err
    assert reason_codes(argv) == ["config"]


def test_config_tol_and_node_budget_are_read(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"N": 2, "R": 3, "q": 2, "p": [1], "t": "11", "tol": 0, "node_budget": 1}))
    assert reason_codes(["validate", "--config", str(path), "--node-budget", "100"]) == ["tol"]
    code, _, err = run_cli(capsys, ["decide", "--config", str(path)])
    assert code == 3 and "budget is 1" in err
    code, _, _ = run_cli(capsys, ["decide", "--config", str(path), "--node-budget", "100"])
    assert code == 0


def test_flags_a_command_does_not_read_are_rejected(capsys):
    for argv in (["decide", *INST12, "--t", "11", "--tol", "1e-3"], ["reproduce-paper", "--N", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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


def test_negative_scalings_use_the_equals_form(capsys):
    code, out, _ = run_cli(capsys, ["type2", *INST12, "--t=-3/5", "--json"])
    assert code == 0 and json.loads(out)["t"] == "-3/5"
    code, out, _ = run_cli(capsys, ["decide", *INST12, "--t=-11", "--json"])
    assert code == 0 and json.loads(out)["decision"]["cycle"] == {"nodes": ["3"], "digits": ["33"]}


def test_one_parser_serves_every_call(capsys):
    assert build_parser() is build_parser()
    argv = ["signed", *INST12, "--t", "11", "--omega=-1,1", "--json"]
    first = run_cli(capsys, argv)
    for bad in (["decide", "--help"], ["decide", *INST12, "--t"], ["search", "--t-from"]):
        with pytest.raises(SystemExit):
            main(bad)
        capsys.readouterr()
    run_cli(capsys, ["decide", *INST12, "--t", "5", "--node-budget", "7"])
    assert run_cli(capsys, argv) == first
    code, _, err = run_cli(capsys, ["signed", *INST12, "--t", "11"])
    assert code == 2 and "signed needs --t and --omega" in err


def test_user_input_errors_from_the_library_keep_their_messages(capsys):
    cases = [
        (["search", *INST12, "--t-from", "5", "--t-to", "1"], "t_range", "t_from must not exceed t_to"),
        (["type2", *INST12, "--t", "3/5", "--r-max", "0"], "r_max", "r_max must be at least 1"),
        (["validate", *INST12, "--t", "11", "--tol", "0"], "tol", "tol must be positive"),
        (["validate", *INST12, "--t", "11", "--tol", "0", "--node-budget", "1"], "tol", "tol must be positive"),
        (["validate", *INST12, "--t", "1000000001", "--tol", "0"], "tol", "tol must be positive"),
        (["validate", *INST12, "--t", "11", "--tol=-1"], "tol", "tol must be positive"),
        (["validate", *INST12, "--t", "11", "--tol", "nan"], "tol", "tol must be positive"),
        (["validate", *INST12, "--t", "11", "--tol", "1"], "tol", "tol must be below 1"),
        (["validate", *INST12, "--t", "11", "--tol", "1e300"], "tol", "tol must be below 1"),
        (["validate", *INST12, "--t", "11", "--tol", "inf"], "tol", "tol must be below 1"),
        (["search", *INST12, "--t-from", "1"], "missing", "search needs --t-from and --t-to"),
        (["signed", *INST12, "--t", "11"], "missing", "signed needs --t and --omega"),
        (["decide", *INST12, "--t", "abc"], "t_parse", "not a rational number: 'abc'"),
        (["decide", "--N", "2", "--R", "3", "--q", "2", "--p", "1,x", "--t", "3"], "p_parse", "list of integers"),
        (["decide", *INST12, "--t", "11", "--node-budget", "-5"], "node_budget", "node_budget must be at least 1"),
        # A bad value of a typed flag gets its field's converter message, not an argparse usage.
        (["decide", "--N", "x", "--R", "3", "--q", "2", "--t", "3"], "N_parse", "error: N is not a decimal integer: 'x'"),
        (["decide", "--N", "2", "--R", "3.0", "--q", "2", "--t", "3"], "R_parse", "error: R is not a decimal integer: '3.0'"),
        (["decide", "--N", "2", "--R", "3", "--q", "two", "--t", "3"], "q_parse", "error: q is not a decimal integer: 'two'"),
        (["decide", *INST12, "--t", "3", "--node-budget", "1e3"], "node_budget_parse", "error: node_budget is not a decimal integer: '1e3'"),
        (["validate", *INST12, "--t", "11", "--tol", "abc"], "tol_parse", "error: tol is not a number: 'abc'"),
        (["search", *INST12, "--t-from", "a", "--t-to", "3"], "t_from_parse", "error: t_from is not a decimal integer: 'a'"),
        (["search", *INST12, "--t-from", "1", "--t-to", "b"], "t_to_parse", "error: t_to is not a decimal integer: 'b'"),
        (["type2", *INST12, "--t", "3/5", "--r-max", "x"], "r_max_parse", "error: r_max is not a decimal integer: 'x'"),
    ]
    for argv, reason, message in cases:
        code, _, err = run_cli(capsys, argv)
        assert code == 2 and message in err, (argv, err)
        assert reason_codes(argv) == [reason]


def test_each_refused_field_is_named_by_its_reason_code(tmp_path):
    # One bad value in one field at a time; the code is the field's key or starts with it and "_".
    cases = {
        "t": ["decide", *INST12, "--t=x"],
        "t_from": ["search", *INST12, "--t-from=x", "--t-to=3"],
        "t_to": ["search", *INST12, "--t-from=1", "--t-to=x"],
        "omega": ["signed", *INST12, "--t=11", "--omega=1,0"],
        "node_budget": ["decide", *INST12, "--t=11", "--node-budget=0"],
        "tol": ["validate", *INST12, "--t=11", "--tol=x"],
        "r_max": ["type2", *INST12, "--t=3/5", "--r-max=0"],
        "N": ["decide", "--N=x", "--R=3", "--q=2", "--p=1", "--t=3"],
        "R": ["decide", "--N=2", "--R=x", "--q=2", "--p=1", "--t=3"],
        "q": ["decide", "--N=2", "--R=3", "--q=x", "--p=1", "--t=3"],
        "p": ["decide", "--N=2", "--R=3", "--q=2", "--p=x", "--t=3"],
        "example": ["reproduce-paper", "--example=x"],
        "config": ["decide", *INST12, "--t=11", f"--config={tmp_path / 'missing.json'}"],
    }
    for key, argv in cases.items():
        code = reason_codes(argv)[0]
        named = [field for field in FIELDS if code == field or code.startswith(field + "_")]
        assert max(named, key=len) == key, (argv, code)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", *INST12, "--t=--"], "error: not a rational number: '--'"),
        (["decide", *INST12[:6], "--p=--", "--t", "3"], "error: p must be a comma list of integers: '--'"),
        (["reproduce-paper", "--config=--"], "error: cannot read config file: [Errno 2] No such file or directory: '--'"),
    ],
)
def test_a_double_dash_value_is_refused_by_its_field(capsys, argv, message):
    # argparse stores "--flag=--" as []; the parser hands it on as the text "--" on both paths.
    for extra in ([], ["--js"]):  # a prefix of --json sends the argv to argparse
        assert (build_parser()._exact(argv + extra) is None) == bool(extra)
        code, out, err = run_cli(capsys, argv + extra)
        assert (code, out, err) == (2, "", message + "\n"), argv + extra


def test_validate_beyond_float_range_reports_the_probe_unavailable(capsys):
    cases = [
        (["--N", "2", "--R", "3", "--q", "60", "--p", "1"], "M = 3458764513820540928 exceeds"),
        (["--N", "3", "--R", "2", "--q", "40", "--p", "38"], "N**p_j = 1350851717672992089 exceeds"),
    ]
    for instance_flags, message in cases:
        argv = ["validate", *instance_flags, "--t", "1"]
        code, out, _ = run_cli(capsys, [*argv, "--json"])
        assert code == 0, argv
        report = json.loads(out)
        assert report["decision"]["verdict"] == "Spectrum"
        assert report["orthogonality"] == {"orthogonal": True, "q_samples": [], "violations": []}
        probe = report["probe"]
        assert probe["available"] is False and probe["reason"] == "float_range"
        assert message in probe["message"] and "exact float64 range (2**53)" in probe["message"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        lines = out.splitlines()
        assert "level-2 orthogonality: exact" in lines
        assert lines[-1] == f"Q probe: unavailable (float_range: {probe['message']})"
    # M is exact in float64, but t = 10**321 + 1 puts the level-3 elements beyond its largest value.
    argv = ["validate", *INST12, "--t", "1" + "0" * 320 + "1", "--omega=1,-1"]
    message = "a level-3 element of 1077 bits exceeds float64 range"
    code, out, _ = run_cli(capsys, [*argv, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["orthogonality"] == {"orthogonal": True, "q_samples": [], "violations": []}
    assert report["probe"] == {"available": False, "reason": "float_range", "message": message}
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.splitlines()[-2:] == ["level-2 orthogonality: exact", f"Q probe: unavailable (float_range: {message})"]


def test_validate_without_the_probe_enumerates_level_2_only_for_the_pair_check(capsys):
    # M = 2 * 1001**6 is beyond float64, and level 2 has 1001**2 > 10**6 elements.  At t = 1 the
    # lemma gives the orthogonality, so nothing enumerates level 2; 7 divides 1001, so t = 7 needs it.
    inst1001 = ["--N", "1001", "--R", "2", "--q", "6", "--p="]
    code, out, _ = run_cli(capsys, ["validate", *inst1001, "--t", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["decision"]["verdict"] == "Spectrum"
    assert report["orthogonality"]["orthogonal"] is True
    assert report["probe"]["available"] is False and report["probe"]["reason"] == "float_range"
    code, out, _ = run_cli(capsys, ["validate", *inst1001, "--t", "1"])
    assert code == 0 and out.splitlines()[-2] == "level-2 orthogonality: exact"
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, ["validate", *inst1001, "--t", "7", *extra])
        assert (code, out) == (3, "")
        assert err == "error: spectrum truncation elements: needs 1002001, budget is 1000000\n"


def test_validate_enumerates_one_truncation(monkeypatch, capsys):
    # Level 2 is a window of level 3, and the probe reads every level from the truncation it is given.
    enumerate_level, levels = spectra.spectrum_level, []

    def counted(inst, t, k, omega=None):
        levels.append(k)
        return enumerate_level(inst, t, k, omega)

    monkeypatch.setattr(spectra, "spectrum_level", counted)
    monkeypatch.setattr(validate, "spectrum_level", counted)
    for flags, expected in (
        ([*INST12, "--t", "11"], [3]),
        ([*INST12, "--t=-11", "--omega=1,1,-1"], [3]),
        (["--N", "2", "--R", "3", "--q", "60", "--p", "1", "--t", "1"], []),
        (["--N", "2", "--R", "3", "--q", "60", "--p", "1", "--t", "2"], [2]),
    ):
        levels.clear()
        assert run_cli(capsys, ["validate", *flags, "--json"])[0] == 0
        assert levels == expected, flags
    inst = speigen.build_instance(2, 3, 2, [1])
    trunc = enumerate_level(inst, 11, 3)
    levels.clear()
    validate.completeness_probe(inst, trunc, validate.default_grid())
    assert levels == []


def flags_of(params):
    n, r, q, p = params
    return ["--N", str(n), "--R", str(r), "--q", str(q), "--p", ",".join(map(str, p))]


def enumerated_orthogonality(params, t, pattern):
    """The orthogonality JSON of an enumeration of every pair of level 2."""
    inst = speigen.build_instance(*params)
    level = spectra.spectrum_level(inst, t, 2, spectra.SignWord(pattern) if pattern else None)
    return validate.check_orthogonal_set(inst, level.elements).to_json_dict()


@pytest.mark.parametrize(
    "params, t, pattern",
    [
        ((2, 3, 2, (1,)), 11, None),
        ((2, 3, 2, (1,)), -11, None),
        ((2, 3, 2, (1,)), 7, (1, -1)),
        ((2, 3, 2, (1,)), -13, (1, 1, -1)),
        ((3, 2, 3, (1,)), -5, (1, -1)),
        ((2, 15, 3, (1, 2)), 49, (1, 1, -1)),
    ],
)
def test_validate_reads_orthogonality_from_the_lemma_at_t_coprime_to_n(monkeypatch, capsys, params, t, pattern):
    expected = enumerated_orthogonality(params, t, pattern)
    assert expected["orthogonal"] is True

    def forbidden(*args, **kwargs):
        raise AssertionError("validate must not enumerate pairs at t coprime to N")

    monkeypatch.setattr(validate, "check_orthogonal_set", forbidden)
    argv = ["validate", *flags_of(params), f"--t={t}"]
    if pattern:
        argv.append("--omega=" + ",".join(map(str, pattern)))
    code, out, _ = run_cli(capsys, [*argv, "--json"])
    assert code == 0 and json.loads(out)["orthogonality"] == expected
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and "level-2 orthogonality: exact" in out.splitlines()


@pytest.mark.parametrize(
    "t, failing_pair", [(2, ["0", "12"]), (4, ["0", "12"]), (8, ["0", "24"]), (24, ["0", "144"]), (6, None), (12, None)]
)
def test_validate_enumerates_pairs_at_t_sharing_a_factor_with_n(monkeypatch, capsys, t, failing_pair):
    # M = 12: the pairs of 2, 4, 8 and 24 fail, those of 6 and 12 do not, so only enumeration decides.
    enumerate_pairs, calls = validate.check_orthogonal_set, []

    def counted(inst, elements):
        calls.append(len(elements))
        return enumerate_pairs(inst, elements)

    monkeypatch.setattr(validate, "check_orthogonal_set", counted)
    code, out, _ = run_cli(capsys, ["validate", *INST12, f"--t={t}", "--json"])
    orthogonality = json.loads(out)["orthogonality"]
    assert code == 0 and calls == [16]
    assert orthogonality == enumerated_orthogonality((2, 3, 2, (1,)), t, None)
    assert orthogonality["orthogonal"] is (failing_pair is None)
    assert orthogonality.get("failing_pair") == failing_pair


def test_a_closed_pipe_ends_quietly_with_the_sigpipe_status(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone: every write raises, as a write to a closed pipe does."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["validate", *INST12, "--t=2", "--json"]) == 141
        assert capsys.readouterr().err == ""
        # The descriptor behind stdout now writes to os.devnull.
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_internal_errors_are_not_reported_as_invalid_input(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(eigen, "decide_scaling", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["decide", *INST12, "--t", "11"])


@pytest.mark.parametrize(
    "argv, budget, skipped",
    [
        (["type2", *INST12, "--t", "11/7", "--r-max", "4"], "4", ["signed", *INST12, "--t", "11", "--omega=1,1"]),
        (["type2", *INST54, "--t", "53/5", "--r-max", "3"], "10", ["signed", *INST54, "--t", "53", "--omega=1,1"]),
    ],
)
def test_type2_skips_the_words_of_decided_classes(capsys, argv, budget, skipped):
    # The word (1, 1) alone would exceed the budget; its class was decided at (1,), so it is never built.
    code, _, err = run_cli(capsys, [*skipped, "--node-budget", budget])
    assert code == 3 and "attractor candidates" in err
    for tail in ([], ["--json"]):
        code, default_out, _ = run_cli(capsys, [*argv, *tail])
        assert code == 0
        assert run_cli(capsys, [*argv, "--node-budget", budget, *tail]) == (0, default_out, "")
    assert json.loads(default_out)["sign_word"] == [1, -1]


def run_fresh(*args):
    """A new interpreter with this checkout's package first on its path."""
    src = str(Path(speigen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


COLD_START = """
import io, sys
from contextlib import redirect_stdout
import speigen.cli
inst = ["--N", "2", "--R", "3", "--q", "2", "--p", "1"]
exact = [
    ["decide", *inst, "--t", "1000003"],
    ["search", *inst, "--t-from", "-5", "--t-to", "20"],
    ["signed", *inst, "--t", "11", "--omega=1,-1"],
    ["type2", *inst, "--t", "11/7", "--r-max", "3"],
    ["attractor", *inst, "--t", "11", "--omega=1,1,-1"],
    ["zeroset", *inst, "--t", "36"],
]
with redirect_stdout(io.StringIO()):
    codes = [speigen.cli.main(argv) for argv in exact]
print(codes, "numpy" in sys.modules)
with redirect_stdout(io.StringIO()):
    code = speigen.cli.main(["validate", *inst, "--t", "11"])
print(code, "numpy" in sys.modules)
"""


def test_exact_commands_never_load_numpy():
    proc = run_fresh("-c", COLD_START)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0] False", "0 True"]


def test_the_module_entry_point_answers_as_main_does(capsys):
    argv = ["decide", *INST12, "--t", "1000003", "--json"]
    proc = run_fresh("-m", "speigen", *argv)
    assert (proc.returncode, proc.stdout) == run_cli(capsys, argv)[:2]


# --------------------------------------------------------------------------
# Contract: every input is answered or refused, and every answer checks out
# --------------------------------------------------------------------------

GOOD_T = st.one_of(
    st.integers(-40, 40),
    st.integers(-300, 300),
    st.sampled_from([10**9 + 1, -(10**9 + 1), (12**8 - 1) // 11, 3**40, 10**30 + 1, -(10**30)]),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-60, 60), st.integers(1, 12)),
)
BAD_T = st.sampled_from(["", "abc", "1/0", "2.5.1", "1e3", "--", "0x11"])
HUGE_T = st.integers(10**12, 10**60).flatmap(lambda n: st.sampled_from([str(n), f"-{n}", f"{n}/7", f"-7/{n}"]))
BUDGET = st.sampled_from([3000, 1000, 100, 16, 4, 1])


@st.composite
def instance_fields(draw):
    """Valid instances with N in {2, 3}, q <= 3 and s <= 1, or a malformed descriptor; with M of the valid one."""
    N, q = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    R = draw(st.sampled_from([3, 5, 7, 15] if N == 2 else [2, 5, 7, 10]))
    p = draw(st.sampled_from([""] + [str(a) for a in range(1, q)]))
    fields = {"N": str(N), "R": str(R), "q": str(q), "p": p}
    fault = draw(st.sampled_from([None] * 12 + ["type", "small_N", "gcd", "unordered"]))
    if fault == "type":
        key = draw(st.sampled_from(["N", "R", "q", "p"]))
        fields[key] = draw(st.sampled_from(["x", "2.5", "", "1,x"]))
    elif fault == "small_N":
        fields["N"] = draw(st.sampled_from(["1", "0", "-2"]))
    elif fault == "gcd":
        fields["R"] = str(N * draw(st.integers(1, 5)))
    elif fault == "unordered":
        fields.update(q="3", p="2,1")
    return fields, N, R * N**q


def failing_scalings(N, M):
    """Scalings t = +-(M - 1) * k with k coprime to N, which fail with a cycle.

    Each ``t * l / (M - 1)`` with l in L is a fixed point, nonzero for l nonzero.
    """
    k = st.sampled_from([k for k in range(1, 6) if math.gcd(k, N) == 1])
    return st.builds(lambda sign, k: sign * (M - 1) * k, st.sampled_from([1, -1]), k)


@st.composite
def written(draw, command, fields):
    """The argv tokens of these fields of a command, each as --flag=value, as --flag value or as a unique prefix."""
    own = [FIELDS[key].flag for key in (*COMMANDS[command].flags, *FLAG_ONLY)] + ["--help"]
    tokens = []
    for key, value in fields.items():
        flag, value = FIELDS[key].flag, str(value)
        prefixes = [flag[:n] for n in range(3, len(flag)) if sum(f.startswith(flag[:n]) for f in own) == 1]
        form = draw(st.sampled_from(["=", "=", "space", "prefix"]))
        if form == "space" and not value.startswith("-"):
            tokens += [flag, value]
        else:
            tokens.append(f"{draw(st.sampled_from(prefixes)) if form == 'prefix' and prefixes else flag}={value}")
    return tokens


@st.composite
def invocations(draw, budget=st.just(2000), huge=False):
    """One argv for any subcommand, each value written by :func:`written`.

    ``t`` is sometimes a scaling known to fail, and with ``huge`` sometimes
    beyond ``10**12``; the node budget is drawn from ``budget``.
    """
    command = draw(st.sampled_from(list(COMMANDS)))
    if command == "reproduce-paper":
        example = draw(st.sampled_from([None, "5.4", "5.3", "9.9"]))
        return [command, *draw(written(command, {} if example is None else {"example": example}))]
    fields, N, M = draw(instance_fields())
    flags = COMMANDS[command].flags
    if command == "search":
        start = draw(st.integers(-300, 300) | st.sampled_from([10**12, -(10**12)]) | failing_scalings(N, M))
        fields.update(t_from=start, t_to=start + draw(st.integers(-1, 40)))
    elif huge and draw(st.integers(0, 3)) == 0:
        fields["t"] = draw(HUGE_T)
    else:
        kind = draw(st.integers(0, 9))
        fields["t"] = draw(BAD_T if kind == 0 else failing_scalings(N, M) if kind <= 3 else GOOD_T)
    if "omega" in flags and (command == "signed" or draw(st.booleans())):
        word = draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))
        fields["omega"] = ",".join(map(str, word)) if draw(st.integers(0, 9)) else "1,2"
    if "r_max" in flags and draw(st.booleans()):
        fields["r_max"] = draw(st.integers(0, 3))
    if "node_budget" in flags:
        fields["node_budget"] = draw(budget)
    return [command, *draw(written(command, fields))]


def cycles_with_bases(report):
    """(cycle JSON, base) for every cycle witness in a report."""
    if report["command"] == "attractor":
        return [(report["cycle"], int(report["graph"]["base"]))] if report["cycle"] else []
    decisions = report.get("decisions") or [report.get("decision")]
    M = int(report["instance"]["M"]) if "instance" in report else None
    return [(d["cycle"], M ** len(d.get("omega", [1]))) for d in decisions if d and "cycle" in d]


def json_integers(value):
    if isinstance(value, dict):
        return [n for v in value.values() for n in json_integers(v)]
    if isinstance(value, list):
        return [n for v in value for n in json_integers(v)]
    return [value] if isinstance(value, int) and not isinstance(value, bool) else []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocations())
# Unsigned cycles at negative t, whose missing frequencies are positive.
@example(["decide", *INST12, "--t=-11", "--node-budget=2000"])
@example(["validate", *INST12, "--t=-33", "--node-budget=2000"])
@example(["search", "--N=3", "--R=2", "--q=2", "--p=1", "--t-from=-40", "--t-to=0", "--node-budget=2000"])
def test_every_command_answers_or_refuses_with_checked_witnesses(argv):
    outcomes = []
    for extra in ([], ["--json"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + extra)
        assert code in (0, 2, 3), argv
        assert (code == 0) == (err.getvalue() == ""), argv
        if code:
            assert err.getvalue().startswith("error: "), argv
        outcomes.append((code, err.getvalue(), out.getvalue()))
    (code, err, _), (json_code, json_err, text) = outcomes
    assert (code, err) == (json_code, json_err), argv
    if code:
        return
    report = json.loads(text)
    assert all(abs(n) < 2**53 for n in json_integers(report)), argv
    for cycle, base in cycles_with_bases(report):
        witness = CycleWitness(tuple(map(int, cycle["nodes"])), tuple(map(int, cycle["digits"])))
        assert witness.verify(base), argv
    decisions = report.get("decisions") or [report.get("decision")]
    for decision in decisions:
        if decision and "missing_frequency" in decision:
            inst = from_descriptor(report["instance"]["descriptor"])
            d, t = int(decision["missing_frequency"]), int(decision["t"])
            level3 = spectra.spectrum_level(inst, t, 3).elements
            assert d not in level3 and all(zero_set_contains(inst, d - lam) for lam in level3), argv


@st.composite
def budgeted_invocations(draw):
    """An argv of :func:`invocations` at a drawn node budget, its t sometimes huge, with or without --json."""
    return draw(invocations(BUDGET, huge=True)) + ["--json"] * (draw(st.integers(0, 3)) > 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(budgeted_invocations())
@example(["decide", *INST12, "--t=-11", "--node-budget=16", "--json"])
@example(["search", *INST12, "--t-from=-40", "--t-to=40", "--node-budget=100", "--json"])
@example(["decide", *INST12, f"--t=-{(12**8 - 1) // 11}", "--node-budget=3000", "--json"])
@example(["signed", *INST54, "--t=53", "--omega=1,-1,1", "--node-budget=4", "--json"])
def test_every_budget_answers_or_refuses_with_checked_witnesses(argv):
    # The contract at small drawn budgets, where most large inputs are refused with exit 3.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert (code == 0) == (err.getvalue() == ""), argv
    if code:
        assert err.getvalue().startswith("error: "), argv
    if code or "--json" not in argv:
        return
    report = json.loads(out.getvalue())
    assert all(abs(n) < 2**53 for n in json_integers(report)), argv
    for cycle, base in cycles_with_bases(report):
        witness = CycleWitness(tuple(map(int, cycle["nodes"])), tuple(map(int, cycle["digits"])))
        assert witness.verify(base), argv
    for decision in report.get("decisions") or [report.get("decision")]:
        if decision and "missing_frequency" in decision:
            inst = from_descriptor(report["instance"]["descriptor"])
            d, t = int(decision["missing_frequency"]), int(decision["t"])
            level3 = spectra.spectrum_level(inst, t, 3).elements
            assert d not in level3 and all(zero_set_contains(inst, d - lam) for lam in level3), argv


# --------------------------------------------------------------------------
# The parser reads every argv as the standard library's parser does
# --------------------------------------------------------------------------

FLAGS = ["-h", "--help", *(field.flag for field in FIELDS.values())]
# Every prefix of a long flag: unique ones (--node, --no, --he) and ambiguous ones (--t-).
PREFIXES = sorted({flag[:n] for flag in FLAGS if flag.startswith("--") for n in range(3, len(flag))})
VALUES = ["-", "-3", "-.5", "-3/5", "-1,1", "- 3", "1 2", "--t 3", ""]
VALUE = st.sampled_from(["3", "11", "3/5", "1,-1", "1e-3", "5.4"]) | st.sampled_from(VALUES)


@st.composite
def argvs(draw):
    """A command or none, then items: a flag and its value, as one token or two, or one token of any kind."""
    name = draw(st.sampled_from([*COMMANDS, None]))
    own = [f.flag for key, f in FIELDS.items() if key in COMMANDS[name].flags or key in FLAG_ONLY] if name else FLAGS
    flags = st.sampled_from(own) | st.sampled_from(own) | st.sampled_from(FLAGS + PREFIXES)
    pair = st.tuples(flags, VALUE).map(list)
    items = st.one_of(
        pair,
        pair,
        st.builds(lambda flag, value: [f"{flag}={value}"], flags, VALUE),
        st.sampled_from([*COMMANDS, *VALUES, "x", "--", "-hh", "-hx", "-x", "---t"]).map(lambda token: [token]),
    )
    return [name] * (name is not None) + sum(draw(st.lists(items, max_size=5)), [])


def parsed(parser, argv):
    """(namespace dict or None, SystemExit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(argvs())
@example(["decide", "--node", "5", "--no=5", "--t=3", "--t", "5", "--json"])
@example(["search", "--t-", "1"])
@example(["decide", "--json=1"])
@example(["decide", "--t", "3", "--", "x"])
@example(["validate", "--tol", "1e-3", "-h"])
@example(["--json", "decide", "--t", "-"])
@example(["signed", "--t", "- 3", "--omega", "-1,1"])
@example(["type2", "--t", "-3/5"])
@example(["decide", "--t", "-.5", "stray"])
def test_the_parser_reads_argv_as_the_reference_does(argv):
    namespace, code, out, err = parsed(build_parser(), argv)
    ref_namespace, ref_code, _, ref_err = parsed(argparse_reference_parser(), argv)
    assert (namespace, code) == (ref_namespace, ref_code), argv
    if code == 2:
        # Usage lines differ; the error line "prog: error: message" is the reference's.
        assert err.splitlines()[-1] == ref_err.splitlines()[-1], argv
        assert out == ""
    elif code == 0:
        assert out.startswith("usage: speigen") and err == ""
    else:
        assert out == err == ""


def test_a_decide_never_imports_argparse():
    script = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import speigen.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = speigen.cli.main(['decide', '--N', '2', '--R', '3', '--q', '2', '--p', '1', '--t', '1000003'])\n"
        "print(code, 'argparse' in sys.modules)\n"
        "inst = ['--N', '2', '--R', '3', '--q', '2', '--p', '1']\n"
        "exact = [\n"
        "    ['signed', *inst, '--t', '11', '--omega=-1,1'],\n"
        "    ['type2', *inst, '--t', '3/5', '--r-max', '3'],\n"
        "    ['validate', *inst, '--t', '11'],\n"
        "]\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    codes = [speigen.cli.main(argv) for argv in exact]\n"
        "print(codes, 'argparse' in sys.modules)\n"
    )
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == ["0", "False"]
    assert proc.stdout.splitlines()[1] == "[0, 0, 0] False"
