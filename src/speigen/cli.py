"""Command-line interface.

Subcommands: decide, search, signed, type2, attractor, zeroset, validate,
reproduce-paper.  Instance parameters come from flags or a JSON config file
(flags win).  Output is a human table by default or JSON with ``--json``;
JSON is the stable interface and serializes every potentially large integer
as a decimal string.  Exit codes: 0 success, 2 invalid instance/config,
3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import attractor as attractor_mod
from . import eigen, instance, measure, spectra, validate
from .errors import BudgetExceeded, InvalidParameters, SizeMismatch, SpeigenError, ZeroScaling

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def dumps(obj) -> str:
    """Single JSON encoder used everywhere, so output is byte-stable."""
    return json.dumps(obj, indent=2, sort_keys=False, ensure_ascii=False)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters([("t_parse", f"not a rational number: {text!r}")]) from None


def _parse_p(text: str) -> list[int]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise InvalidParameters([("p_parse", f"p must be a comma list of integers: {text!r}")]) from None


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise InvalidParameters([("config", f"cannot read config file: {exc}")]) from None
    except json.JSONDecodeError as exc:
        raise InvalidParameters([("config", f"config file is not valid JSON: {exc}")]) from None
    if not isinstance(config, dict):
        raise InvalidParameters([("config", "config file must hold a JSON object")])
    return config


def _merged(config: dict, key: str, flag_value):
    return flag_value if flag_value is not None else config.get(key)


def _scaling(args, config: dict, missing_msg: str, integer_for: Optional[str] = None) -> Fraction | int:
    """``--t`` (or config ``"t"``) as a Fraction, or as an int if ``integer_for`` names the command."""
    text = _merged(config, "t", args.t)
    if text is None:
        raise InvalidParameters([("missing", missing_msg)])
    t = parse_rational(str(text))
    if integer_for is None:
        return t
    if t.denominator != 1:
        raise InvalidParameters([("t_integer", f"{integer_for} needs an integer t")])
    return int(t)


def _sign_word(args, config: dict) -> Optional[spectra.SignWord]:
    """``--omega`` as a comma string, or config ``"omega"`` as a string or a list; None if absent."""
    value = _merged(config, "omega", args.omega)
    if value is None:
        return None
    if not isinstance(value, str):
        return spectra.SignWord(tuple(value))
    try:
        return spectra.SignWord.parse(value)
    except ValueError as exc:
        raise InvalidParameters([("omega_parse", str(exc))]) from None


def _instance_from(args: argparse.Namespace, config: dict) -> instance.ProblemInstance:
    descriptor = {}
    for key, flag in (("N", args.N), ("R", args.R), ("q", args.q)):
        value = _merged(config, key, flag)
        if value is None:
            raise InvalidParameters([("missing", f"missing instance parameter {key}")])
        descriptor[key] = value
    p_value = args.p if args.p is not None else config.get("p", [])
    descriptor["p"] = _parse_p(p_value) if isinstance(p_value, str) else p_value
    return instance.from_descriptor(descriptor)


def _instance_report(inst: instance.ProblemInstance) -> dict:
    out = {
        "descriptor": inst.to_descriptor(),
        "M": str(inst.M),
        "c": str(inst.c),
        "D": [str(d) for d in inst.D],
        "L": [str(l) for l in inst.L],
    }
    notes = []
    if inst.s == 0:
        notes.append("single-block digit set (s=0): accepted as an extension of the product-form template")
    out["notes"] = notes
    return out


def _emit(args, report: dict, table_lines: list[str]) -> None:
    if args.json:
        print(dumps(report))
    else:
        for line in table_lines:
            print(line)


def _decision_lines(decision: eigen.EigenDecision) -> list[str]:
    lines = [f"t = {decision.t}: {decision.verdict.value} ({decision.reason.value})"]
    if decision.integer_point_count is not None:
        lines.append(f"  integer points: {decision.integer_point_count}")
    if decision.cycle is not None:
        lines.append(f"  cycle nodes:  {list(decision.cycle.nodes)}")
        lines.append(f"  cycle digits: {list(decision.cycle.digits)}")
    if decision.missing_frequency is not None:
        lines.append(f"  missing frequency: {decision.missing_frequency}")
    return lines


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _cmd_decide(args, config) -> int:
    inst = _instance_from(args, config)
    t = _scaling(args, config, "missing scaling --t")
    decision = eigen.decide_scaling(inst, t, node_budget=args.node_budget)
    report = {
        "command": "decide",
        "instance": _instance_report(inst),
        "decision": decision.to_json_dict(),
    }
    _emit(args, report, [inst.describe(), *_decision_lines(decision)])
    return EXIT_OK


def _cmd_search(args, config) -> int:
    inst = _instance_from(args, config)
    t_from = _merged(config, "t_from", args.t_from)
    t_to = _merged(config, "t_to", args.t_to)
    if t_from is None or t_to is None:
        raise InvalidParameters([("missing", "search needs --t-from and --t-to")])
    decisions = eigen.search_eigenvalues(inst, int(t_from), int(t_to), node_budget=args.node_budget)
    report = {
        "command": "search",
        "instance": _instance_report(inst),
        "decisions": [d.to_json_dict() for d in decisions],
    }
    lines = [inst.describe(), f"{'t':>8}  {'verdict':<12} reason"]
    lines += [f"{str(d.t):>8}  {d.verdict.value:<12} {d.reason.value}" for d in decisions]
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_signed(args, config) -> int:
    inst = _instance_from(args, config)
    missing = "signed needs --t and --omega"
    if _merged(config, "omega", args.omega) is None:
        raise InvalidParameters([("missing", missing)])
    t = _scaling(args, config, missing, integer_for="signed")
    omega = _sign_word(args, config)
    decision = eigen.decide_scaling_signed(inst, t, omega, node_budget=args.node_budget)
    report = {
        "command": "signed",
        "instance": _instance_report(inst),
        "decision": decision.to_json_dict(),
    }
    _emit(args, report, [inst.describe(), f"omega = {list(omega.pattern)}", *_decision_lines(decision)])
    return EXIT_OK


def _cmd_type2(args, config) -> int:
    inst = _instance_from(args, config)
    t = _scaling(args, config, "type2 needs --t as t1/t2")
    verdict = eigen.decide_second_type(inst, t.numerator, t.denominator)
    report = {
        "command": "type2",
        "instance": _instance_report(inst),
        "t": str(t),
        "t1": str(t.numerator),
        "t2": str(t.denominator),
        "is_second_type_eigenvalue": verdict,
    }
    lines = [
        inst.describe(),
        f"t = {t}: {'some set and its t-scaling are both spectra' if verdict else 'no such set exists'}",
    ]
    r_max = _merged(config, "r_max", args.r_max)
    if verdict and r_max is not None:
        word = eigen.find_sign_word(
            inst, [abs(t.numerator), abs(t.denominator)], int(r_max), node_budget=args.node_budget
        )
        report["sign_word"] = list(word.pattern) if word else None
        if word:
            lines.append(f"common sign word (period {word.r}): {list(word.pattern)}")
            lines.append("witness: scale the sign-twisted spectrum by the denominator")
        else:
            lines.append(f"no common sign word found up to period {r_max} (search bound, not a proof)")
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_attractor(args, config) -> int:
    inst = _instance_from(args, config)
    t = _scaling(args, config, "attractor needs --t", integer_for="attractor")
    t_int = abs(t)
    omega = _sign_word(args, config)
    if omega is not None:
        base = inst.M**omega.r
        digits = spectra.block_digit_set(inst, omega, t_int)
    else:
        base = inst.M
        digits = tuple(t_int * l for l in inst.L)
    system = attractor_mod.build_graph(base, digits, node_budget=args.node_budget)
    cycle = attractor_mod.find_nonzero_cycle(system)
    report = {
        "command": "attractor",
        "instance": _instance_report(inst),
        "t": str(t),
        "graph": system.to_json_dict(),
        "integer_points": len(system.nodes),
        "cycle": cycle.to_json_dict() if cycle else None,
    }
    lines = [
        inst.describe(),
        f"base {base}, {len(system.digits)} digits, candidates [{system.lo}, {system.hi}]",
        f"integer points ({len(system.nodes)}): {list(system.nodes)}",
        f"edges: {len(system.edges)}",
        f"nonzero cycle: {f'nodes {list(cycle.nodes)} digits {list(cycle.digits)}' if cycle else 'none'}",
    ]
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_zeroset(args, config) -> int:
    inst = _instance_from(args, config)
    xi = _scaling(args, config, "zeroset needs --t (the frequency to test)")
    witness = measure.zero_set_decompose(inst, xi if xi.denominator != 1 else int(xi))
    report = {
        "command": "zeroset",
        "instance": _instance_report(inst),
        "xi": str(xi),
        "member": witness is not None,
        "decomposition": None
        if witness is None
        else {"k": witness.k, "j": witness.j, "l": str(witness.l)},
    }
    lines = [inst.describe()]
    if witness is None:
        lines.append(f"xi = {xi}: not in the zero set of the transform")
    else:
        lines.append(
            f"xi = {xi}: zero of the transform; xi = c * M^{witness.k} * N^{inst.exponents[witness.j]} * {witness.l}"
        )
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_validate(args, config) -> int:
    inst = _instance_from(args, config)
    t = _scaling(args, config, "validate needs --t", integer_for="validate")
    omega = _sign_word(args, config)

    decision = None
    if omega is None:
        decision = eigen.decide_scaling(inst, t, node_budget=args.node_budget)
    orth_level = spectra.spectrum_level(inst, t, 2, omega)
    orthogonality = validate.check_orthogonal_set(inst, orth_level.elements)
    probe_level = spectra.spectrum_level(inst, t, 3, omega)
    grid = validate.default_grid(decision)
    probe = validate.completeness_probe(inst, probe_level, grid, tol=args.tol, decision=decision)

    report = {
        "command": "validate",
        "instance": _instance_report(inst),
        "t": str(t),
        "omega": list(omega.pattern) if omega else None,
        "decision": decision.to_json_dict() if decision else None,
        "orthogonality": orthogonality.to_json_dict(),
        "probe": probe.to_json_dict(),
    }
    terminal = [s for s in probe.q_samples if s[1] == probe_level.level]
    lines = [inst.describe(), f"t = {t}" + (f", omega = {list(omega.pattern)}" if omega else "")]
    if decision:
        lines += _decision_lines(decision)
    lines.append(f"level-2 orthogonality: {'exact' if orthogonality.orthogonal else 'FAILED'}")
    if not orthogonality.orthogonal:
        lines.append(f"  failing pair: {orthogonality.failing_pair}")
    lines.append(
        f"Q at level {probe_level.level}: min {min(s[2] for s in terminal):.9f}, "
        f"max {max(s[2] for s in terminal):.9f} over {len(grid)} grid points"
    )
    if probe.missing_frequency_check is not None:
        d, confirmed = probe.missing_frequency_check
        lines.append(f"missing frequency {d}: exact vanishing {'confirmed' if confirmed else 'FAILED'}")
    lines.append(f"probe violations: {len(probe.violations)}")
    _emit(args, report, lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# Built-in reference cases
# --------------------------------------------------------------------------

def _case_rows(inst: instance.ProblemInstance, expectations: list[tuple[int, eigen.Verdict]]) -> list[dict]:
    rows = []
    for t, expected in expectations:
        decision = eigen.decide_scaling(inst, t)
        ok = decision.verdict is expected
        if ok and expected is eigen.Verdict.SPECTRUM:
            level = spectra.spectrum_level(inst, t, 2)
            ok = validate.check_orthogonal_set(inst, level.elements).orthogonal
            ok = ok and abs(validate.q_function(inst, level.elements, 0.0, tol=1e-12) - 1.0) <= 1e-9
        if ok and expected is eigen.Verdict.NOT_SPECTRUM and decision.cycle is not None:
            ok = decision.cycle.verify(inst.M)
        rows.append(
            {
                "t": str(t),
                "expected": expected.value,
                "observed": decision.verdict.value,
                "reason": decision.reason.value,
                "pass": ok,
            }
        )
    return rows


def reproduce_paper(example: Optional[str] = None) -> dict:
    """Run the built-in reference scenarios end to end; failures become rows."""
    spectrum = eigen.Verdict.SPECTRUM
    not_spectrum = eigen.Verdict.NOT_SPECTRUM
    cases = []
    if example in (None, "5.2"):
        inst = instance.build_instance(2, 15, 3, [1, 2])
        expect = [(t, spectrum) for t in (3, 5, 15, 9, 25, 225)]
        cases.append(("5.2", inst, _case_rows(inst, expect)))
    if example in (None, "5.3"):
        inst = instance.build_instance(2, 3, 4, [3])
        expect = [(t, spectrum) for t in (3, 9, 27)]
        cases.append(("5.3", inst, _case_rows(inst, expect)))
    if example in (None, "5.4"):
        inst = instance.build_instance(2, 3, 2, [1])
        expect = [(t, not_spectrum) for t in (11, 33, 55)]
        expect += [(t, spectrum if t != 11 else not_spectrum) for t in range(1, 20, 2)]
        cases.append(("5.4", inst, _case_rows(inst, expect)))
    if not cases:
        raise InvalidParameters([("example", f"unknown example id: {example!r} (use 5.2, 5.3 or 5.4)")])
    report = {
        "command": "reproduce-paper",
        "cases": [
            {
                "id": case_id,
                "instance": _instance_report(inst),
                "rows": rows,
                "pass": all(row["pass"] for row in rows),
            }
            for case_id, inst, rows in cases
        ],
    }
    report["pass"] = all(case["pass"] for case in report["cases"])
    return report


def _cmd_reproduce(args, config) -> int:
    example = _merged(config, "example", args.example)
    report = reproduce_paper(example)
    lines = []
    for case in report["cases"]:
        desc = case["instance"]["descriptor"]
        lines.append(f"case {case['id']}: N={desc['N']} R={desc['R']} q={desc['q']} p={desc['p']}")
        for row in case["rows"]:
            status = "pass" if row["pass"] else "FAIL"
            lines.append(f"  t = {row['t']:>4}: {row['observed']:<12} expected {row['expected']:<12} [{status}]")
        lines.append(f"  case result: {'pass' if case['pass'] else 'FAIL'}")
    lines.append(f"overall: {'pass' if report['pass'] else 'FAIL'}")
    _emit(args, report, lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------

def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, default=None, help="base digit count (>= 2)")
    parser.add_argument("--R", type=int, default=None, help="cofactor coprime to N (>= 2)")
    parser.add_argument("--q", type=int, default=None, help="exponent in M = R * N^q")
    parser.add_argument("--p", type=str, default=None, help="comma list of block exponents, e.g. 1,2 (empty for one block)")
    parser.add_argument("--config", type=str, default=None, help="JSON config file with the same fields as the flags")
    parser.add_argument("--node-budget", dest="node_budget", type=int, default=attractor_mod.DEFAULT_NODE_BUDGET)
    parser.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance for probes")
    parser.add_argument("--json", action="store_true", help="emit the stable JSON report instead of a table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speigen",
        description="Exact scaling-eigenvalue decisions for product-form self-similar spectral measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "decide": (_cmd_decide, "decide whether t * Lambda is a spectrum"),
        "search": (_cmd_search, "decide a whole range of integer scalings"),
        "signed": (_cmd_signed, "decide a scaling against a sign-twisted spectrum"),
        "type2": (_cmd_type2, "decide the two-sided scaling problem for t = t1/t2"),
        "attractor": (_cmd_attractor, "export the integer-point transition graph"),
        "zeroset": (_cmd_zeroset, "test a rational frequency against the transform's zero set"),
        "validate": (_cmd_validate, "exact orthogonality plus completeness probes"),
        "reproduce-paper": (_cmd_reproduce, "run the built-in reference scenarios"),
    }
    for name, (func, help_text) in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_instance_flags(cmd)
        if name in ("decide", "signed", "type2", "attractor", "zeroset", "validate"):
            cmd.add_argument("--t", type=str, default=None, help="scaling (integer or a/b); for zeroset: the frequency")
        if name == "search":
            cmd.add_argument("--t-from", dest="t_from", type=int, default=None)
            cmd.add_argument("--t-to", dest="t_to", type=int, default=None)
        if name in ("signed", "attractor", "validate"):
            cmd.add_argument("--omega", type=str, default=None, help="comma list of +-1 signs, e.g. 1,-1")
        if name == "type2":
            cmd.add_argument("--r-max", dest="r_max", type=int, default=None, help="search bound for a common sign word")
        if name == "reproduce-paper":
            cmd.add_argument("--example", type=str, default=None, help="restrict to one case id: 5.2, 5.3 or 5.4")
        cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # JSON reports write M = R * N**q in full, however long
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ZeroScaling, SizeMismatch, SpeigenError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
