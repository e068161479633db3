"""Command-line interface.

Subcommands: decide, search, signed, type2, attractor, zeroset, validate,
reproduce-paper.  ``COMMANDS`` declares each one: its handler, its help
line, the fields it reads and the message for a missing required field.
``Parser`` reads argv from that table and ``FIELDS``: a command followed by
its own exact flags is read in place, and every other argv goes to the
standard library's argparse, whose help, usage lines and error messages
the user sees.
Every field resolves one way: the flag, else the same key in the JSON
config file (``--config``), else its default; ``--config`` and ``--json``
are flag-only.  Flags arrive as text, and a field's converter
(``from_descriptor`` for the instance) is its one conversion, for flags and
config alike.  Output is a human table by default or JSON with ``--json``;
JSON is the stable interface and serializes every potentially large integer
as a decimal string.  Exit codes: 0 success, 2 invalid instance/config,
3 budget exhaustion.  Only the package's own errors are mapped to exit
codes; any other exception is an internal error and propagates, so the
process exits 1 with a traceback.  A reader that closes stdout early (a
broken pipe) ends the process quietly with status 141, as SIGPIPE would.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

from . import attractor as attractor_mod
from . import eigen, instance, measure, spectra, validate
from .errors import BudgetExceeded, InvalidParameters, SpeigenError, ZeroScaling

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell reports for a writer whose reader left


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


# --------------------------------------------------------------------------
# Fields: flag, conversion of a present value, default
# --------------------------------------------------------------------------

def _rational(value, key: str) -> Fraction:
    text = str(value)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidParameters([("t_parse", f"not a rational number: {text!r}")]) from None


def _sign_word(value, key: str) -> spectra.SignWord:
    """A comma string (flag or config) or a config list of ints."""
    try:
        if isinstance(value, str):
            return spectra.SignWord.parse(value)
        if isinstance(value, list) and all(type(entry) is int for entry in value):
            return spectra.SignWord(tuple(value))
    except ValueError:
        pass
    raise InvalidParameters([("omega_parse", f"omega must be a sign word of -1/+1 entries: {value!r}")])


def _at_least_one(value, key: str) -> int:
    value = instance._coerce_integer(value, key)
    if value < 1:
        raise InvalidParameters([(key, f"{key} must be at least 1")])
    return value


def _tolerance(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise InvalidParameters([(f"{key}_type", f"{key} must be a number")])
    try:
        value = float(value)
    except (ValueError, OverflowError):
        raise InvalidParameters([(f"{key}_parse", f"{key} is not a number: {value!r}")]) from None
    if not value > 0:  # NaN included
        raise InvalidParameters([(key, f"{key} must be positive")])
    if value >= 1:  # an error bound on transform values of modulus at most 1
        raise InvalidParameters([(key, f"{key} must be below 1")])
    return value


def _text(value, key: str) -> str:
    """The value as text, so a config's number 5.2 names the case id "5.2"."""
    return str(value)


@dataclass(frozen=True)
class Field:
    flag: str
    help: str
    convert: Optional[Callable] = None  # (value, key) -> value; None keeps the value as given
    default: object = None


# Parser order: every subcommand lists its flags in this order.
FIELDS = {
    "N": Field("--N", "base digit count (>= 2)"),
    "R": Field("--R", "cofactor coprime to N (>= 2)"),
    "q": Field("--q", "exponent in M = R * N^q"),
    "p": Field("--p", "comma list of block exponents, e.g. 1,2 (empty for one block)", default=()),
    "config": Field("--config", "JSON config file with the same fields as the flags"),
    "node_budget": Field("--node-budget", "cap on each work count", _at_least_one, attractor_mod.DEFAULT_NODE_BUDGET),
    "tol": Field("--tol", "numeric tolerance for probes", _tolerance, 1e-9),
    "json": Field("--json", "emit the stable JSON report instead of a table"),
    "t": Field("--t", "scaling (integer or a/b); for zeroset: the frequency", _rational),
    "t_from": Field("--t-from", "first integer scaling of the range", instance._coerce_integer),
    "t_to": Field("--t-to", "last integer scaling of the range", instance._coerce_integer),
    "omega": Field("--omega", "comma list of +-1 signs, e.g. 1,-1", _sign_word),
    "r_max": Field("--r-max", "search bound for a common sign word", _at_least_one),
    "example": Field("--example", "restrict to one case id: 5.2, 5.3 or 5.4", _text),
}
INSTANCE = ("N", "R", "q", "p")
FLAG_ONLY = ("config", "json")
SWITCH = "json"  # the one flag that takes no value


def _instance_from(get: Callable) -> instance.ProblemInstance:
    descriptor = {}
    for key in ("N", "R", "q"):
        descriptor[key] = get(key)
        if descriptor[key] is None:
            raise InvalidParameters([("missing", f"missing instance parameter {key}")])
    p_value = get("p")
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
# Handlers: each returns its own report fields and table lines
# --------------------------------------------------------------------------

def _decide(inst, t, node_budget):
    decision = eigen.decide_scaling(inst, t, node_budget=node_budget)
    return {"decision": decision.to_json_dict()}, _decision_lines(decision)


def _search(inst, t_from, t_to, node_budget):
    if t_from > t_to:
        raise InvalidParameters([("t_range", "t_from must not exceed t_to")])
    decisions = eigen.search_eigenvalues(inst, t_from, t_to, node_budget=node_budget)
    lines = [f"{'t':>8}  {'verdict':<12} reason"]
    lines += [f"{str(d.t):>8}  {d.verdict.value:<12} {d.reason.value}" for d in decisions]
    return {"decisions": [d.to_json_dict() for d in decisions]}, lines


def _signed(inst, t, omega, node_budget):
    decision = eigen.decide_scaling_signed(inst, t, omega, node_budget=node_budget)
    return {"decision": decision.to_json_dict()}, [f"omega = {list(omega.pattern)}", *_decision_lines(decision)]


def _type2(inst, t, r_max, node_budget):
    if t == 0:  # the user gave --t, not decide_second_type's t1 and t2
        raise ZeroScaling("scaling t must be nonzero")
    verdict = eigen.decide_second_type(inst, t.numerator, t.denominator)
    report = {"t": str(t), "t1": str(t.numerator), "t2": str(t.denominator), "is_second_type_eigenvalue": verdict}
    lines = [f"t = {t}: {'some set and its t-scaling are both spectra' if verdict else 'no such set exists'}"]
    if verdict and r_max is not None:
        word = eigen.find_sign_word(inst, [abs(t.numerator), abs(t.denominator)], r_max, node_budget=node_budget)
        report["sign_word"] = list(word.pattern) if word else None
        if word:
            lines.append(f"common sign word (period {word.r}): {list(word.pattern)}")
            lines.append("witness: scale the sign-twisted spectrum by the denominator")
        else:
            lines.append(f"no common sign word found up to period {r_max} (search bound, not a proof)")
    return report, lines


def _attractor(inst, t, omega, node_budget):
    system = eigen.scaled_system(inst, t, omega, node_budget=node_budget)
    blocks = math.prod(len(phase) for phase in system.phases)
    cycle = attractor_mod.find_nonzero_cycle(system)

    def graph() -> dict:
        # The export lists the block digits, the level-r truncation of the signed spectrum scaled by |t|.
        if blocks > instance.DEFAULT_ELEMENT_BUDGET:
            raise BudgetExceeded("spectrum truncation elements", blocks, instance.DEFAULT_ELEMENT_BUDGET)
        return system.to_json_dict()

    report = {
        "t": str(t),
        "graph": graph,  # called only by --json, so a table never enumerates the block digits nor refuses them
        "integer_points": len(system.nodes),
        "cycle": cycle.to_json_dict() if cycle else None,
    }
    lines = [
        f"base {system.base}, {blocks} digits, candidates [{system.lo}, {system.hi}]",
        f"integer points ({len(system.nodes)}): {list(system.nodes)}",
        f"edges: {len(system.edges)}",
        f"nonzero cycle: {f'nodes {list(cycle.nodes)} digits {list(cycle.digits)}' if cycle else 'none'}",
    ]
    return report, lines


def _zeroset(inst, t):
    witness = measure.zero_set_decompose(inst, t)
    report = {
        "xi": str(t),
        "member": witness is not None,
        "decomposition": None if witness is None else {"k": witness.k, "j": witness.j, "l": str(witness.l)},
    }
    if witness is None:
        line = f"xi = {t}: not in the zero set of the transform"
    else:
        line = f"xi = {t}: zero of the transform; xi = c * M^{witness.k} * N^{inst.exponents[witness.j]} * {witness.l}"
    return report, [line]


def _validate(inst, t, omega, node_budget, tol):
    decision = None
    if omega is None:
        decision = eigen.decide_scaling(inst, t, node_budget=node_budget)
    # The Q probe needs M, max(D) and N**p_j exact in float64 and every
    # level-3 element finite there.  Without them the exact parts are still
    # answered, and the probe is reported unavailable; level 3 is enumerated
    # only when M, max(D) and N**p_j fit.
    trunc = probe = None
    try:
        measure._numeric_params(inst)
    except ValueError as exc:
        unavailable = str(exc)
    else:
        trunc = spectra.spectrum_level(inst, t, 3, omega)
        try:
            float(max(trunc.elements, key=abs))
        except OverflowError:
            unavailable = f"a level-3 element of {max(map(abs, trunc.elements)).bit_length()} bits exceeds float64 range"
        else:
            grid = validate.default_grid(decision)
            probe = validate.completeness_probe(inst, trunc, grid, tol=tol, decision=decision)
    if measure.hadamard_check_exact(inst, t):
        # At t coprime to N every level of t * Lambda_omega is orthogonal (the lemma in hadamard_check_exact).
        orthogonality = validate.ValidationReport(orthogonal=True)
    elif trunc is None:  # no level 3 to take the level-2 window from
        orthogonality = validate.check_orthogonal_set(inst, spectra.spectrum_level(inst, t, 2, omega).elements)
    else:
        orthogonality = validate.check_orthogonal_set(inst, trunc.elements[spectra.level_window(inst, trunc, 2)])

    report = {
        "t": str(t),
        "omega": list(omega.pattern) if omega else None,
        "decision": decision.to_json_dict() if decision else None,
        "orthogonality": orthogonality.to_json_dict(),
        "probe": (
            probe.to_json_dict() if probe else {"available": False, "reason": "float_range", "message": unavailable}
        ),
    }
    lines = [f"t = {t}" + (f", omega = {list(omega.pattern)}" if omega else "")]
    if decision:
        lines += _decision_lines(decision)
    lines.append(f"level-2 orthogonality: {'exact' if orthogonality.orthogonal else 'FAILED'}")
    if not orthogonality.orthogonal:
        lines.append(f"  failing pair: {orthogonality.failing_pair}")
    if probe is None:
        lines.append(f"Q probe: unavailable (float_range: {unavailable})")
        return report, lines
    terminal = [s for s in probe.q_samples if s[1] == trunc.level]
    lines.append(
        f"Q at level {trunc.level}: min {min(s[2] for s in terminal):.9f}, "
        f"max {max(s[2] for s in terminal):.9f} over {len(grid)} grid points"
    )
    if probe.missing_frequency_check is not None:
        d, confirmed = probe.missing_frequency_check
        lines.append(f"missing frequency {d}: exact vanishing {'confirmed' if confirmed else 'FAILED'}")
    lines.append(f"probe violations: {len(probe.violations)}")
    return report, lines


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


def _reproduce(example):
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
    return report, lines


# --------------------------------------------------------------------------
# Command table, parser and dispatch
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    run: Callable  # (inst, **fields) -> (report fields, table lines); no inst without the instance flags
    help: str
    flags: tuple[str, ...]  # fields read, in resolution order; --config and --json come with every command
    required: tuple[str, ...] = ()
    missing: str = ""  # message when a required field is absent
    integer_t: bool = False  # "<command> needs an integer t"


COMMANDS = {
    "decide": Command(
        _decide, "decide whether t * Lambda is a spectrum",
        (*INSTANCE, "t", "node_budget"), ("t",), "missing scaling --t",
    ),
    "search": Command(
        _search, "decide a whole range of integer scalings",
        (*INSTANCE, "t_from", "t_to", "node_budget"), ("t_from", "t_to"), "search needs --t-from and --t-to",
    ),
    "signed": Command(
        _signed, "decide a scaling against a sign-twisted spectrum",
        (*INSTANCE, "t", "omega", "node_budget"), ("t", "omega"), "signed needs --t and --omega", integer_t=True,
    ),
    "type2": Command(
        _type2, "decide the two-sided scaling problem for t = t1/t2",
        (*INSTANCE, "t", "r_max", "node_budget"), ("t",), "type2 needs --t as t1/t2",
    ),
    "attractor": Command(
        _attractor, "export the integer-point transition graph",
        (*INSTANCE, "t", "omega", "node_budget"), ("t",), "attractor needs --t", integer_t=True,
    ),
    "zeroset": Command(
        _zeroset, "test a rational frequency against the transform's zero set",
        (*INSTANCE, "t"), ("t",), "zeroset needs --t (the frequency to test)",
    ),
    "validate": Command(
        _validate, "exact orthogonality plus completeness probes",
        (*INSTANCE, "t", "omega", "node_budget", "tol"), ("t",), "validate needs --t", integer_t=True,
    ),
    "reproduce-paper": Command(_reproduce, "run the built-in reference scenarios", ("example",)),
}


# The subcommands that take an instance may share one config file, so a key
# passes when any of them reads it; reproduce-paper reads its own.
CONFIG_KEYS = {
    takes: frozenset(key for c in COMMANDS.values() if (INSTANCE[0] in c.flags) == takes for key in c.flags)
    for takes in (False, True)
}

PROG = "speigen"
DESCRIPTION = "Exact scaling-eigenvalue decisions for product-form self-similar spectral measures."


class Parser:
    """argv -> namespace over ``COMMANDS`` and ``FIELDS``.

    An argv that is a command name followed only by that command's own
    flags, each as ``--flag=value`` (any value), as ``--flag value`` (a
    value that does not start with ``-``) or as the switch ``--json``, is
    read here, and the last value of a repeated flag wins.  The standard
    library's argparse reads each of those tokens the same way, and it reads
    every other argv: help, prefixes, values that start with ``-``, ``--``,
    stray tokens and every usage error.  It is built from the same table on
    first use, so an exact argv never imports it, and help, usage lines and
    error messages are its own.  The namespace holds ``command`` and each
    field of the command, None when absent (``json`` False).
    """

    def __init__(self):
        self.flags = {
            name: {f.flag: key for key, f in FIELDS.items() if key in c.flags or key in FLAG_ONLY}
            for name, c in COMMANDS.items()
        }

    def parse_args(self, argv: Optional[list[str]] = None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        namespace = self._exact(argv)
        if namespace is None:
            # argparse stores the value of "--flag=--" as [], which no converter
            # reads; as text "--" it is refused with the field's own message.
            parsed = vars(self.fallback.parse_args(argv))
            namespace = {key: "--" if value == [] else value for key, value in parsed.items()}
        return SimpleNamespace(**namespace)

    def _exact(self, argv: list[str]) -> Optional[dict]:
        """The namespace of an argv of exact flags only, or None for argparse to read."""
        flags = self.flags.get(argv[0]) if argv else None
        if flags is None:
            return None
        namespace = {"command": argv[0], **dict.fromkeys(flags.values()), SWITCH: False}
        i, end = 1, len(argv)
        while i < end:
            flag, eq, value = argv[i].partition("=")
            key = flags.get(flag)
            if key is None:
                return None
            if key == SWITCH:
                if eq:
                    return None
                value = True
            elif not eq:
                i += 1
                if i == end or argv[i].startswith("-"):
                    return None
                value = argv[i]
            namespace[key] = value
            i += 1
        return namespace

    @functools.cached_property
    def fallback(self):
        """The standard library parser over the same table."""
        import argparse

        parser = argparse.ArgumentParser(prog=PROG, description=DESCRIPTION)
        sub = parser.add_subparsers(dest="command", required=True)
        for name, command in COMMANDS.items():
            cmd = sub.add_parser(name, help=command.help)
            for key in self.flags[name].values():
                spec = FIELDS[key]
                cmd.add_argument(spec.flag, help=spec.help, **({"action": "store_true"} if key == SWITCH else {}))
        return parser


@functools.cache
def build_parser() -> Parser:
    """The parser for every subcommand, built once per process; parsing leaves it unchanged."""
    return Parser()


def execute(args: SimpleNamespace) -> tuple[dict, list[str]]:
    """Resolve the command's fields, run it and put the instance header first.

    The instance is built before anything else; then every required field
    must be present, and only then are fields converted, in declared order.
    """
    name = args.command
    command = COMMANDS[name]
    config = _load_config(args.config)
    takes_instance = INSTANCE[0] in command.flags  # the instance flags come as one group
    unread = sorted(set(config) - CONFIG_KEYS[takes_instance])
    if unread:
        raise InvalidParameters([("config_key", f"config keys not read by {name}: {', '.join(map(repr, unread))}")])

    def get(key: str):
        for value in (getattr(args, key), config.get(key)):
            if value is not None:
                return value
        return FIELDS[key].default

    report, lines, values = {"command": name}, [], {}
    if takes_instance:
        inst = _instance_from(get)
        report["instance"] = _instance_report(inst)
        lines.append(inst.describe())
        values["inst"] = inst
    fields = [key for key in command.flags if key not in INSTANCE]
    raw = {key: get(key) for key in fields}
    if any(raw[key] is None for key in command.required):
        raise InvalidParameters([("missing", command.missing)])
    for key in fields:
        value, convert = raw[key], FIELDS[key].convert
        if value is not None and convert is not None:
            value = convert(value, key)
        if key == "t" and command.integer_t:
            if value.denominator != 1:
                raise InvalidParameters([("t_integer", f"{name} needs an integer t")])
            value = int(value)
        values[key] = value
    own_report, own_lines = command.run(**values)
    report.update(own_report)
    return report, lines + own_lines


def dispatch(args: SimpleNamespace) -> int:
    """Run one parsed command and print its report; package errors become exit codes.

    A callable report field is an export that only ``--json`` writes, and it
    is evaluated before anything is printed, so a package error it raises
    maps to an exit code like the command's own.
    """
    try:
        report, lines = execute(args)
        if args.json:
            report = {key: value() if callable(value) else value for key, value in report.items()}
    except SpeigenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_INVALID
    # One encoder and fixed options keep the JSON report byte-stable.
    print(json.dumps(report, indent=2, ensure_ascii=False) if args.json else "\n".join(lines))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # JSON reports write M = R * N**q in full, however long
    try:
        return dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``).  Whatever is still
        # buffered goes to os.devnull, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
