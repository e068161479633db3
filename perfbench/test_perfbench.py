"""Tests of the benchmark itself: generator, checker and tracing wrappers."""

from __future__ import annotations

import copy
import importlib
import itertools
import json

import pytest

from perfbench import run, workloads

CLI = run.load_cli()

from perfbench import checker, tracing  # noqa: E402  (checker imports speigen from src/)


def _argvs(workload: str, seed: int, n: int) -> list[list[str]]:
    return [req.argv for req in itertools.islice(workloads.requests(workload, seed), n)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _argvs(workload, 1, 40) == _argvs(workload, 1, 40)
    assert _argvs(workload, 1, 40) != _argvs(workload, 2, 40)


def test_generator_respects_workload_ranges():
    for req in itertools.islice(workloads.requests("decide-large-t", 3), 200):
        assert 100 <= int(req.t) <= 10**6 + 2
    for req in itertools.islice(workloads.requests("validate-probe", 3), 200):
        assert 1 <= int(req.t) < 1000
    for req in itertools.islice(workloads.requests("sign-words", 3), 200):
        assert req.kind in ("type2", "signed")
        assert req.kind == "type2" or len(req.omega) in (3, 4)
        assert any(a.startswith("--omega=") for a in req.argv) == (req.kind == "signed")


def _response(req: workloads.Request) -> dict:
    rc, out, err, _ = run.call(CLI, req)
    assert rc == 0, err
    return json.loads(out)


def _problems(req: workloads.Request, report: dict) -> list[str]:
    return checker.Checker().check(req, 0, json.dumps(report))


CYCLE = workloads.Request("decide", workloads.M12, "11")  # CycleFound with a missing frequency
SPECTRUM = workloads.Request("decide", workloads.M12, "7")


def test_checker_accepts_real_responses():
    for req in (CYCLE, SPECTRUM, workloads.Request("validate", workloads.M12, "11")):
        assert _problems(req, _response(req)) == []
    for req in itertools.islice(workloads.requests("sign-words", 1), 16):
        assert _problems(req, _response(req)) == []


def _flip_digit(report):
    report["decision"]["cycle"]["digits"][0] = str(int(report["decision"]["cycle"]["digits"][0]) + 1)


def _flip_verdict(report):
    report["decision"]["verdict"] = "Spectrum"


def _drop_missing(report):
    del report["decision"]["missing_frequency"]


@pytest.mark.parametrize("tamper", [_flip_digit, _flip_verdict, _drop_missing])
def test_checker_flags_tampered_cycle_responses(tamper):
    report = _response(CYCLE)
    tampered = copy.deepcopy(report)
    tamper(tampered)
    assert _problems(CYCLE, tampered)


def test_checker_flags_flipped_spectrum_and_type2_verdicts():
    report = _response(SPECTRUM)
    report["decision"]["verdict"] = "NotSpectrum"
    assert _problems(SPECTRUM, report)
    req = workloads.Request("type2", workloads.M12, "11/5", r_max=4)
    report = _response(req)
    report["is_second_type_eigenvalue"] = not report["is_second_type_eigenvalue"]
    assert _problems(req, report)


def test_checker_counts_failed_exits():
    assert checker.Checker().check(SPECTRUM, 2, "") == ["exit code 2"]
    assert checker.Checker().check(SPECTRUM, "SystemExit(2)", "")


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.PATCHES}


def _run(requests, tracer=None):
    outs = []
    for rid, req in enumerate(requests):
        if tracer is None:
            outs.append(run.call(CLI, req)[:2])
        else:
            tracer.request_id = rid
            with tracer.span("request"):
                outs.append(run.call(CLI, req, tracer)[:2])
    return outs


def test_wrappers_restore_attributes_and_keep_responses():
    requests = list(itertools.islice(workloads.requests("validate-probe", 1), 4))
    requests += list(itertools.islice(workloads.requests("sign-words", 1), 32))
    before = _originals()
    plain = _run(requests)
    tracer = tracing.Tracer()
    with tracing.patched(tracer) as missing:
        assert missing == []
        assert all(_originals()[key] is not fn for key, fn in before.items())
        traced = _run(requests, tracer)
    assert _originals() == before
    assert all(_originals()[key] is fn for key, fn in before.items())
    assert traced == plain
    names = set(tracer.names)
    assert {"attractor.integer_points", "kernels.fourier_products", "eigen.find_sign_word"} <= names
    layers = tracing.Layers(tracer, {rid: req.instance.M for rid, req in enumerate(requests)})
    assert layers.requests == len(requests)
    metrics = tracing.layer_metrics(layers)
    assert metrics["attractor.integer_points.candidates"][0] > 0
    assert metrics["kernels.fourier_products.calls"][0] > 0


def test_wrappers_restore_attributes_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(_originals()[key] is fn for key, fn in before.items())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(400) == 95.0
    assert run.tail_percentile(150) == 90.0
    assert run.percentile([1.0, 2.0, 3.0], 50.0) == 2.0
