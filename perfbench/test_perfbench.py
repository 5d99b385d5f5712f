"""Tests of the benchmark itself: its reference, its checks, its tracer."""

import json

import numpy as np
import pytest

import sgsov
import sgsov.acceptance
import sgsov.cli

import reference
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def params():
    return sgsov.acceptance.default_instance(seed=7)


LAM = 1.3 * np.exp(0.7j)


def test_reference_transfer_matches_program(params):
    for lam in (LAM, 0.6 - 0.2j, -1.9j):
        ours = reference.transfer_matrix(params.N, params.p, params.p_prime,
                                         params.kappa, params.xi, lam)
        theirs = sgsov.transfer(params, lam)
        assert np.linalg.norm(ours - theirs) <= 1e-13 * np.linalg.norm(theirs)


COMMANDS = ("spectrum", "formfactors")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One (3,3) call of each command, as its workload makes it."""
    out = {}
    for command in COMMANDS:
        load = workloads.CliWorkload(command, 3, 3, command == "formfactors",
                                     tmp_path_factory.mktemp(command) / "out.jsonl")
        inst = load.draw(np.random.default_rng(5))
        out[command] = load, inst, load.output(inst, load.call(inst))
    return out


@pytest.mark.parametrize("command", COMMANDS)
def test_checks_pass_and_output_repeats(runs, command):
    load, inst, out = runs[command]
    assert out[0] == 0
    assert load.check(inst, out) == []
    assert load.output(inst, load.call(inst)) == out


@pytest.mark.parametrize("command", COMMANDS)
def test_checks_reject_exit_code_and_missing_record(runs, command):
    load, inst, (rc, text) = runs[command]
    assert load.check(inst, (3, text)) == ["exit code 3"]
    assert load.check(inst, (rc, b"\n".join(text.splitlines()[:-1]) + b"\n"))


def _edit(text: bytes, match, change) -> bytes:
    """Apply ``change`` to the first record that ``match`` accepts."""
    lines = text.decode().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if match(rec):
            change(rec)
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            return ("\n".join(lines) + "\n").encode()
    raise AssertionError("no record matched")


def _problems_after_edit(run, match, change):
    load, inst, (rc, text) = run
    edited = _edit(text, match, change)
    assert edited != text
    return load.check(inst, (rc, edited))


def test_spectrum_check_rejects_perturbed_t_coefficient(runs):
    def perturb(rec):
        rec["value"][1] = [v * (1 + 1e-6) for v in rec["value"][1]]

    problems = _problems_after_edit(runs["spectrum"], lambda r: r.get("index") == 4, perturb)
    assert any("power-sum" in p for p in problems)


def test_spectrum_check_rejects_duplicated_eigenvalue(runs):
    load, inst, (rc, text) = runs["spectrum"]
    rows = [json.loads(line) for line in text.decode().splitlines()]
    twin = next(r for r in rows if r.get("index") == 1)["value"]

    def duplicate(rec):
        rec["value"] = twin

    problems = _problems_after_edit(runs["spectrum"], lambda r: r.get("index") == 2, duplicate)
    assert any("not distinct" in p for p in problems)


@pytest.mark.parametrize("operator, row, col, factor, message", [
    ("u1", 3, 7, 1 + 1e-4, "ratio spread"),
    ("identity", 2, 2, 1 + 1e-4, "ratio spread"),
    ("identity", 1, 4, 1e9, "off-diagonal"),
])
def test_formfactors_check_rejects_edited_det_record(runs, operator, row, col,
                                                     factor, message):
    def scale(rec):
        rec["det"] = [v * factor for v in rec["det"]]

    def match(rec):
        return rec["record"] == "Phi" and (rec["operator"], rec["row"], rec["col"]) == (operator, row, col)

    problems = _problems_after_edit(runs["formfactors"], match, scale)
    assert any(message in p for p in problems)


class _Corrupting(workloads.CliWorkload):
    """The spectrum workload at (3, 3), editing the output of chosen calls."""

    def __init__(self, tmp, corrupt_calls=()):
        super().__init__("spectrum", 3, 3, False, tmp / "spectrum.jsonl")
        self.corrupt_calls = set(corrupt_calls)
        self.calls = 0

    def output(self, inst, rc):
        rc, text = super().output(inst, rc)
        self.calls += 1
        if self.calls in self.corrupt_calls:
            text = text.replace(b'"passed":true', b'"passed":false', 1)
        return rc, text


def _measure(workload):
    return run.measure(workload, np.random.default_rng(3), seconds=0.0)


def test_clean_round_counts_no_failure(tmp_path):
    stats = _measure(_Corrupting(tmp_path))
    assert (stats["attempted"], stats["failed"], stats["correct"]) == (2, 0, True)
    assert len(stats["untraced_s"]) == 2


@pytest.mark.parametrize("corrupt, failed", [((1,), 2), ((2,), 1), ((1, 2), 2)])
def test_corrupted_output_counts_as_failed(tmp_path, corrupt, failed):
    # a corrupted first call fails the checks, and so does its identical
    # repeat; a corrupted repeat differs from the first call
    stats = _measure(_Corrupting(tmp_path, corrupt))
    assert (stats["attempted"], stats["failed"], stats["correct"]) == (2, failed, False)


def test_tracer_rebinds_and_restores():
    import sgsov.acceptance as acc
    import sgsov.pipeline as pipe
    originals = (acc.transfer, pipe.form_factor, sgsov.cli.form_factor_det_scale,
                 acc.CRITERIA[0], sgsov.cli.COMMANDS["formfactors"], sgsov.solve)
    tracer = tracing.Tracer()
    with tracer:
        current = (acc.transfer, pipe.form_factor, sgsov.cli.form_factor_det_scale,
                   acc.CRITERIA[0], sgsov.cli.COMMANDS["formfactors"], sgsov.solve)
        assert all(a is not b for a, b in zip(originals, current))
        assert all(c.__wrapped__ is o for o, c in zip(originals, current))
    restored = (acc.transfer, pipe.form_factor, sgsov.cli.form_factor_det_scale,
                acc.CRITERIA[0], sgsov.cli.COMMANDS["formfactors"], sgsov.solve)
    assert all(a is b for a, b in zip(originals, restored))


def test_tracer_self_times_add_up(params):
    tracer = tracing.Tracer()
    with tracer:
        sgsov.solve(params, seed=7)
    summary = tracer.summary()
    spans = tracer.arrays()
    top = spans["parent"] < 0
    assert summary["pipeline.solve"]["calls"] == 1 == top.sum()
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == pytest.approx(summary["pipeline.solve"]["s"], rel=1e-9)
    assert summary["yang_baxter.monodromy"]["calls"] > 0
    # four entries per site per monodromy build, plus the u1 operator
    assert summary["model.embed"]["calls"] == 4 * params.N * summary["yang_baxter.monodromy"]["calls"] + 1
    assert tracer.count_within("sov_basis.diagonalize_b_family", "pipeline.solve") >= 1
