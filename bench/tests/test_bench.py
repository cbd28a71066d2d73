"""The benchmark's own tests: every correctness check rejects a corrupted
output, traced counts repeat exactly, and a checkout without the package
fails loudly.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lexchain import checkpoint, corpus, metrics, model, tensor, training
from lexchain.corpus import CorpusSplit

import checks
import inputs
from gauge import Gauge
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def library():
    return workloads.load_library()


@pytest.fixture(scope="module")
def decode_model():
    mdl, _ = checkpoint.load_checkpoint(inputs.DECODE_CHECKPOINT)
    return mdl


@pytest.fixture(scope="module")
def unseen_cases(library):
    cases = corpus.synthesize_corpus(inputs.DECODE_SEED_OFFSET, library, cases_per_charge=1)
    return cases[:3]


def _greedy(mdl, case, chain_set, ids):
    rows, prefix_len = checks.full_sequence_logits(mdl, case, chain_set, ids)
    stopped_early = len(ids) < inputs.DECODE_MAX_LEN and prefix_len + len(ids) < mdl.cfg.context
    return checks.greedy_problems(case.case_id, rows, ids, mdl.table.vocab["<eos>"],
                                  stopped_early)


def test_greedy_check_rejects_a_swapped_token(decode_model, unseen_cases, library):
    case = unseen_cases[0]
    ids = model.decode_case(decode_model, case, library[case.charge],
                            max_len=inputs.DECODE_MAX_LEN).token_ids
    assert ids and _greedy(decode_model, case, library[case.charge], ids) == []
    swapped = list(ids)
    j = len(ids) // 2
    swapped[j] = (ids[j] + 1) % decode_model.vocab_size
    problems = _greedy(decode_model, case, library[case.charge], swapped)
    assert any(f"token {j} " in p for p in problems)


def test_greedy_check_rejects_a_stop_without_eos(decode_model, unseen_cases, library):
    case = unseen_cases[1]
    ids = model.decode_case(decode_model, case, library[case.charge],
                            max_len=inputs.DECODE_MAX_LEN).token_ids
    problems = _greedy(decode_model, case, library[case.charge], ids[:-1])
    assert any("without <eos>" in p for p in problems)


def test_directional_check_rejects_a_scaled_gradient(decode_model, unseen_cases, library):
    batch = [(case, library[case.charge]) for case in unseen_cases[:2]]
    names_before = {n: t.data.copy() for n, t in decode_model.params.items()}
    fd, analytic = checks.directional_derivative(decode_model, batch, seed=3)
    assert checks.directional_problems(fd, analytic) == []
    assert checks.directional_problems(fd, analytic * 1.01)
    for name, data in names_before.items():
        assert (decode_model.params[name].data == data).all()


def test_gradcheck_check_rejects_a_scaled_gradient(monkeypatch):
    original = tensor.backward

    def scaled(tape, loss):
        out = original(tape, loss)
        for t in tape.watched:
            t.grad = t.grad * 1.01
        return out

    monkeypatch.setattr(tensor, "backward", scaled)
    with workloads.OpClock(training, "joint_loss", Gauge("dispatch")).installed() as clock:
        err, scalars = training.gradcheck_full_pipeline(seed=0, d=4, heads=1, layers=1)
    evals = len(clock.ends)
    param_count = sum(t.size for t in clock.last_args[1].params.values())
    assert checks.gradcheck_problems(err, scalars, evals, param_count)
    assert not checks.gradcheck_problems(1e-8, scalars, evals, param_count)
    assert checks.gradcheck_problems(1e-8, scalars - 1, evals, param_count)
    assert checks.gradcheck_problems(1e-8, scalars, evals - 2, param_count)


def test_months_check_rejects_a_changed_figure(library):
    cases = corpus.synthesize_corpus(1, library, cases_per_charge=2)
    texts = {c.case_id: c.opinion for c in cases}
    report = metrics.evaluate_outputs(cases, texts)
    assert checks.months_problems(cases, texts, report) == []
    case = cases[1]
    changed = dict(texts)
    changed[case.case_id] = texts[case.case_id].replace(
        f" {case.sentence_months} months", f" {case.sentence_months + 7} months")
    assert changed[case.case_id] != texts[case.case_id]
    assert checks.months_problems(cases, changed, report)


@pytest.mark.parametrize("text", [
    "no clause here",
    "sentenced to 12 months of fixed-term imprisonment.",
    "to 12months of fixed-term imprisonment, later 30  months of fixed-term imprisonment",
    "the months of fixed-term imprisonment and 7 months of fixed-term imprisonment",
    "7 months of fixed-term imprisonment, then the months of fixed-term imprisonment",
])
def test_months_parse_agrees_with_the_metric(text):
    assert checks.months_figure(text) == metrics.extract_sentence_months(text)


def test_gold_check_rejects_a_failed_screen(library):
    cases = corpus.synthesize_corpus(2, library, cases_per_charge=1)
    gold = {c.case_id: c.opinion for c in cases}
    report = metrics.evaluate_outputs(cases, gold)
    screening = metrics.screen_corpus(cases, gold, library)
    assert checks.gold_problems(report, screening) == []
    wrong = dict(gold)
    wrong[cases[0].case_id] = wrong[cases[0].case_id].replace(cases[0].defendant, "someone")
    assert checks.gold_problems(metrics.evaluate_outputs(cases, wrong),
                                metrics.screen_corpus(cases, wrong, library))


def test_checkpoint_check_rejects_a_flipped_byte(decode_model, tmp_path):
    a, b = tmp_path / "a.zip", tmp_path / "b.zip"
    checkpoint.save_checkpoint(a, decode_model)
    checkpoint.save_checkpoint(b, decode_model)
    assert checks.same_bytes_problems(a.read_bytes(), b.read_bytes(), "b.zip") == []
    flipped = bytearray(b.read_bytes())
    flipped[len(flipped) // 2] ^= 0x01
    assert checks.same_bytes_problems(a.read_bytes(), bytes(flipped), "b.zip")


def test_loss_check_rejects_a_rise_and_a_nan():
    rows = [{"epoch": e, "loss_total": v, "loss_reasoning": 1.0, "loss_sentencing": 1.0}
            for e, v in ((1, 3.0), (2, 2.0))]
    assert checks.loss_problems(rows) == []
    assert checks.loss_problems(rows[::-1])
    rows[0]["loss_sentencing"] = float("nan")
    assert checks.loss_problems(rows)


COUNTS = ["tensor.tape_nodes_per_step", "tensor.tensors_per_step",
          "encoder.encode_calls_per_step", "encoder.distinct_sets_per_encode_step",
          "tokenizer.tokenize_calls_per_step", "tokenizer.distinct_texts_per_tokenize_step"]


def test_traced_train_counts_repeat_exactly(library, tmp_path):
    parts = inputs.training_split(library, 0)
    small = (library, CorpusSplit(train=parts.train[::4], test=[], seed=0))
    seen = []
    for attempt in range(2):
        workload = workloads.Train(0, tmp_path)
        with tracing.Tracer() as tracer:
            workload.round(small, attempt)
        values = tracing.layer_metrics(tracer, "train", (0, 2**63), tracer.tensors, COUNTS)
        assert all(values[name] > 0 for name in COUNTS)
        seen.append(values)
    assert seen[0] == seen[1]


def test_every_listed_metric_resolves_on_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for workload in workloads.WORKLOADS:
        values = tracing.layer_metrics(tracing.Tracer(), workload, (0, 0), 0, names)
        assert sorted(values) == sorted(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_checkout_without_the_package_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no lexchain package" in proc.stderr
