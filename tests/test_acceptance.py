"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints exactly one ``[criterion NN] name: PASS/FAIL (detail)`` line
(run with ``pytest -s`` to see the lines for passing tests) and then asserts.
Tolerances and budgets are pinned in the assertions themselves:

  01  gradient fidelity        max relative error < 1e-4, < 60 s
  02  sequence shape law       rows = chains + fact tokens; attention rows sum
                               to 1 within 1e-9 (50 random fixtures)
  03  gating convexity         g strictly inside (0,1); blended vector strictly
                               between both pathways (1000 draws)
  04  metric oracle            ROUGE/BLEU equal a brute-force oracle on 100
                               pairs; MAE <= RMSE on 1000 random vectors
  05  combined-score fixtures  frozen triple (8.45, 42.26, 76.15) -> 2.72
                               within 0.01; four more triples within 0.1
  06  screening fixture        48-month robbery opinion passes all three
                               checks; 30 months fails sentencing vs [36,120]
  07  ablation direction       chain-conditioned twin beats the chain-free
                               twin on held-out MAE (lower) and ROUGE-L
                               (higher), 3-seed means, < 15 min
  08  memorization             single-case loss < 0.05 within 500 steps and
                               verbatim greedy reproduction
  09  round trips              chain files byte-identical through parse and
                               serialize; checkpoint reload reproduces metrics
                               bitwise; condition evaluator matches exhaustive
                               truth tables for every tree with <= 4 operators
  10  CLI determinism          every subcommand is byte-reproducible
"""

import contextlib
import io
import itertools
import shutil
import time

import numpy as np
import pytest

from lexchain.chains import (
    ChainSet,
    Node,
    Predicate,
    SentencingRange,
    chain_from_text,
    eval_condition,
    load_chain_library,
    parse_chain_file,
    serialize_chain_set,
)
from lexchain.cli import default_chains_dir
from lexchain.cli import main as cli_main
from lexchain.checkpoint import load_checkpoint
from lexchain.corpus import CaseRecord, CorpusSplit, synthesize_corpus, split
from lexchain.encoder import build_vocab, crime_transform, encode_chain, encode_chain_set
from lexchain.metrics import bleu, combined_score, mae_rmse, rouge, screen_opinion
from lexchain.model import ModelConfig, build_model, combine, decode_case
from lexchain.tensor import Tensor
from lexchain.tokenizer import tokenize
from lexchain.training import (
    TrainConfig,
    TrainResult,
    evaluate_heldout,
    gradcheck_full_pipeline,
    run_ablation,
    train,
)

from test_metrics import _oracle_bleu_scores, _oracle_rouge, _random_token_text


def _verdict(index: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {index:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def library():
    return load_chain_library(default_chains_dir())


def test_01_gradient_fidelity():
    start = time.time()
    err, scalars = gradcheck_full_pipeline(seed=0, d=16, heads=2, layers=2, eps=1e-5)
    elapsed = time.time() - start
    ok = err < 1e-4 and elapsed < 60.0
    assert _verdict(
        1, "gradient fidelity", ok,
        f"max rel err {err:.2e} over {scalars} scalars in {elapsed:.1f}s; "
        f"budget < 1e-4 and < 60s")


def test_02_sequence_shape_and_attention_rows():
    pool = ("force", "goods", "night", "harm", "public", "threats", "weapon",
            "entry", "injury", "value", "repeat", "minor")
    vocab = build_vocab([" ".join(pool)], extra_tokens=[str(i) for i in range(1, 61)])
    cfg = ModelConfig(d=16, enc_heads=2, dec_heads=2, layers=1, context=128)
    model = build_model(vocab, ["shape-charge"], cfg, seed=0)
    rng = np.random.default_rng(11)
    fixtures = 0
    worst_row_sum_err = 0.0
    for _ in range(50):
        n_chains = int(rng.integers(1, 5))
        chains = []
        for c in range(n_chains):
            words = rng.choice(pool, size=3, replace=False)
            lo = int(rng.integers(1, 30))
            hi = lo + int(rng.integers(1, 30))
            chains.append(chain_from_text(
                f"{words[0]} {words[1]}", str(words[2]),
                SentencingRange(lo, hi, f"r{c}"), "Provision"))
        cs = ChainSet(charge="shape-charge", chains=chains)
        encoded = encode_chain_set(cs, model.table, model.params, cfg.enc_heads)
        fact = " ".join(rng.choice(pool, size=int(rng.integers(1, 41))))
        x = combine(encoded, fact, model.table)
        assert x.shape == (n_chains + len(tokenize(fact)), cfg.d)
        for chain in chains:
            _, w = encode_chain(chain, model.table, model.params, cfg.enc_heads)
            worst_row_sum_err = max(worst_row_sum_err,
                                    float(np.abs(w.sum(axis=1) - 1.0).max()))
        fixtures += 1
    ok = fixtures == 50 and worst_row_sum_err < 1e-9
    assert _verdict(
        2, "sequence shape law", ok,
        f"{fixtures}/50 fixtures at rows = chains + fact tokens; "
        f"worst attention row-sum error {worst_row_sum_err:.1e} < 1e-9")


def test_03_gating_convexity():
    cfg = ModelConfig(d=16, enc_heads=2, dec_heads=2, layers=1, context=64)
    vocab = build_vocab(["placeholder text"])
    model = build_model(vocab, ["gating-charge"], cfg, seed=3)
    p = model.params
    rng = np.random.default_rng(5)
    g_lo, g_hi = 1.0, 0.0
    strict_interior = True
    draws = 1000
    for _ in range(draws):
        r = Tensor(rng.normal(size=(1, cfg.d)))
        t, g = crime_transform(r, "gating-charge", p)
        hidden = np.maximum(r.data @ p["enc.G1.W"].data + p["enc.G1.b"].data, 0.0)
        u = hidden @ p["enc.G2.W"].data + p["enc.G2.b"].data
        v = u @ p["enc.charge.gating-charge.W"].data + p["enc.charge.gating-charge.b"].data
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        g_lo = min(g_lo, float(g.data.min()))
        g_hi = max(g_hi, float(g.data.max()))
        separated = np.abs(u - v) > 1e-9
        if not (np.all(t.data[separated] > lo[separated])
                and np.all(t.data[separated] < hi[separated])):
            strict_interior = False
    ok = 0.0 < g_lo and g_hi < 1.0 and strict_interior
    assert _verdict(
        3, "gating convexity", ok,
        f"{draws} draws: gate in [{g_lo:.4f}, {g_hi:.4f}] strictly inside (0,1); "
        f"blend strictly between both pathways: {strict_interior}")


def test_04_metric_oracle_equivalence():
    rng = np.random.default_rng(0)
    exact = 0
    pairs = 100
    for _ in range(pairs):
        cand = _random_token_text(rng, 0, 12)
        ref = _random_token_text(rng, 1, 12)
        rouge_ok = all(rouge(cand, ref, v) == _oracle_rouge(cand, ref, v)
                       for v in ("1", "2", "L"))
        result = bleu(cand, ref)
        precisions, bp, scores = _oracle_bleu_scores(cand, ref)
        bleu_ok = (result.precisions == precisions
                   and result.brevity_penalty == bp and result.scores == scores)
        exact += rouge_ok and bleu_ok
    vec_rng = np.random.default_rng(1)
    mae_holds = 0
    vectors = 1000
    for _ in range(vectors):
        size = int(vec_rng.integers(1, 41))
        preds = vec_rng.integers(0, 300, size=size).tolist()
        golds = vec_rng.integers(0, 300, size=size).tolist()
        mae, rmse = mae_rmse(preds, golds)
        mae_holds += mae <= rmse + 1e-12
    ok = exact == pairs and mae_holds == vectors
    assert _verdict(
        4, "metric oracle equivalence", ok,
        f"{exact}/{pairs} pairs exactly equal the brute-force oracle; "
        f"MAE <= RMSE on {mae_holds}/{vectors} random vectors")


def test_05_combined_score_fixtures():
    tight = abs(combined_score(8.45, 42.26, 76.15) - 2.72)
    loose = [
        abs(combined_score(99.50, 65.27, 12.22) - 7.93),
        abs(combined_score(99.08, 56.82, 71.30) - 40.12),
        abs(combined_score(99.41, 63.18, 74.39) - 46.66),
        abs(combined_score(99.41, 67.20, 78.49) - 52.39),
    ]
    ok = tight <= 0.01 and max(loose) <= 0.1
    assert _verdict(
        5, "combined-score fixtures", ok,
        f"(8.45, 42.26, 76.15) off by {tight:.4f} <= 0.01; "
        f"four rounded triples off by at most {max(loose):.4f} <= 0.1")


def test_06_screening_fixture(library):
    robbery = library["robbery"]
    template = (
        "This court finds that the defendant Li Ming used violence against "
        "the victim and seized property of another; no aggravating "
        "circumstance was present. The defendant Li Ming is sentenced to "
        "{months} months of fixed-term imprisonment."
    )
    case = CaseRecord(case_id="fixture-robbery", fact="fixture", charge="robbery",
                      opinion="", sentence_months=48, sentencing_span=None,
                      defendant="Li Ming")
    good = screen_opinion(template.format(months=48), case, robbery)
    matched_range = robbery.chains[good.matched_chain].conclusion
    short = screen_opinion(template.format(months=30), case, robbery)
    wrong = screen_opinion(template.format(months=48).replace("Li Ming", "Zhang Wei"),
                           case, robbery)
    ok = (good.defendant_ok and good.situation_ok and good.sentencing_ok
          and (matched_range.min_months, matched_range.max_months) == (36, 120)
          and short.defendant_ok and short.situation_ok and not short.sentencing_ok
          and not wrong.defendant_ok)
    assert _verdict(
        6, "screening fixture", ok,
        f"48 months -> ({good.defendant_ok}, {good.situation_ok}, "
        f"{good.sentencing_ok}) vs range [{matched_range.min_months}, "
        f"{matched_range.max_months}]; 30 months -> sentencing {short.sentencing_ok}; "
        f"wrong defendant -> defendant {wrong.defendant_ok}")


def test_07_ablation_direction(library):
    start = time.time()
    corpus = synthesize_corpus(seed=0, library=library, cases_per_charge=20)
    base = TrainConfig(lr=3e-3, epochs=30, batch_size=4, seed=0, dropout=0.0,
                       heads=4, dec_heads=4, d=32, layers=2, context=256,
                       max_gen_len=128, eval_every=30)
    report = run_ablation(corpus, library, base, seeds=(0, 1, 2), ratio=0.8)
    elapsed = time.time() - start
    with_chains = report["mean"]["chains"]
    without = report["mean"]["no_chains"]
    ok = (with_chains["mae"] < without["mae"]
          and with_chains["rougeL"] > without["rougeL"]
          and elapsed < 900.0)
    per_seed = "; ".join(
        f"seed {r['seed']}: mae {r['chains']['mae']:.1f} vs {r['no_chains']['mae']:.1f}, "
        f"rougeL {r['chains']['rougeL']:.3f} vs {r['no_chains']['rougeL']:.3f}"
        for r in report["runs"])
    assert _verdict(
        7, "ablation direction", ok,
        f"3-seed means with vs without chains: mae {with_chains['mae']:.2f} < "
        f"{without['mae']:.2f}, rougeL {with_chains['rougeL']:.4f} > "
        f"{without['rougeL']:.4f} in {elapsed:.0f}s < 900s [{per_seed}]")


def test_08_memorization(library):
    small = {"dangerous_driving": library["dangerous_driving"]}
    corpus = synthesize_corpus(seed=0, library=small, cases_per_charge=4)
    case = min(corpus, key=lambda rec: len(tokenize(rec.opinion)))
    parts = CorpusSplit(train=[case], test=[], seed=0)
    cfg = TrainConfig(lr=1e-2, epochs=150, batch_size=1, seed=0, dropout=0.0,
                      heads=2, dec_heads=2, d=16, layers=1, context=224,
                      max_gen_len=120)
    result = train(parts, library, cfg)
    first_below = next((row["epoch"] for row in result.log_rows
                        if row["loss_total"] < 0.05), None)
    decoded = decode_case(result.model, case, library["dangerous_driving"], max_len=120)
    verbatim = decoded.text == case.opinion
    ok = first_below is not None and first_below <= 500 and verbatim
    assert _verdict(
        8, "memorization", ok,
        f"loss < 0.05 first reached at step {first_below} (budget 500, one case "
        f"per step); greedy decode verbatim: {verbatim}")


def _all_condition_trees(operators: int, labels):
    """Every binary AND/OR tree with exactly ``operators`` internal nodes."""
    def build(lo, hi):
        if lo == hi:
            return [Predicate(labels[lo])]
        trees = []
        for mid in range(lo, hi):
            for left in build(lo, mid):
                for right in build(mid + 1, hi):
                    for op in ("and", "or"):
                        trees.append(Node(op, (left, right)))
        return trees

    return build(0, operators)


def _truth(expr, assignment):
    if isinstance(expr, Predicate):
        return assignment[expr.label]
    values = [_truth(child, assignment) for child in expr.children]
    return all(values) if expr.op == "and" else any(values)


def test_09_round_trips(library, tmp_path):
    # chain files survive parse -> serialize byte-identically
    chain_files = sorted(default_chains_dir().glob("*.json"))
    files_ok = all(
        serialize_chain_set(parse_chain_file(path.read_text(encoding="utf-8")))
        == path.read_text(encoding="utf-8")
        for path in chain_files)

    # a reloaded checkpoint reproduces held-out metrics bitwise
    small = {"theft": library["theft"]}
    corpus = synthesize_corpus(seed=2, library=small, cases_per_charge=5)
    parts = split(corpus, 0.8, seed=0)
    cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=2, seed=0, dropout=0.0,
                      heads=2, dec_heads=2, d=16, layers=1, context=224,
                      max_gen_len=60)
    ckpt = tmp_path / "round.ckpt"
    result = train(parts, library, cfg, checkpoint_path=ckpt)
    before = evaluate_heldout(result, parts, library)
    loaded, _ = load_checkpoint(ckpt)
    after = evaluate_heldout(TrainResult(model=loaded, log_rows=[], config=cfg), parts, library)
    checkpoint_ok = before == after

    # condition evaluation equals exhaustive truth tables, <= 4 operators
    labels = ["p0", "p1", "p2", "p3", "p4"]
    trees = 0
    evaluations = 0
    conditions_ok = True
    for k in range(0, 5):
        for expr in _all_condition_trees(k, labels):
            trees += 1
            used = labels[:k + 1]
            for bits in itertools.product((False, True), repeat=len(used)):
                assignment = dict(zip(used, bits))
                facts = {lab for lab, value in assignment.items() if value}
                evaluations += 1
                if eval_condition(expr, facts) != _truth(expr, assignment):
                    conditions_ok = False
    ok = files_ok and checkpoint_ok and conditions_ok
    assert _verdict(
        9, "round trips", ok,
        f"{len(chain_files)} chain files byte-identical: {files_ok}; "
        f"checkpoint metrics bitwise equal: {checkpoint_ok}; condition evaluator "
        f"exact on {trees} trees / {evaluations} rows: {conditions_ok}")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def test_10_cli_determinism(tmp_path):
    chains_dir = tmp_path / "chains"
    chains_dir.mkdir()
    shutil.copy(default_chains_dir() / "dangerous_driving.json",
                chains_dir / "dangerous_driving.json")
    provision = tmp_path / "provision.txt"
    provision.write_text("Whoever drives dangerously ...", encoding="utf-8")
    response = tmp_path / "response.txt"
    response.write_text(
        "===CHAIN===\n"
        "PREMISE: drove a motor vehicle AND was intoxicated\n"
        "SITUATION: no harm resulted\n"
        "CONCLUSION: range: 1-6 months; label: base\n"
        "SOURCE: Provision 133\n", encoding="utf-8")

    # each invocation pair writes into its own directory so stdout path
    # mentions can be masked symmetrically before comparison
    run_dir = {}
    for tag in ("first", "second"):
        run_dir[tag] = tmp_path / f"run-{tag}"
        run_dir[tag].mkdir()

    def mask(text):
        return (text.replace(str(run_dir["first"]), "DIR")
                    .replace(str(run_dir["second"]), "DIR"))

    outcomes = {}

    def run_twice(name, argv_for, file_names=()):
        results = []
        for tag in ("first", "second"):
            code, stdout = _run_cli(argv_for(run_dir[tag]))
            blobs = tuple((run_dir[tag] / f).read_bytes() for f in file_names)
            results.append((code, mask(stdout), blobs))
        outcomes[name] = (results[0][0] == 0 and results[0] == results[1])

    run_twice("extract-prompt", lambda d: [
        "extract-prompt", "--charge", "dangerous_driving",
        "--provision-file", str(provision)])
    run_twice("parse-chains", lambda d: [
        "parse-chains", "--charge", "dangerous_driving",
        "--response-file", str(response)])
    run_twice("validate-chains", lambda d: [
        "validate-chains", "--chains", str(chains_dir)])

    run_twice("synth-corpus",
              lambda d: ["synth-corpus", "--chains", str(chains_dir), "--seed", "4",
                         "--cases-per-charge", "4", "--out", str(d / "corpus.jsonl")],
              ("corpus.jsonl",))
    corpus = run_dir["first"] / "corpus.jsonl"

    run_twice("train",
              lambda d: ["train", "--corpus", str(corpus),
                         "--chains", str(chains_dir),
                         "--checkpoint", str(d / "model.ckpt"),
                         "--log", str(d / "log.csv"), "--epochs", "1",
                         "--batch-size", "2", "--d", "16", "--heads", "2",
                         "--dec-heads", "2", "--layers", "1", "--context", "224",
                         "--dropout", "0.0", "--max-len", "30"],
              ("model.ckpt", "log.csv"))
    checkpoint = run_dir["first"] / "model.ckpt"

    run_twice("generate",
              lambda d: ["generate", "--checkpoint", str(checkpoint),
                         "--corpus", str(corpus), "--chains", str(chains_dir),
                         "--mode", "top-k", "--seed", "2", "--max-len", "30",
                         "--out", str(d / "opinions.jsonl")],
              ("opinions.jsonl",))
    opinions = run_dir["first"] / "opinions.jsonl"

    run_twice("evaluate", lambda d: [
        "evaluate", "--corpus", str(corpus), "--opinions", str(opinions)])
    run_twice("screen", lambda d: [
        "screen", "--corpus", str(corpus), "--chains", str(chains_dir)])
    run_twice("gradcheck", lambda d: [
        "gradcheck", "--d", "8", "--heads", "2", "--layers", "1"])

    failed = sorted(name for name, same in outcomes.items() if not same)
    ok = not failed
    assert _verdict(
        10, "CLI determinism", ok,
        f"{len(outcomes)} subcommands run twice with identical bytes"
        + (f"; differing: {failed}" if failed else ""))
