"""Correctness checks on the workloads' outputs.

Each check returns a list of problems, empty when the output is right.  The
checks compare against computations made apart from the code path under
test, or against properties the method must have; none compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from lexchain import model, tensor as T

GRAD_TOL = 1e-4     # relative, finite differences against the tape
ARGMAX_TOL = 1e-9   # logit gap allowed between an emitted token and the row max
CLAUSE = "months of fixed-term imprisonment"


def loss_problems(log_rows: list[dict]) -> list[str]:
    """Every step's loss is finite and training lowered the loss.

    A per-epoch mean is finite exactly when every step loss in it is, so the
    log rows are enough to check every step.
    """
    problems = []
    for row in log_rows:
        for key in ("loss_total", "loss_reasoning", "loss_sentencing"):
            if not math.isfinite(row[key]):
                problems.append(f"epoch {row['epoch']}: {key} is {row[key]}")
    first, last = log_rows[0]["loss_total"], log_rows[-1]["loss_total"]
    if not last < first:
        problems.append(f"last epoch loss {last} is not below the first's {first}")
    return problems


def directional_derivative(mdl, batch, seed: int, eps: float = 1e-5) -> tuple[float, float]:
    """Central finite difference of the joint loss along one seeded random
    unit direction, and the tape gradient's dot product with it."""
    names = sorted(mdl.params)
    rng = np.random.default_rng([seed, 17])
    direction = {n: rng.standard_normal(mdl.params[n].shape) for n in names}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    with T.Tape() as tape:
        tape.watch(*mdl.params.values())
        T.backward(tape, model.joint_loss(batch, mdl).total)
    analytic = sum(float(np.sum(mdl.params[n].grad * direction[n])) for n in names) / norm
    originals = {n: mdl.params[n].data for n in names}

    def loss_at(step: float) -> float:
        for n in names:
            mdl.params[n].data = originals[n] + (step / norm) * direction[n]
        return model.joint_loss(batch, mdl).total.item()

    try:
        fd = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    finally:
        for n in names:
            mdl.params[n].data = originals[n]
    return fd, analytic


def directional_problems(fd: float, analytic: float) -> list[str]:
    if abs(fd - analytic) <= GRAD_TOL * abs(analytic):
        return []
    return [f"finite difference {fd!r} disagrees with the tape's {analytic!r}"]


def same_bytes_problems(first: bytes, other: bytes, what: str) -> list[str]:
    return [] if first == other else [f"{what} differs from the first same-seed checkpoint"]


def full_sequence_logits(mdl, case, chain_set, token_ids: list[int]) -> tuple[np.ndarray, int]:
    """Logits of the tape-free full-sequence decoder over prefix + emitted
    tokens; row ``j`` of the result predicts emitted token ``j``."""
    encoded = model.encode_chain_set(chain_set, mdl.table, mdl.params, mdl.cfg.enc_heads,
                                     auto_register=False)
    combined = model.combine(encoded, case.fact, mdl.table)
    prefix_len = combined.shape[0]
    x = combined
    if token_ids:
        x = T.concat([combined, T.gather_rows(mdl.table.matrix, token_ids)], axis=0)
    x = model.add_positions(x, encoded.n, mdl.params, mdl.cfg)
    logits = model.decoder_forward(x, mdl.params, mdl.cfg).data
    return logits[prefix_len - 1:], prefix_len


def greedy_problems(case_id: str, rows: np.ndarray, token_ids: list[int], eos: int,
                    stopped_early: bool) -> list[str]:
    """Each emitted token is a row argmax; an early stop is an argmax ``<eos>``."""
    problems = []
    for j, tok in enumerate(token_ids):
        gap = rows[j].max() - rows[j, tok]
        if gap > ARGMAX_TOL:
            problems.append(f"{case_id}: token {j} is {gap:.3g} below the argmax")
    if stopped_early and rows[len(token_ids)].max() - rows[len(token_ids), eos] > ARGMAX_TOL:
        problems.append(f"{case_id}: stopped after {len(token_ids)} tokens without <eos>")
    return problems


def months_figure(text: str) -> int | None:
    """Months figure of the last "<digits> months of fixed-term imprisonment"
    clause, read by scanning back from each clause over spaces and digits."""
    found = None
    at = text.find(CLAUSE)
    while at >= 0:
        end = at
        while end > 0 and text[end - 1].isspace():
            end -= 1
        start = end
        while start > 0 and text[start - 1] in "0123456789":
            start -= 1
        if start < end:
            found = int(text[start:end])
        at = text.find(CLAUSE, at + 1)
    return found


def months_problems(cases, texts: dict[str, str], report: dict) -> list[str]:
    """MAE and RMSE from this module's own parse equal ``evaluate_outputs``'.
    An opinion with no clause counts as 0 months, as the metric documents."""
    errors = [(months_figure(texts[c.case_id]) or 0) - c.sentence_months for c in cases]
    mae = sum(abs(e) for e in errors) / len(errors)
    rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
    problems = []
    for name, mine in (("mae", mae), ("rmse", rmse)):
        if not math.isclose(mine, report[name], rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name} {report[name]!r} != {mine!r} from the benchmark's parse")
    return problems


def gold_problems(report: dict, screening: dict) -> list[str]:
    """Gold opinions pass all three screens and carry the gold months."""
    problems = [f"gold {key} is {screening[key]}"
                for key in ("defendant_accuracy", "situation_accuracy", "sentencing_accuracy")
                if screening[key] != 100.0]
    if report["mae"] != 0.0:
        problems.append(f"gold mae is {report['mae']}")
    return problems


def gradcheck_problems(err: float, scalars: int, evals: int, param_count: int) -> list[str]:
    """The sweep agreed with finite differences and perturbed every scalar
    twice (plus the one taped evaluation)."""
    problems = []
    if not err < GRAD_TOL:
        problems.append(f"max relative gradient error {err!r} is not below {GRAD_TOL}")
    if scalars != param_count:
        problems.append(f"{scalars} scalars checked, the model has {param_count}")
    if evals != 1 + 2 * param_count:
        problems.append(f"{evals} objective evaluations, expected {1 + 2 * param_count}")
    return problems
