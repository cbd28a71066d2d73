"""Training loop: Adam over the joint objective, per-epoch held-out decoding,
CSV logging, checkpointing, and the with/without-chains ablation harness.
"""

from __future__ import annotations

import csv
import ctypes
import math
import mmap
import multiprocessing
import signal
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Mapping

import numpy as np

from .chains import ChainSet, SentencingRange, chain_from_text
from .checkpoint import save_checkpoint
from .corpus import CaseRecord, CorpusSplit, NAME_POOL, generator_surface_texts
from .encoder import build_vocab
from .errors import ConfigurationError, ContractError, EvaluationError
from .metrics import evaluate_outputs, extract_sentence_months, mae_rmse
from .model import Model, ModelConfig, build_model, decode_cases, joint_loss
from .tensor import Tape, Tensor, backward, grad_check

LOG_HEADER = ["epoch", "loss_total", "loss_reasoning", "loss_sentencing",
              "heldout_mae", "heldout_rmse"]


@dataclass
class TrainConfig:
    lr: float = 1e-3
    alpha: float = 1.0
    beta: float = 1.0
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    dropout: float = 0.1
    use_chains: bool = True
    heads: int = 8
    dec_heads: int = 4
    d: int = 64
    layers: int = 2
    context: int = 256
    grad_clip: float = 1.0
    max_gen_len: int = 96
    eval_every: int = 1

    def __post_init__(self):
        if self.lr <= 0:
            raise ContractError(f"learning rate must be positive, got {self.lr}")
        if self.alpha < 0 or self.beta < 0 or (self.alpha == 0 and self.beta == 0):
            raise ContractError("alpha and beta must be >= 0 and not both zero")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ContractError("epochs and batch_size must be positive")
        if self.eval_every <= 0:
            raise ContractError(f"eval_every must be positive, got {self.eval_every}")
        if self.max_gen_len < 1:
            raise ContractError(f"max_gen_len must be at least 1, got {self.max_gen_len}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(d=self.d, enc_heads=self.heads, dec_heads=self.dec_heads,
                           layers=self.layers, context=self.context)

    def to_dict(self) -> dict:
        return asdict(self)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update, applied in place."""
    if set(grads) != set(params):
        missing = sorted(set(params) - set(grads))
        extra = sorted(set(grads) - set(params))
        raise ContractError(f"gradient keys mismatch params: missing={missing}, extra={extra}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name in sorted(params):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name].data)
            state.v[name] = np.zeros_like(params[name].data)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        params[name].data = params[name].data - update


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``.

    The squares are summed in name order, as :func:`adam_step` iterates, so
    the norm does not depend on the order of ``grads``.
    """
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] * grads[name]))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


def training_vocab(train_records: list[CaseRecord], library: Mapping[str, ChainSet]) -> dict[str, int]:
    """Vocabulary over training text, chain surface texts, generator surface
    strings, and every months numeral any chain range can produce (so held-out
    gold sentences stay expressible)."""
    texts = []
    for rec in train_records:
        texts.append(rec.fact)
        texts.append(rec.opinion)
    texts.extend(generator_surface_texts())
    extra: set[str] = set()
    for cs in library.values():
        for chain in cs.chains:
            texts.append(chain.premise_text)
            texts.append(chain.situation_text)
            texts.append(chain.conclusion_text())
            extra.update(str(m) for m in range(chain.conclusion.min_months,
                                               chain.conclusion.max_months + 1))
    extra.update(str(d) for d in range(1, 29))
    for name in NAME_POOL:
        extra.update(name.split())
    return build_vocab(texts, extra)


def charge_chains(library: Mapping[str, ChainSet], charges: list[str],
                  use_chains: bool) -> dict[str, ChainSet | None]:
    """Each charge's chain set from ``library``, or None for every charge when
    ``use_chains`` is off (the library is then not read)."""
    if not use_chains:
        return dict.fromkeys(charges)
    missing = [c for c in charges if c not in library]
    if missing:
        raise ConfigurationError(f"no chain sets for charges: {missing}")
    return {c: library[c] for c in charges}


@dataclass
class TrainResult:
    model: Model
    log_rows: list[dict]
    config: TrainConfig


def _share(batch, scored: slice, model: Model, cfg: TrainConfig,
           rng: np.random.Generator) -> tuple[dict[str, np.ndarray], tuple[float, ...]]:
    """The parameter gradients and (total, reasoning, sentencing) loss values
    of :func:`joint_loss` over ``batch[scored]``: one tape, one sweep."""
    with Tape() as tape:
        tape.watch(*model.params.values())
        losses = joint_loss(batch, model, cfg.alpha, cfg.beta, dropout_rate=cfg.dropout, rng=rng,
                            scored=scored)
        backward(tape, losses.total)
    grads = {name: t.grad for name, t in model.params.items()}
    return grads, (losses.total.item(), losses.reasoning.item(), losses.sentencing.item())


def _step(chunk, pairs: list[tuple], model: Model, cfg: TrainConfig, rng: np.random.Generator,
          worker: _Worker | None) -> tuple[dict[str, np.ndarray], tuple[float, ...]]:
    """One batch's parameter gradients and loss values: the cases ``chunk``
    of ``pairs``.  With a worker, a batch of k >= 2 cases is split: the
    worker scores the last ``k - ceil(k/2)`` from a copy of ``rng`` taken
    before this process scores the rest, so both encode every chain set
    with the same dropout draws.  The gradients add up in one order: this
    process's share, then the worker's.  Otherwise this process scores the
    whole batch."""
    batch = [pairs[i] for i in chunk]
    keep = len(batch) if worker is None or len(batch) == 1 else (len(batch) + 1) // 2
    if keep < len(batch):
        worker.send((chunk, keep, rng))
    grads, terms = _share(batch, slice(keep), model, cfg, rng)
    if keep < len(batch):
        theirs = worker.reply()
        for name, g in worker.grad_views.items():
            grads[name] = grads[name] + g
        terms = tuple(a + b for a, b in zip(terms, theirs))
    return grads, terms


def _shared_views(buffer: mmap.mmap, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """One array per parameter, in ``params`` order, laid end to end over ``buffer``."""
    flat = np.frombuffer(buffer, dtype=np.float64)
    views = {}
    offset = 0
    for name, t in params.items():
        views[name] = flat[offset:offset + t.size].reshape(t.shape)
        offset += t.size
    return views


def _openblas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS this process
    has loaded, or None under another BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)  # the library already loaded, not a second copy
        for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"), ("openblas", "64_")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


class _Worker:
    """A forked process that scores the trailing share of each split step.

    It holds its own copy of the training split's (record, chain set)
    pairs, so a job is only ``(chunk, keep, rng)``: the batch's case
    indices, the number of leading cases the main process keeps, and a copy
    of the dropout generator.  Parameters reach it through one shared
    buffer, refreshed before every job, and its parameter gradients come
    back through another; its loss terms come back over the pipe.

    While the worker lives, OpenBLAS runs on one thread in both processes.
    Its idle threads spin between calls, so with a pool in each process on a
    two-core machine a training ran three times slower than in one process.
    """

    def __init__(self, model: Model, pairs: list[tuple], cfg: TrainConfig):
        nbytes = 8 * sum(t.size for t in model.params.values())
        param_buffer, grad_buffer = mmap.mmap(-1, nbytes), mmap.mmap(-1, nbytes)
        self.params = model.params
        self.param_views = _shared_views(param_buffer, model.params)
        self.grad_views = _shared_views(grad_buffer, model.params)
        context = multiprocessing.get_context("fork")
        self.conn, worker_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(worker_end, self.conn, model, pairs, cfg,
                                 param_buffer, grad_buffer), daemon=True)
        self.process.start()
        worker_end.close()
        self.blas = _openblas_threads()
        if self.blas is not None:
            self.blas_threads = self.blas[0]()
            self.blas[1](1)

    def send(self, job: tuple) -> None:
        """Copy the current parameters to the worker and hand it ``job``."""
        for name, view in self.param_views.items():
            view[...] = self.params[name].data
        self.conn.send(job)

    def reply(self) -> tuple[float, ...]:
        """The worker's loss terms for the job sent last; its gradients are
        then in ``grad_views``."""
        try:
            reply = self.conn.recv()
        except EOFError:
            raise ChildProcessError("the training worker exited during a step") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        """Stop the worker: it exits when its pipe closes."""
        self.conn.close()
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        if self.blas is not None:
            self.blas[1](self.blas_threads)


def _serve(conn, main_end, model: Model, pairs: list[tuple], cfg: TrainConfig,
           param_buffer: mmap.mmap, grad_buffer: mmap.mmap) -> None:
    """The worker's loop: one reply per job until the pipe closes.  An error
    from the share (a too-long case, say) goes back as the reply."""
    main_end.close()  # so that the main process's exit closes the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process decides when to stop
    blas = _openblas_threads()
    if blas is not None:
        blas[1](1)
    for name, view in _shared_views(param_buffer, model.params).items():
        model.params[name].data = view
    grads = _shared_views(grad_buffer, model.params)
    while True:
        try:
            chunk, keep, rng = conn.recv()
        except EOFError:
            return
        try:
            theirs, reply = _share([pairs[i] for i in chunk], slice(keep, None), model, cfg, rng)
            for name, g in theirs.items():
                grads[name][...] = g
        except Exception as exc:
            reply = exc
        try:
            conn.send(reply)
        except OSError:
            return


def _write_log(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_HEADER)
        for row in rows:
            writer.writerow([
                row["epoch"],
                f"{row['loss_total']:.6f}",
                f"{row['loss_reasoning']:.6f}",
                f"{row['loss_sentencing']:.6f}",
                f"{row['heldout_mae']:.6f}" if row["heldout_mae"] is not None else "",
                f"{row['heldout_rmse']:.6f}" if row["heldout_rmse"] is not None else "",
            ])


def heldout_predictions(model: Model, records: list[CaseRecord],
                        chain_map: Mapping[str, ChainSet | None], max_len: int) -> dict[str, str]:
    """Greedy-decode every record, encoding each charge's chain set once;
    returns case_id -> opinion text."""
    outputs = decode_cases(model, records, chain_map, max_len=max_len)
    return {rec.case_id: out.text for rec, out in zip(records, outputs)}


def train(split: CorpusSplit, library: Mapping[str, ChainSet], cfg: TrainConfig,
          checkpoint_path: str | Path | None = None,
          log_path: str | Path | None = None) -> TrainResult:
    """Optimize the joint objective over the training split.

    With ``use_chains`` off the model is built identically (same parameters,
    same data order) but every case decodes from a chain-free prefix.  A
    non-finite loss or pre-clip gradient norm raises EvaluationError before
    the optimizer step.

    Each step of two or more cases is split with one forked worker process
    (see :class:`_Worker`), which lives as long as this call.  The split and
    the order in which the shares' gradients add up are fixed, so a run's
    results do not depend on timing or on the number of cores.
    """
    if not split.train:
        raise ContractError("training split is empty")
    charges = sorted({rec.charge for rec in split.train + split.test})
    chain_map = charge_chains(library, charges, cfg.use_chains)
    vocab = training_vocab(split.train, library)
    model = build_model(vocab, charges, cfg.model_config(), cfg.seed)
    pairs = [(rec, chain_map[rec.charge]) for rec in split.train]
    worker = None
    if min(cfg.batch_size, len(split.train)) > 1:
        worker = _Worker(model, pairs, cfg)
    try:
        return _train_epochs(split, pairs, chain_map, model, cfg, worker, checkpoint_path,
                             log_path)
    finally:
        if worker is not None:
            worker.close()


def _train_epochs(split: CorpusSplit, pairs: list[tuple],
                  chain_map: Mapping[str, ChainSet | None], model: Model, cfg: TrainConfig,
                  worker: _Worker | None, checkpoint_path: str | Path | None,
                  log_path: str | Path | None) -> TrainResult:
    adam = AdamState()
    dropout_rng = np.random.default_rng([cfg.seed, 101])
    golds = [rec.sentence_months for rec in split.test]
    log_rows: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        order_rng = np.random.default_rng([cfg.seed, 202, epoch])
        order = order_rng.permutation(len(split.train))
        sums = {"loss_total": 0.0, "loss_reasoning": 0.0, "loss_sentencing": 0.0}
        weight = 0
        for step, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            chunk = order[start:start + cfg.batch_size]
            grads, terms = _step(chunk, pairs, model, cfg, dropout_rng, worker)
            norm = clip_gradients(grads, cfg.grad_clip)
            loss_value = terms[0]
            if not (math.isfinite(loss_value) and math.isfinite(norm)):
                raise EvaluationError(f"epoch {epoch}, step {step}: loss {loss_value} or "
                                      f"gradient norm {norm} is not finite")
            adam_step(model.params, grads, adam, cfg.lr)
            for key, value in zip(sums, terms):
                sums[key] += value * len(chunk)
            weight += len(chunk)
        row = {
            "epoch": epoch,
            "loss_total": sums["loss_total"] / weight,
            "loss_reasoning": sums["loss_reasoning"] / weight,
            "loss_sentencing": sums["loss_sentencing"] / weight,
            "heldout_mae": None,
            "heldout_rmse": None,
        }
        if split.test and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            opinions = heldout_predictions(model, split.test, chain_map, cfg.max_gen_len)
            preds = [extract_sentence_months(opinions[rec.case_id]) for rec in split.test]
            mae, rmse = mae_rmse(preds, golds)
            row["heldout_mae"] = mae
            row["heldout_rmse"] = rmse
        log_rows.append(row)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model,
                            extra={"train_config": cfg.to_dict(), "epoch": epoch})
        if log_path is not None:
            _write_log(log_path, log_rows)
    return TrainResult(model=model, log_rows=log_rows, config=cfg)


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------


def evaluate_heldout(result: TrainResult, split: CorpusSplit,
                     library: Mapping[str, ChainSet]) -> dict:
    """Decode the held-out split and score it (months errors + text overlap)."""
    cfg = result.config
    chain_map = charge_chains(library, sorted({rec.charge for rec in split.test}),
                              cfg.use_chains)
    opinions = heldout_predictions(result.model, split.test, chain_map, cfg.max_gen_len)
    return evaluate_outputs(split.test, opinions)


def run_ablation(corpus: list[CaseRecord], library: Mapping[str, ChainSet],
                 base_cfg: TrainConfig, seeds: tuple[int, ...] = (0, 1, 2),
                 ratio: float = 0.8) -> dict:
    """Train chain/no-chain twins per seed and average held-out MAE and ROUGE-L."""
    from .corpus import split as split_corpus

    runs = []
    for seed in seeds:
        parts = split_corpus(corpus, ratio, seed)
        arms = {}
        for use_chains in (True, False):
            cfg_dict = base_cfg.to_dict()
            cfg_dict.update(seed=seed, use_chains=use_chains)
            cfg = TrainConfig(**cfg_dict)
            result = train(parts, library, cfg)
            report = evaluate_heldout(result, parts, library)
            arms["chains" if use_chains else "no_chains"] = {
                "mae": report["mae"], "rmse": report["rmse"], "rougeL": report["rougeL"],
            }
        runs.append({"seed": seed, **arms})
    summary = {}
    for arm in ("chains", "no_chains"):
        summary[arm] = {
            key: sum(r[arm][key] for r in runs) / len(runs)
            for key in ("mae", "rmse", "rougeL")
        }
    return {"runs": runs, "mean": summary}


# ---------------------------------------------------------------------------
# Full-pipeline gradient check
# ---------------------------------------------------------------------------


def _gradcheck_fixture(d: int, heads: int, layers: int, seed: int):
    """A deliberately tiny two-case, two-chain setup for finite differences."""
    chains = ChainSet(
        charge="toyoffense",
        chains=[
            chain_from_text("takes goods AND uses force", "harm done OR night time",
                            SentencingRange(6, 24, "toy-base"), "Provision 1"),
            chain_from_text("takes goods AND uses force", "minor case only",
                            SentencingRange(1, 6, "toy-light"), "Provision 1"),
        ],
    )
    cases = [
        CaseRecord(case_id="toy-0", fact="the man took goods by force at night",
                   charge="toyoffense",
                   opinion="the court orders 7 months of fixed-term imprisonment.",
                   sentence_months=7, sentencing_span=None, defendant="the man"),
        CaseRecord(case_id="toy-1", fact="goods were taken without harm",
                   charge="toyoffense",
                   opinion="the court orders 3 months of fixed-term imprisonment.",
                   sentence_months=3, sentencing_span=None, defendant="the man"),
    ]
    texts = [cases[0].fact, cases[0].opinion, cases[1].fact, cases[1].opinion]
    for chain in chains.chains:
        texts += [chain.premise_text, chain.situation_text, chain.conclusion_text()]
    vocab = build_vocab(texts)
    cfg = ModelConfig(d=d, enc_heads=heads, dec_heads=heads, layers=layers, context=48)
    model = build_model(vocab, ["toyoffense"], cfg, seed)
    return model, [(case, chains) for case in cases]


def gradcheck_full_pipeline(seed: int = 0, d: int = 16, heads: int = 2,
                            layers: int = 2, eps: float = 1e-5) -> tuple[float, int]:
    """Finite-difference check of the whole encoder+decoder objective.

    Returns the max relative error over every scalar parameter and the number
    of scalars checked.  Dropout stays at rate 0, as the objective must be
    deterministic.
    """
    model, batch = _gradcheck_fixture(d, heads, layers, seed)

    def objective(params):
        return joint_loss(batch, model, alpha=1.0, beta=1.0).total

    err = grad_check(model.params, objective, eps=eps)
    scalars = sum(t.size for t in model.params.values())
    return err, scalars
