"""Training loop: Adam over the joint objective, per-epoch held-out decoding,
CSV logging, checkpointing, and the with/without-chains ablation harness.
"""

from __future__ import annotations

import csv
import ctypes
import math
import mmap
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping

import numpy as np

from .chains import ChainSet, SentencingRange, chain_from_text, charge_chains
from .checkpoint import save_checkpoint
from .corpus import CaseRecord, CorpusSplit, NAME_POOL, generator_surface_texts
from .encoder import build_vocab
from .errors import ContractError, EvaluationError
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
    """Adam's moments over a flat parameter array, and two scratch rows."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0


def _adam(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float, part: slice):
    """Adam on ``params[part]`` in place, each element through the textbook's ops in order."""
    p, g, m, v = params[part], grads[part], state.m[part], state.v[part]
    a, b = state.scratch[:, part]
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=a), g, out=a)
    np.multiply(lr, np.divide(m, 1.0 - ADAM_BETA1 ** state.step, out=a), out=a)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** state.step, out=b), out=b)
    b += ADAM_EPS
    p -= np.divide(a, b, out=a)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float,
              worker: _Worker | None = None) -> None:
    """Bias-corrected Adam on the flat ``params``, in place.  A ``worker``
    updates the arena's second half meanwhile; this returns once it has."""
    if not params.shape == grads.shape == state.m.shape == state.v.shape:
        raise ContractError(f"{grads.size} gradients and {state.m.size}, {state.v.size} moments "
                            f"for {params.size} parameters")
    state.step += 1
    if worker is None:
        _adam(params, grads, state, lr, slice(None))
        return
    worker.conn.send(state.step)
    _adam(params, grads, state, lr, slice(worker.arena.half))
    worker.reply()


def clip_gradients(grads: np.ndarray, squares: list[float], max_norm: float) -> float:
    """Scale the flat ``grads`` in place to a norm of at most ``max_norm``; return the norm
    before.  ``squares`` (per tensor, name order) add one by one (``sum`` compensates on 3.12)."""
    total = 0.0
    for square in squares:
        total += square
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        grads *= max_norm / norm
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
            texts.extend(chain.texts)
            extra.update(str(m) for m in range(chain.conclusion.min_months,
                                               chain.conclusion.max_months + 1))
    extra.update(str(d) for d in range(1, 29))
    for name in NAME_POOL:
        extra.update(name.split())
    return build_vocab(texts, extra)


@dataclass
class TrainResult:
    model: Model
    log_rows: list[dict]
    config: TrainConfig


def _share(batch, scored: slice, model: Model, cfg: TrainConfig, rng: np.random.Generator,
           grads: np.ndarray) -> tuple[float, ...]:
    """The (total, reasoning, sentencing) loss of :func:`joint_loss` over
    ``batch[scored]``, one tape and sweep; gradients go into the flat ``grads``
    and leave no ``.grad`` behind, so that the arena holds the only copy."""
    with Tape() as tape:
        tape.watch(*model.params.values())
        losses = joint_loss(batch, model, cfg.alpha, cfg.beta, dropout_rate=cfg.dropout, rng=rng,
                            scored=scored)
        backward(tape, losses.total)
    leaves = [model.params[name] for name in sorted(model.params)]
    np.concatenate([leaf.grad.ravel() for leaf in leaves], out=grads)
    for leaf in leaves:
        leaf.grad = None
    return losses.total.item(), losses.reasoning.item(), losses.sentencing.item()


def _step(chunk, pairs: list[tuple], model: Model, cfg: TrainConfig, rng: np.random.Generator,
          arena: _Arena, worker: _Worker | None) -> tuple[list[float], tuple[float, ...]]:
    """Each tensor's sum of squared gradients and the loss values of ``chunk``'s cases; the
    gradients go to ``arena.grads``.  A worker scores the last ``k - ceil(k/2)`` cases from
    ``rng``'s state, then each process adds ``mine + theirs`` over its half."""
    batch = [pairs[i] for i in chunk]
    if worker is None:
        terms = _share(batch, slice(None), model, cfg, rng, arena.grads)
        return arena.squares(), terms
    keep = (len(batch) + 1) // 2
    worker.conn.send((chunk.tolist(), keep, rng.bit_generator.state))
    terms = _share(batch, slice(keep), model, cfg, rng, arena.grads)
    worker.conn.send(None)  # this process's gradients are in place
    theirs = worker.reply()
    squares = arena.add_half(0)  # while the worker adds the other half
    return squares + worker.reply(), tuple(a + b for a, b in zip(terms, theirs))


class _Arena:
    """Shared memory, mapped before the fork, for the parameters (which stay
    views of it), each process's gradients and Adam's state, in name order.
    Split at the tensor boundary nearest the middle, into halves that the
    main process and the worker each reduce and update."""

    def __init__(self, params: Mapping[str, Tensor]):
        names = sorted(params)
        ends = np.cumsum([params[name].size for name in names])
        # Two maps: the parameters outlive training, the working rows do not.
        self.params = np.frombuffer(mmap.mmap(-1, 8 * int(ends[-1])))
        work = np.frombuffer(mmap.mmap(-1, 40 * int(ends[-1]))).reshape(5, -1)
        # Once added, the worker's gradients are scratch for squares and Adam.
        self.grads, self.theirs, _, m, v = work
        self.adam = AdamState(m, v, work[1:3])
        cut = int(np.argmin(np.abs(ends - ends[-1] / 2))) + 1
        self.half = int(ends[cut - 1])
        self.halves = ((slice(self.half), slice(cut)), (slice(self.half, None), slice(cut, None)))
        np.concatenate([params[name].data.ravel() for name in names], out=self.params)
        for name, view in zip(names, np.split(self.params, ends[:-1])):
            params[name].data = view.reshape(params[name].shape)
        self.spent = np.split(self.theirs, ends[:-1])  # one view per tensor

    def squares(self, scalars: slice = slice(None), tensors: slice = slice(None)) -> list[float]:
        """The sums of squared gradients of ``tensors``, which span ``scalars``."""
        np.multiply(self.grads[scalars], self.grads[scalars], out=self.theirs[scalars])
        return [float(np.sum(square)) for square in self.spent[tensors]]

    def add_half(self, half: int) -> list[float]:
        """Add the worker's gradients over ``half`` (0 or 1); its :meth:`squares`."""
        scalars, tensors = self.halves[half]
        self.grads[scalars] += self.theirs[scalars]
        return self.squares(scalars, tensors)


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


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS (if loaded) to one thread in the block and in processes
    forked in it, then restore the caller's count.  Its idle threads spin: a
    pool in each of two processes on two cores made training 3x slower."""
    get, put = _openblas_threads() or (lambda: None, lambda threads: None)
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


class _Worker:
    """A forked process that scores the trailing share of each split step
    and updates the arena's second half.  Messages: the job, main's
    gradients are in place, the worker's loss terms, its sums of squares,
    the Adam step (once the step is finite), and the worker's update done."""

    def __init__(self, arena: _Arena, model: Model, pairs: list[tuple], cfg: TrainConfig):
        import multiprocessing  # here, so that importing the package loads none of it
        self.arena = arena
        context = multiprocessing.get_context("fork")
        self.conn, worker_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(worker_end, self.conn, arena, model, pairs, cfg), daemon=True)
        self.process.start()
        worker_end.close()

    def reply(self):
        """The worker's answer to the message sent last."""
        reply = self.conn.recv()
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


def _serve(conn, main_end, arena: _Arena, model: Model, pairs: list[tuple],
           cfg: TrainConfig) -> None:
    """The worker's loop until the pipe closes; a share's error (a too-long
    case, say) is the reply.  A caller may wrap :func:`adam_step`, so not it."""
    import signal
    main_end.close()  # so that the main process's exit closes the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process decides when to stop
    rng = np.random.default_rng(0)  # each job sets its state
    try:
        while True:
            chunk, keep, rng.bit_generator.state = conn.recv()
            try:
                reply = _share([pairs[i] for i in chunk], slice(keep, None), model, cfg, rng,
                               arena.theirs)
            except Exception as exc:
                reply = exc
            conn.send(reply)
            conn.recv()  # the main process's gradients are in place
            conn.send(arena.add_half(1))
            arena.adam.step = conn.recv()  # after an error, the pipe closes instead
            _adam(arena.params, arena.grads, arena.adam, cfg.lr, arena.halves[1][0])
            conn.send(None)
    except (EOFError, OSError):
        return


def _write_log(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_HEADER)
        for row in rows:
            writer.writerow([row["epoch"]] + ["" if row[key] is None else f"{row[key]:.6f}"
                                              for key in LOG_HEADER[1:]])


def heldout_predictions(model: Model, records: list[CaseRecord],
                        chain_map: Mapping[str, ChainSet | None], max_len: int) -> dict[str, str]:
    """Greedy-decode every record, encoding each charge's chain set once;
    returns case_id -> opinion text."""
    outputs = decode_cases(model, records, chain_map, max_len=max_len)
    return {rec.case_id: out.text for rec, out in zip(records, outputs)}


@one_blas_thread()
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
    arena = _Arena(model.params)
    pairs = [(rec, chain_map[rec.charge]) for rec in split.train]
    worker = _Worker(arena, model, pairs, cfg) if min(cfg.batch_size, len(pairs)) > 1 else None
    try:
        dropout_rng = np.random.default_rng([cfg.seed, 101])
        golds = [rec.sentence_months for rec in split.test]
        log_rows: list[dict] = []
        for epoch in range(1, cfg.epochs + 1):
            order_rng = np.random.default_rng([cfg.seed, 202, epoch])
            order = order_rng.permutation(len(split.train))
            sums = {"loss_total": 0.0, "loss_reasoning": 0.0, "loss_sentencing": 0.0}
            for step, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
                chunk = order[start:start + cfg.batch_size]
                peer = worker if len(chunk) > 1 else None  # a one-case batch stays here
                squares, terms = _step(chunk, pairs, model, cfg, dropout_rng, arena, peer)
                norm = clip_gradients(arena.grads, squares, cfg.grad_clip)
                loss_value = terms[0]
                if not (math.isfinite(loss_value) and math.isfinite(norm)):
                    raise EvaluationError(f"epoch {epoch}, step {step}: loss {loss_value} or "
                                          f"gradient norm {norm} is not finite")
                adam_step(arena.params, arena.grads, arena.adam, cfg.lr, peer)
                for key, value in zip(sums, terms):
                    sums[key] += value * len(chunk)
            row = {"epoch": epoch, **{key: value / len(order) for key, value in sums.items()},
                   "heldout_mae": None, "heldout_rmse": None}
            if split.test and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
                opinions = heldout_predictions(model, split.test, chain_map, cfg.max_gen_len)
                preds = [extract_sentence_months(opinions[rec.case_id]) for rec in split.test]
                row["heldout_mae"], row["heldout_rmse"] = mae_rmse(preds, golds)
            log_rows.append(row)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model,
                                extra={"train_config": cfg.to_dict(), "epoch": epoch})
            if log_path is not None:
                _write_log(log_path, log_rows)
        # Keep what a loaded checkpoint holds: the memos only speed up training.
        model.table.clear_memos()
        return TrainResult(model=model, log_rows=log_rows, config=cfg)
    except (ConnectionError, EOFError):  # the worker's end of the pipe closed
        # (a reset, not an EOF, when the worker left a message unread)
        raise ChildProcessError("the training worker exited during a step") from None
    finally:
        if worker is not None:
            worker.close()


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
        texts += chain.texts
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
