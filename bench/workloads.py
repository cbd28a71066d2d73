"""The three workloads.

Each workload has a set-up (timed several times), a round (the unit the run
repeats until its time is up) and a check over the rounds' outputs.  All
calls go through the package's public functions by module attribute, so a
:class:`tracing.Tracer` sees them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from lexchain import chains, checkpoint, corpus, metrics, model, training

import checks
import inputs
from gauge import Gauge


@dataclass
class Round:
    """One measured round: its wall time; the wall time and work (cases,
    tokens or evaluations) of each operation in it; and the gauge sampled
    right after each operation."""

    seconds: float
    op_seconds: list[float]
    op_work: list[float]
    gauge: Gauge
    output: object = field(repr=False)

    @property
    def ops(self) -> int:
        return len(self.op_seconds)


class OpClock:
    """Reads the clock each time a public function returns, giving one time
    per operation without tracing, and samples the gauge between operations;
    keeps the arguments of the last call."""

    def __init__(self, owner, attr: str, gauge: Gauge):
        self.owner = owner
        self.attr = attr
        self.gauge = gauge
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self.last_args: tuple = ()

    @contextmanager
    def installed(self):
        original = getattr(self.owner, self.attr)

        def timed(*args, **kwargs):
            result = original(*args, **kwargs)
            self.ends.append(time.perf_counter())
            self.gauge.sample()
            self.last_args = args
            self.resumes.append(time.perf_counter())
            return result

        setattr(self.owner, self.attr, timed)
        try:
            yield self
        finally:
            setattr(self.owner, self.attr, original)

    def intervals(self, start: float) -> list[float]:
        """Time from the previous resume (the first from ``start``) to each return."""
        return [end - begin for begin, end in zip([start] + self.resumes, self.ends)]


def load_library():
    return chains.load_chain_library(inputs.chains_dir())


def load_training_inputs(seed: int):
    library = load_library()
    return library, inputs.training_split(library, seed)


class Train:
    """``training.train`` at the acceptance config, 2 epochs per round."""

    name = "train"
    kernel = "arrays"
    min_rounds = 2  # two same-seed trainings must write identical checkpoints
    epochs = 2

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        return load_training_inputs(self.seed)

    def round(self, state, index: int) -> Round:
        library, parts = state
        path = self.work_dir / f"train-{index}.zip"
        cfg = inputs.acceptance_config(self.seed, self.epochs)
        gauge = Gauge(self.kernel)
        with OpClock(training, "adam_step", gauge).installed() as clock:
            start = time.perf_counter()
            result = training.train(parts, library, cfg, checkpoint_path=path)
            seconds = time.perf_counter() - start
        steps = clock.intervals(start)
        return Round(seconds, steps, [cfg.batch_size] * len(steps), gauge,
                     (result, path))

    def check(self, state, rounds: list[Round]) -> list[str]:
        library, parts = state
        problems = []
        first_bytes = rounds[0].output[1].read_bytes()
        for r in rounds:
            result, path = r.output
            problems += checks.loss_problems(result.log_rows)
            problems += checks.same_bytes_problems(first_bytes, path.read_bytes(), path.name)
        # Four cases of four charges, taken across the charge-sorted split.
        batch = [(rec, library[rec.charge]) for rec in parts.train[::len(parts.train) // 4]]
        fd, analytic = checks.directional_derivative(rounds[-1].output[0].model, batch, self.seed)
        return problems + checks.directional_problems(fd, analytic)


@dataclass
class Decoded:
    token_ids: dict[str, list[int]]
    texts: dict[str, str]
    report: dict
    gold_report: dict
    gold_screening: dict


class Generate:
    """Greedy ``model.decode_case`` of unseen cases from the kept checkpoint,
    then ``evaluate_outputs`` and ``screen_corpus`` over decoded and gold."""

    name = "generate"
    kernel = "dispatch"
    min_rounds = 2  # 960 case times at least: one pass leaves the 90th percentile noisy

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        library = load_library()
        trained = inputs.training_split(library, inputs.CHECKPOINT_SEED).train
        self.trained = {(rec.fact, rec.opinion) for rec in trained}

    def setup(self):
        library = load_library()
        cases = corpus.synthesize_corpus(inputs.DECODE_SEED_OFFSET + self.seed, library,
                                         cases_per_charge=inputs.DECODE_CASES_PER_CHARGE)
        mdl, _ = checkpoint.load_checkpoint(inputs.DECODE_CHECKPOINT)
        unseen = [c for c in cases if (c.fact, c.opinion) not in self.trained]
        return library, unseen, mdl, sorted(mdl.params)

    def round(self, state, index: int) -> Round:
        library, cases, mdl, _ = state
        op_seconds = []
        outputs = {}
        gauge = Gauge(self.kernel)
        start = time.perf_counter()
        for case in cases:
            t = time.perf_counter()
            outputs[case.case_id] = model.decode_case(mdl, case, library[case.charge],
                                                      max_len=inputs.DECODE_MAX_LEN)
            op_seconds.append(time.perf_counter() - t)
            gauge.sample()
        texts = {cid: out.text for cid, out in outputs.items()}
        gold = {c.case_id: c.opinion for c in cases}
        report = metrics.evaluate_outputs(cases, texts)
        metrics.screen_corpus(cases, texts, library)
        gold_report = metrics.evaluate_outputs(cases, gold)
        gold_screening = metrics.screen_corpus(cases, gold, library)
        seconds = time.perf_counter() - start
        decoded = Decoded({cid: out.token_ids for cid, out in outputs.items()}, texts,
                          report, gold_report, gold_screening)
        tokens = [len(outputs[c.case_id].token_ids) for c in cases]
        return Round(seconds, op_seconds, tokens, gauge, decoded)

    def check(self, state, rounds: list[Round]) -> list[str]:
        library, cases, mdl, names_before = state
        problems = []
        if sorted(mdl.params) != names_before:
            problems.append("decoding changed the names in model.params")
        first = rounds[0].output
        eos = mdl.table.vocab["<eos>"]
        for case in cases:
            ids = first.token_ids[case.case_id]
            rows, prefix_len = checks.full_sequence_logits(mdl, case, library[case.charge], ids)
            stopped_early = (len(ids) < inputs.DECODE_MAX_LEN
                             and prefix_len + len(ids) < mdl.cfg.context)
            problems += checks.greedy_problems(case.case_id, rows, ids, eos, stopped_early)
        for r in rounds[1:]:
            if r.output.token_ids != first.token_ids:
                problems.append("a later round decoded other tokens than the first")
        problems += checks.months_problems(cases, first.texts, first.report)
        return problems + checks.gold_problems(first.gold_report, first.gold_screening)


class Gradcheck:
    """``training.gradcheck_full_pipeline`` at d=8, 2 heads, 1 layer: one
    round is one full finite-difference sweep.

    The sweep always uses model seed 0, the seed of acceptance criterion 01:
    at this shape model seed 5 puts a ReLU input within the check's 1e-5 step
    of its kink, and the check then reads 0.078 on a correct gradient.
    """

    name = "gradcheck"
    kernel = "dispatch"
    min_rounds = 1
    shape = {"seed": 0, "d": 8, "heads": 2, "layers": 1}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def setup(self):
        return load_training_inputs(self.seed)

    def round(self, state, index: int) -> Round:
        gauge = Gauge(self.kernel)
        with OpClock(training, "joint_loss", gauge).installed() as clock:
            start = time.perf_counter()
            err, scalars = training.gradcheck_full_pipeline(**self.shape)
            seconds = time.perf_counter() - start
        evals = clock.intervals(start)
        param_count = sum(t.size for t in clock.last_args[1].params.values())
        return Round(seconds, evals, [1] * len(evals), gauge,
                     (err, scalars, len(evals), param_count))

    def check(self, state, rounds: list[Round]) -> list[str]:
        return [p for r in rounds for p in checks.gradcheck_problems(*r.output)]


WORKLOADS = {w.name: w for w in (Train, Generate, Gradcheck)}
