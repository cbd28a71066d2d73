"""Spans and counts taken from outside the package, by wrapping its public
functions where their callers look them up.

A :class:`Tracer` replaces module attributes such as ``training.backward``
with wrappers that record one span per call: name, start, end, the span that
was open when the call began (its parent), and an optional note (a chain
set's charge, a tokenized text, a tape length).  A counting wrapper on
``Tensor.__init__`` counts tensor constructions.  Spans stay in memory and
are written out when the run ends; :func:`layer_metrics` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable

from lexchain import checkpoint, chains, corpus, encoder, metrics, model, tensor, training

NAME, START, END, PARENT, NOTE = range(5)


def _charge(args, kwargs, result):
    return args[0].charge


def _text(args, kwargs, result):
    return args[0]


def _tape_length(args, kwargs, result):
    return len(args[0].nodes)


def _token_count(args, kwargs, result):
    return len(result.token_ids)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, note).  The same function appears once per
# module that looks it up, so every call site is covered.
WRAPPED = (
    (chains, "load_chain_library", "chains.load_chain_library", None),
    (corpus, "synthesize_corpus", "corpus.synthesize_corpus", None),
    (corpus, "split", "corpus.split", None),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", _file_size),
    (training, "save_checkpoint", "checkpoint.save_checkpoint", _file_size),
    (training, "train", "training.train", None),
    (training, "gradcheck_full_pipeline", "training.gradcheck_full_pipeline", None),
    (training, "grad_check", "tensor.grad_check", None),
    (training, "joint_loss", "model.joint_loss", None),
    (training, "backward", "tensor.backward", _tape_length),
    (tensor, "backward", "tensor.backward", _tape_length),
    (training, "clip_gradients", "training.clip_gradients", None),
    (training, "adam_step", "training.adam_step", None),
    (model, "decode_case", "model.decode_case", None),
    (model, "encode_chain_set", "encoder.encode_chain_set", _charge),
    (model, "decoder_forward", "model.decoder_forward", None),
    (model, "generate", "model.generate", _token_count),
    (encoder, "tokenize", "tokenizer.tokenize", _text),
    (metrics, "tokenize", "tokenizer.tokenize", _text),
    (metrics, "evaluate_outputs", "metrics.evaluate_outputs", None),
    (metrics, "screen_corpus", "metrics.screen_corpus", None),
    (metrics, "screen_opinion", "metrics.screen_opinion", None),
    (metrics, "rouge", "metrics.rouge", None),
    (metrics, "bleu", "metrics.bleu", None),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.tensors = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, note) -> Callable:
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def _count_tensors(self, init: Callable) -> Callable:
        def wrapper(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, note in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))
        init = tensor.Tensor.__init__
        self._saved.append((tensor.Tensor, "__init__", init))
        tensor.Tensor.__init__ = self._count_tensors(init)
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        """One JSON array per span: name, start ns, end ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# The span that makes one operation of each workload, and the word that the
# per-layer metric names of that workload end in.
OP_SPAN = {"train": "model.joint_loss", "generate": "model.decode_case",
           "gradcheck": "model.joint_loss"}
OP_WORD = {"train": "step", "generate": "case", "gradcheck": "eval"}


def _ms(span) -> float:
    return (span[END] - span[START]) / 1e6


def layer_metrics(tracer: Tracer, workload: str, window: tuple[int, int],
                  tensors_in_window: int, names: list[str]) -> dict[str, float]:
    """Every name in ``names``, computed from the spans of one traced run.

    ``window`` bounds the measured rounds in ``perf_counter_ns`` time; set-up
    spans (library, corpus, checkpoint loads) lie before it.  A metric per
    step, per eval or per case is 0 on a workload whose operation is not a
    step, an eval or a case.
    """
    spans = tracer.spans
    lo, hi = window
    in_window = [i for i, s in enumerate(spans) if lo <= s[START] and s[END] <= hi]
    op_name = OP_SPAN[workload]

    def op_of(i: int) -> int:
        while i >= 0 and spans[i][NAME] != op_name:
            i = spans[i][PARENT]
        return i

    by_name: dict[str, list[int]] = defaultdict(list)
    for i in in_window:
        by_name[spans[i][NAME]].append(i)
    ops = len(by_name[op_name])

    def inside(name: str) -> list[int]:
        return [i for i in by_name[name] if op_of(i) >= 0]

    def total_ms(indices) -> float:
        return sum(_ms(spans[i]) for i in indices)

    def distinct_share(indices) -> float:
        per_op: dict[int, set] = defaultdict(set)
        for i in indices:
            per_op[op_of(i)].add(spans[i][NOTE])
        return sum(len(v) for v in per_op.values()) / len(indices) if indices else 0.0

    def self_ms(name: str) -> float:
        child_ms: dict[int, float] = defaultdict(float)
        for i in in_window:
            child_ms[spans[i][PARENT]] += _ms(spans[i])
        return sum(_ms(spans[i]) - child_ms[i] for i in by_name[name])

    def mean_ms(indices) -> float:
        return total_ms(indices) / len(indices) if indices else 0.0

    def whole_run(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    encodes = inside("encoder.encode_chain_set")
    tokenizes = inside("tokenizer.tokenize")
    per_op = {
        "tensor.tape_nodes": sum(spans[i][NOTE] for i in by_name["tensor.backward"]),
        "tensor.tensors": tensors_in_window,
        "tensor.backward_ms": total_ms(by_name["tensor.backward"]),
        "encoder.encode_calls": len(encodes),
        "encoder.encode_ms": total_ms(encodes),
        "model.decoder_forward_ms": total_ms(inside("model.decoder_forward")),
        "model.joint_loss_self_ms": self_ms("model.joint_loss"),
        "model.generate_ms": total_ms(by_name["model.generate"]),
        "tokenizer.tokenize_calls": len(tokenizes),
        "tokenizer.tokenize_ms": total_ms(tokenizes),
        "training.adam_ms": total_ms(by_name["training.adam_step"]),
        "training.clip_ms": total_ms(by_name["training.clip_gradients"]),
        "metrics.evaluate_ms": total_ms(by_name["metrics.evaluate_outputs"]),
        "metrics.screen_ms": total_ms(by_name["metrics.screen_corpus"]),
    }
    shares = {
        "encoder.distinct_sets_per_encode": distinct_share(encodes),
        "tokenizer.distinct_texts_per_tokenize": distinct_share(tokenizes),
    }
    loads = whole_run("checkpoint.load_checkpoint")
    saves = by_name["checkpoint.save_checkpoint"]
    sized = saves or loads
    tokens = sum(spans[i][NOTE] for i in by_name["model.generate"])
    fixed = {
        "checkpoint.save_ms": mean_ms(saves),
        "checkpoint.load_ms": mean_ms(loads),
        "checkpoint.bytes": float(spans[sized[-1]][NOTE]) if sized else 0.0,
        "corpus.synthesize_ms": mean_ms(whole_run("corpus.synthesize_corpus")),
        "chains.load_library_ms": mean_ms(whole_run("chains.load_chain_library")),
        "model.generate_ms_per_token": per_op["model.generate_ms"] / tokens if tokens else 0.0,
    }
    word = OP_WORD[workload]
    out = {}
    for name in names:
        if name in fixed:
            out[name] = fixed[name]
            continue
        base, _, suffix = name.rpartition("_")
        if suffix != word or not ops:
            out[name] = 0.0
        elif base in shares:
            out[name] = shares[base]
        else:
            out[name] = per_op[base.removesuffix("_per")] / ops
    return out
