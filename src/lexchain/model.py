"""Combined-sequence decoding: chain rows + fact tokens in, opinion out.

The combined matrix stacks the encoded chain rows above the fact token
embeddings; a small pre-norm causal transformer decodes the opinion from that
prefix.  Training uses teacher forcing with a joint objective: mean
cross-entropy over all opinion tokens, plus a second mean restricted to the
sentencing clause, weighted ``alpha`` and ``beta``.

Chain rows carry no positional signal; fact and opinion tokens take learned
positional embeddings indexed by their absolute row in the combined sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, MutableMapping, Sequence

import numpy as np

from . import tensor as T
from .chains import ChainSet
from .encoder import (MASK_VALUE, EmbeddingTable, EncodedChainSet, attention, linear,
                      encode_chain_set)
from .errors import (CapacityError, ContractError, ShapeError, ValidationError)
from .metrics import find_sentencing_char_span
from .tensor import Tensor
from .tokenizer import detokenize, span_to_token_interval


@dataclass
class ModelConfig:
    d: int = 64
    enc_heads: int = 8
    dec_heads: int = 4
    layers: int = 2
    context: int = 256

    def __post_init__(self):
        if min(self.d, self.enc_heads, self.dec_heads, self.layers, self.context) <= 0:
            raise ContractError(f"d, enc_heads, dec_heads, layers and context must be positive, "
                                f"got {self.to_dict()}")
        if self.d % self.enc_heads != 0:
            raise ShapeError(f"enc_heads {self.enc_heads} must divide d {self.d}")
        if self.d % self.dec_heads != 0:
            raise ShapeError(f"dec_heads {self.dec_heads} must divide d {self.d}")

    def to_dict(self) -> dict:
        return {"d": self.d, "enc_heads": self.enc_heads, "dec_heads": self.dec_heads,
                "layers": self.layers, "context": self.context}


class Model:
    """Embedding table, chain-encoder and decoder weights under one namespace."""

    def __init__(self, cfg: ModelConfig, table: EmbeddingTable, charges: list[str],
                 params: MutableMapping[str, Tensor]):
        self.cfg = cfg
        self.table = table
        self.charges = list(charges)
        self.params = params

    @property
    def vocab_size(self) -> int:
        return self.table.matrix.shape[0]


_ATTENTION = ("Wq", "Wk", "Wv", "Wo")


def _layout(cfg: ModelConfig, vocab_size: int,
            charges: Sequence[str]) -> list[tuple[str, tuple[int, ...], str]]:
    """``(name, shape, init)`` of every parameter, in the order
    :func:`build_model` draws them.  ``init`` is ``uniform``, ``zeros``,
    ``ones``, or ``heads`` for an attention weight: ``(heads, d, dh)`` for
    ``Wq``, ``Wk`` and ``Wv``, ``(heads, dh, d)`` for ``Wo``, listed in that
    order."""
    d = cfg.d
    layout = [("embed", (vocab_size, d), "uniform"), ("pos", (cfg.context, d), "uniform")]

    def linear(name: str, fan_in: int, fan_out: int, suffix: str = "") -> None:
        layout.extend([(f"{name}.W{suffix}", (fan_in, fan_out), "uniform"),
                       (f"{name}.b{suffix}", (fan_out,), "zeros")])

    def norm(name: str) -> None:
        layout.extend([(f"{name}.g", (d,), "ones"), (f"{name}.b", (d,), "zeros")])

    def attention_block(block: str, heads: int) -> None:
        dh = d // heads
        layout.extend((f"{block}.{w}", (heads, dh, d) if w == "Wo" else (heads, d, dh), "heads")
                      for w in _ATTENTION)

    attention_block("enc.attn", cfg.enc_heads)
    for name in ("enc.G1", "enc.G2", "enc.gate"):
        linear(name, d, d)
    linear("enc.fusion", 2 * d, d)
    for charge in charges:
        linear(f"enc.charge.{charge}", d, d)
    for layer in range(cfg.layers):
        norm(f"dec.{layer}.ln1")
        attention_block(f"dec.{layer}.attn", cfg.dec_heads)
        norm(f"dec.{layer}.ln2")
        linear(f"dec.{layer}.ffn", d, 4 * d, "1")
        linear(f"dec.{layer}.ffn", 4 * d, d, "2")
    norm("dec.lnf")
    linear("dec.out", d, vocab_size)
    return layout


def build_model(vocab: dict[str, int], charges: Sequence[str], cfg: ModelConfig,
                seed: int) -> Model:
    """Create all parameters in :func:`_layout` order from one seeded stream.

    Projection weights are uniform in (-1/sqrt(d), 1/sqrt(d)); biases start at
    zero; layer-norm gains at one.  An attention block's four weights come
    from one (heads, 4, d * dh) draw: head by head, ``Wq``, ``Wk``, ``Wv`` and
    ``Wo`` in turn, which is the stream order of drawing each head's weights
    one after another.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(cfg.d)
    params: dict[str, Tensor] = {}
    for name, shape, init in _layout(cfg, len(vocab), sorted(charges)):
        if init == "heads":
            w = _ATTENTION.index(name.rpartition(".")[2])
            if w == 0:
                heads = rng.uniform(-scale, scale, (shape[0], len(_ATTENTION), shape[1] * shape[2]))
            data = heads[:, w].reshape(shape)
        elif init == "uniform":
            data = rng.uniform(-scale, scale, shape)
        else:
            data = np.zeros(shape) if init == "zeros" else np.ones(shape)
        params[name] = Tensor(data, requires_grad=True, name=name)
    table = EmbeddingTable(vocab, params["embed"])
    return Model(cfg, table, sorted(charges), params)


def param_shapes(cfg: ModelConfig, vocab_size: int,
                 charges: Sequence[str]) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of a model built by :func:`build_model`
    with this config, vocabulary size and charges."""
    return {name: shape for name, shape, _ in _layout(cfg, vocab_size, charges)}


# ---------------------------------------------------------------------------
# Combined sequence
# ---------------------------------------------------------------------------


def combine(encoded: EncodedChainSet | None, fact_text: str, table: EmbeddingTable) -> Tensor:
    """Stack chain rows above fact token embeddings: an (n + l_F) x d matrix."""
    ids = table.encode(fact_text)
    if not ids:
        raise ContractError("fact text produced no tokens")
    fact_rows = T.gather_rows(table.matrix, ids)
    if encoded is None or encoded.n == 0:
        return fact_rows
    return T.concat([encoded.e_chain, fact_rows], axis=0)


def add_positions(x: Tensor, n_chain_rows: int, params: Mapping[str, Tensor],
                  cfg: ModelConfig) -> Tensor:
    """Add learned positions to every row past the chain slots."""
    total = x.shape[0]
    if total > cfg.context:
        raise CapacityError(f"sequence of {total} rows exceeds context {cfg.context}")
    if n_chain_rows >= total:
        return x
    pos_rows = T.gather_rows(params["pos"], np.arange(n_chain_rows, total))
    if n_chain_rows:
        pos_rows = T.concat([Tensor(np.zeros((n_chain_rows, x.shape[1]))), pos_rows], axis=0)
    return x + pos_rows


_CAUSAL = np.zeros((0, 0))


def _causal_mask(rows: int, past: int) -> np.ndarray:
    """The (rows, past + rows) additive causal mask, as one contiguous array
    (numpy adds it faster than a strided view): row i, after ``past`` cached
    rows, sees keys 0..past+i.  It is cut from one upper-triangular table,
    grown to the longest sequence seen."""
    global _CAUSAL
    keys = past + rows
    if _CAUSAL.shape[0] < keys:
        _CAUSAL = np.triu(np.full((keys, keys), MASK_VALUE), k=1)
    return np.ascontiguousarray(_CAUSAL[past:keys, :keys])


def decoder_forward(x: Tensor, params: Mapping[str, Tensor], cfg: ModelConfig,
                    first_row: int = 0, caches: Sequence[T.KVCache] | None = None) -> Tensor:
    """Causal decoder over the rows of ``x``; returns logits for rows ``first_row:``.

    Every row runs through all blocks but the last (later rows attend to
    earlier ones).  In the last block every row still gives a key and a
    value, but only rows ``first_row:`` form queries and go on through the
    FFN, the final layer norm and the output head, which are all row-wise.
    The default returns all rows.

    ``caches`` (one :class:`tensor.KVCache` per layer; tape-free only) hold
    earlier rows, which the rows of ``x`` follow and attend to.
    """
    rows = x.shape[0]
    past = caches[0].used if caches else 0
    if past + rows > cfg.context:
        raise CapacityError(f"sequence of {past + rows} rows exceeds context {cfg.context}")
    if not 0 <= first_row < rows:
        raise ContractError(f"first_row {first_row} is outside [0, {rows})")
    # The last row sees every key, so a block whose only query is the last
    # row (a one-row decode step) takes no mask.
    mask = _causal_mask(rows, past) if rows > 1 else None
    for layer in range(cfg.layers):
        block = f"dec.{layer}"
        queries = first_row if layer == cfg.layers - 1 else 0
        h = T.layer_norm(x, params[f"{block}.ln1.g"], params[f"{block}.ln1.b"])
        attn_out, _ = attention(h, params, f"{block}.attn", cfg.dec_heads,
                                None if queries == rows - 1 else mask[queries:],
                                caches[layer] if caches else None, queries)
        if queries:
            x = T.gather_rows(x, np.arange(queries, rows))
        x = x + attn_out
        h2 = T.layer_norm(x, params[f"{block}.ln2.g"], params[f"{block}.ln2.b"])
        inner = T.relu(linear(h2, params, f"{block}.ffn", "1"))
        x = x + linear(inner, params, f"{block}.ffn", "2")
    x = T.layer_norm(x, params["dec.lnf.g"], params["dec.lnf.b"])
    return linear(x, params, "dec.out")


# ---------------------------------------------------------------------------
# Sentencing span and joint loss
# ---------------------------------------------------------------------------


def mark_sentencing_span(opinion_text: str) -> tuple[int, int] | None:
    """Token interval of the last sentencing clause, or None."""
    found = find_sentencing_char_span(opinion_text)
    if found is None:
        return None
    return span_to_token_interval(opinion_text, (found[0], found[1]))


@dataclass
class JointLoss:
    total: Tensor
    reasoning: Tensor
    sentencing: Tensor
    token_count: int
    mask_count: int


def _case_target(record, table: EmbeddingTable,
                 beta: float) -> tuple[list[int], tuple[int, int] | None]:
    """A case's target, the opinion's token ids followed by ``<eos>``, and the
    token interval of its sentencing clause (None when it has none, which
    ``beta > 0`` rejects)."""
    target = table.encode(record.opinion) + [table.vocab["<eos>"]]
    interval = None
    if record.sentencing_span is not None:
        interval = span_to_token_interval(record.opinion, record.sentencing_span)
    if interval is None:
        interval = mark_sentencing_span(record.opinion)
    if interval is None or interval[0] >= interval[1]:
        if beta > 0:
            raise ValidationError(f"case {record.case_id} has no sentencing span but beta > 0")
        return target, None
    return target, interval


def joint_loss(batch: Sequence[tuple], model: Model, alpha: float = 1.0, beta: float = 1.0,
               dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
               scored: slice = slice(None)) -> JointLoss:
    """Teacher-forced joint objective over a batch of (case, chain set) pairs.

    ``chain set`` may be None per pair (the no-chain ablation path).  Each
    distinct chain set (by object identity) is encoded once per call, in
    batch order before any case is decoded, and its tensor reused by every
    case that holds it; the tape sums their gradients.  With
    ``dropout_rate > 0`` the cases sharing a set therefore share one dropout
    draw.  The reasoning term averages over all target tokens in the batch;
    the sentencing term averages over sentencing-clause tokens only.

    Only the cases ``batch[scored]`` are decoded, but the counts and the
    encodings still cover the whole batch.  So slices that split a batch,
    each scored from the same generator state, give loss terms and
    gradients that add up to the whole batch's; an empty slice is a
    ContractError.
    """
    if alpha < 0 or beta < 0 or (alpha == 0 and beta == 0):
        raise ContractError(f"loss weights must be >= 0 and not both zero, got {alpha}, {beta}")
    if not batch:
        raise ContractError("empty batch")
    targets = [_case_target(record, model.table, beta) for record, _ in batch]
    token_count = sum(len(target) for target, _ in targets)
    mask_count = sum(span[1] - span[0] for _, span in targets if span is not None)
    encodings: dict[int, EncodedChainSet] = {}
    for _, chain_set in batch:
        if chain_set is not None and id(chain_set) not in encodings:
            encodings[id(chain_set)] = encode_chain_set(chain_set, model.table, model.params,
                                                        model.cfg.enc_heads,
                                                        dropout_rate=dropout_rate, rng=rng)
    cases = list(zip(batch, targets))[scored]
    if not cases:
        raise ContractError(f"{scored} selects no case of a batch of {len(batch)}")
    sum_reasoning = None
    sum_sentencing = None
    for (record, chain_set), (target, interval) in cases:
        encoded = None if chain_set is None else encodings[id(chain_set)]
        combined = combine(encoded, record.fact, model.table)
        n = encoded.n if encoded is not None else 0
        prefix_len = combined.shape[0]
        x = combined
        if len(target) > 1:
            x = T.concat([combined, T.gather_rows(model.table.matrix, target[:-1])], axis=0)
        x = add_positions(x, n, model.params, model.cfg)
        # Row prefix_len - 1 + j predicts target[j]; only those rows are scored.
        logits = decoder_forward(x, model.params, model.cfg, first_row=prefix_len - 1)
        ll = T.log_likelihood_rows(logits, target)
        case_sum = T.tsum(ll)
        sum_reasoning = case_sum if sum_reasoning is None else sum_reasoning + case_sum
        if interval is None:
            continue
        in_span = np.zeros(len(target))
        in_span[interval[0]:interval[1]] = 1.0
        mask_sum = T.tsum(ll * Tensor(in_span))
        sum_sentencing = mask_sum if sum_sentencing is None else sum_sentencing + mask_sum
    reasoning = sum_reasoning * (-1.0 / token_count)
    if sum_sentencing is not None:
        sentencing = sum_sentencing * (-1.0 / mask_count)
    else:
        sentencing = Tensor(0.0)
    total = alpha * reasoning + beta * sentencing
    return JointLoss(total=total, reasoning=reasoning, sentencing=sentencing,
                     token_count=token_count, mask_count=mask_count)


# ---------------------------------------------------------------------------
# Generation (tape-free, with a KV cache per decoder layer)
# ---------------------------------------------------------------------------


@dataclass
class OpinionOutput:
    text: str
    token_ids: list[int]


TOP_K = 10


def generate(model: Model, combined: Tensor, n_chain_rows: int, max_len: int = 96,
             mode: str = "greedy", seed: int = 0) -> OpinionOutput:
    """Autoregressive decode conditioned on the combined prefix.

    The prefix fills a KV cache per layer; each new token then runs alone.
    Greedy mode is deterministic; ``top-k`` samples from the renormalized top
    ``TOP_K`` logits using the given seed.  Decoding stops at ``<eos>``, at
    ``max_len`` tokens, or when the context fills up.
    """
    if mode not in ("greedy", "top-k"):
        raise ContractError(f"unknown decode mode {mode!r}")
    if max_len < 1:
        raise ContractError(f"max_len must be at least 1, got {max_len}")
    cfg = model.cfg
    params = model.params
    eos = model.table.vocab["<eos>"]
    rng = np.random.default_rng(seed)
    prefix_len = combined.shape[0]
    x = add_positions(combined, n_chain_rows, params, cfg)
    dh = cfg.d // cfg.dec_heads
    caches = [T.KVCache(cfg.context, cfg.dec_heads, dh) for _ in range(cfg.layers)]
    logits = decoder_forward(x, params, cfg, first_row=prefix_len - 1, caches=caches).data[0]
    token_ids: list[int] = []
    position = prefix_len
    while len(token_ids) < max_len and position < cfg.context:
        if mode == "greedy":
            next_id = int(np.argmax(logits))
        else:
            order = np.argsort(-logits, kind="stable")[:TOP_K]
            z = logits[order] - logits[order].max()
            probs = np.exp(z)
            probs /= probs.sum()
            next_id = int(rng.choice(order, p=probs))
        if next_id == eos:
            break
        token_ids.append(next_id)
        row = Tensor((params["embed"].data[next_id] + params["pos"].data[position])[None, :])
        logits = decoder_forward(row, params, cfg, caches=caches).data[0]
        position += 1
    return OpinionOutput(text=detokenize(model.table.decode(token_ids)), token_ids=token_ids)


def decode_case(model: Model, record, chain_set: ChainSet | None, max_len: int = 96,
                mode: str = "greedy", seed: int = 0) -> OpinionOutput:
    """Encode (optionally), combine with the case fact, and generate.

    Decoding never adds parameters: a charge the model has no weights for
    raises ConfigurationError.
    """
    return decode_cases(model, [record], {record.charge: chain_set}, max_len, mode, seed)[0]


def decode_cases(model: Model, records: Sequence, chain_map: Mapping[str, ChainSet | None],
                 max_len: int = 96, mode: str = "greedy", seed: int = 0) -> list[OpinionOutput]:
    """:func:`decode_case` for every record, with the chain set of its charge
    (``chain_map.get(record.charge)``; None decodes chain-free).  Each
    charge's set is encoded once, when its first record is decoded, and the
    encoding is reused for the charge's later records."""
    encodings: dict[str, EncodedChainSet | None] = {}
    outputs = []
    for record in records:
        if record.charge not in encodings:
            chain_set = chain_map.get(record.charge)
            encodings[record.charge] = None if chain_set is None else encode_chain_set(
                chain_set, model.table, model.params, model.cfg.enc_heads, auto_register=False)
        encoded = encodings[record.charge]
        combined = combine(encoded, record.fact, model.table)
        n = encoded.n if encoded is not None else 0
        outputs.append(generate(model, combined, n, max_len=max_len, mode=mode, seed=seed))
    return outputs
