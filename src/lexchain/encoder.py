"""Chain-aware encoding: from legal chains to a stack of fused chain vectors.

Per chain, the three component texts (premise, situation, conclusion) are
mean-embedded, run through multi-head self-attention over the three slots with
a residual connection, mean-pooled to one vector ``r``, pushed through a gated
crime-transformation block (general MLP + charge-specific linear map blended
by a sigmoid gate), and fused with ``r`` by a final linear layer.  A chain
set of n chains goes through all of this in one pass: the 3n component rows
are stacked and attend under a block-diagonal mask, so each chain sees only
its own components, and every later step is row-wise.  The result is the
``n x d`` chain matrix consumed by the decoder.

Parameters live in a flat ``name -> Tensor`` mapping shared with the decoder;
this module reads keys under the ``enc.`` prefix.  Vectors are 1 x d rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, MutableMapping, Sequence

import numpy as np

from . import tensor as T
from .chains import ChainSet, LegalChain
from .errors import ConfigurationError, ShapeError, ValidationError
from .tensor import Tensor
from .tokenizer import tokenize

PAD_TOKEN, UNK_TOKEN, EOS_TOKEN = "<pad>", "<unk>", "<eos>"
PAD_ID, UNK_ID, EOS_ID = 0, 1, 2
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, EOS_TOKEN)
MASK_VALUE = -1e9  # finite additive mask keeps forward outputs NaN/Inf-free


def build_vocab(texts: Iterable[str], extra_tokens: Iterable[str] = ()) -> dict[str, int]:
    """Deterministic vocabulary: specials first, then sorted unique tokens."""
    seen: set[str] = set()
    for text in texts:
        seen.update(tokenize(text))
    seen.update(extra_tokens)
    seen.difference_update(SPECIAL_TOKENS)
    vocab = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for tok in sorted(seen):
        vocab[tok] = len(vocab)
    return vocab


class EmbeddingTable:
    """Token -> row-index vocabulary over a trainable V x d matrix.

    Each text is tokenized once per table: :meth:`encode` keeps its ids, and
    ``targets`` holds :func:`model._case_target`'s result per (opinion,
    sentencing span).  Both grow with the distinct texts the table has seen
    until :meth:`clear_memos` empties them.
    """

    def __init__(self, vocab: dict[str, int], matrix: Tensor):
        if matrix.ndim != 2:
            raise ShapeError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
        if vocab and max(vocab.values()) >= matrix.shape[0]:
            raise ValidationError(
                f"vocab index {max(vocab.values())} out of range for {matrix.shape[0]} rows"
            )
        self.vocab = vocab
        self.matrix = matrix
        self.id_to_token = [""] * len(vocab)
        for tok, i in vocab.items():
            self.id_to_token[i] = tok
        self._ids: dict[str, tuple[int, ...]] = {}
        self.targets: dict[tuple[str, tuple[int, int] | None],
                           tuple[tuple[int, ...], tuple[int, int] | None]] = {}

    def encode(self, text: str) -> list[int]:
        """The token ids of ``text``, as a fresh list."""
        ids = self._ids.get(text)
        if ids is None:
            unk = self.vocab.get(UNK_TOKEN, UNK_ID)
            ids = self._ids[text] = tuple(self.vocab.get(tok, unk) for tok in tokenize(text))
        return list(ids)

    def clear_memos(self) -> None:
        """Forget every text's ids and every case target."""
        self._ids.clear()
        self.targets.clear()

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def embed_components(texts: Sequence[str], table: EmbeddingTable) -> Tensor:
    """Mean of each text's token embedding rows: a len(texts) x d tensor.

    All texts share one row gather and one matmul with an averaging matrix.
    A text with no tokens yields a zero row and a warning, so degenerate
    component texts stay visible without breaking the pipeline.
    """
    ids: list[int] = []
    spans = []
    for text in texts:
        text_ids = table.encode(text)
        if not text_ids:
            warnings.warn(f"component text {text!r} has no tokens; embedding as zero vector")
        spans.append((len(ids), len(text_ids)))
        ids.extend(text_ids)
    averaging = np.zeros((len(texts), len(ids)))
    for row, (start, count) in enumerate(spans):
        averaging[row, start:start + count] = 1.0 / max(count, 1)
    return T.matmul(Tensor(averaging), T.gather_rows(table.matrix, ids))


@dataclass
class EncodedChainSet:
    """The n x d chain matrix, one row per chain."""

    e_chain: Tensor

    @property
    def n(self) -> int:
        return self.e_chain.shape[0]


def attention(h: Tensor, params: Mapping[str, Tensor], prefix: str, heads: int,
              mask: np.ndarray | None = None, cache: T.KVCache | None = None,
              first_row: int = 0) -> tuple[Tensor, np.ndarray]:
    """:func:`tensor.attention` with the weights under ``prefix``, whose
    ``Wq``/``Wk``/``Wv`` are (heads, d, dh) and ``Wo`` is (heads, dh, d).
    Returns the summed head outputs of the query rows ``first_row:``
    (queries x d) and the (heads, queries, keys) attention probabilities."""
    d = h.shape[1]
    dh = d // heads
    wq = params[f"{prefix}.Wq"]
    if wq.shape != (heads, d, dh):
        raise ShapeError(f"{prefix}.Wq has shape {wq.shape}, expected {(heads, d, dh)}")
    return T.attention(h, wq, params[f"{prefix}.Wk"], params[f"{prefix}.Wv"],
                       params[f"{prefix}.Wo"], mask, cache, first_row)


def linear(x: Tensor, params: Mapping[str, Tensor], prefix: str, suffix: str = "") -> Tensor:
    """:func:`tensor.linear` with the weight and bias ``{prefix}.W{suffix}``
    and ``{prefix}.b{suffix}``."""
    return T.linear(x, params[f"{prefix}.W{suffix}"], params[f"{prefix}.b{suffix}"])


_CHAIN_CONSTANTS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _chain_constants(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Additive block-diagonal mask (3n x 3n) that keeps each chain's three
    components attending among themselves, and the (n x 3n) matrix that
    mean-pools each chain's three rows."""
    found = _CHAIN_CONSTANTS.get(n)
    if found is None:
        owner = np.repeat(np.arange(n), 3)
        mask = np.where(owner[:, None] == owner[None, :], 0.0, MASK_VALUE)
        pool = np.where(np.arange(n)[:, None] == owner[None, :], 1.0 / 3.0, 0.0)
        found = (mask, pool)
        _CHAIN_CONSTANTS[n] = found
    return found


def _encode_pooled(chains: Sequence[LegalChain], table: EmbeddingTable,
                   params: Mapping[str, Tensor], heads: int, dropout_rate: float,
                   rng: np.random.Generator | None) -> tuple[Tensor, np.ndarray]:
    """Stack every chain's premise, situation and conclusion rows, attend within
    each chain, add the residual and mean-pool: n x d, plus the (heads, 3n, 3n)
    attention probabilities."""
    n = len(chains)
    texts = [text for chain in chains for text in chain.texts]
    h = embed_components(texts, table)
    mask, pool = _chain_constants(n)
    attn_out, probs = attention(h, params, "enc.attn", heads, mask)
    attn_out = T.dropout(attn_out, dropout_rate, rng)
    return T.matmul(Tensor(pool), h + attn_out), probs


def encode_chain(chain: LegalChain, table: EmbeddingTable, params: Mapping[str, Tensor],
                 heads: int) -> tuple[Tensor, np.ndarray]:
    """Component stack -> self-attention with residual -> mean pool.

    Returns the pooled 1 x d representation ``r`` and the head-averaged 3x3
    attention weight matrix, a diagnostic that only this function computes.
    """
    r, probs = _encode_pooled([chain], table, params, heads, 0.0, None)
    return r, probs.mean(axis=0)


def ensure_charge(params: MutableMapping[str, Tensor], charge: str, d: int,
                  auto_register: bool = True) -> None:
    """Make sure charge-specific parameters exist.

    Auto-registered charges start as identity/zero, i.e. the charge-specific
    path initially reproduces the general transformation.
    """
    key_w = f"enc.charge.{charge}.W"
    if key_w in params:
        return
    if not auto_register:
        raise ConfigurationError(f"unknown charge {charge!r} and auto-registration is disabled")
    key_b = f"enc.charge.{charge}.b"
    params[key_w] = Tensor(np.eye(d), requires_grad=True, name=key_w)
    params[key_b] = Tensor(np.zeros(d), requires_grad=True, name=key_b)


def crime_transform(r: Tensor, charge: str, params: MutableMapping[str, Tensor],
                    auto_register: bool = True, dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
    """Gated blend of the general MLP and the charge-specific linear map.

    ``u`` is the general transformation of ``r``; ``v`` the charge-specific
    refinement of ``u``; the sigmoid gate ``g`` interpolates ``t = g*v +
    (1-g)*u`` elementwise.  Returns ``(t, g)``.
    """
    d = r.shape[1]
    hidden = T.dropout(T.relu(linear(r, params, "enc.G1")), dropout_rate, rng)
    u = linear(hidden, params, "enc.G2")
    ensure_charge(params, charge, d, auto_register)
    v = linear(u, params, f"enc.charge.{charge}")
    g = T.sigmoid(linear(u, params, "enc.gate"))
    t = g * v + (1.0 - g) * u
    return t, g


def fuse(r: Tensor, t: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Final fusion of the pooled and transformed representations."""
    if r.shape != t.shape:
        raise ShapeError(f"fuse expects matching shapes, got {r.shape} and {t.shape}")
    cat = T.concat([r, t], axis=1)
    return linear(cat, params, "enc.fusion")


def encode_chain_set(cs: ChainSet, table: EmbeddingTable, params: MutableMapping[str, Tensor],
                     heads: int, auto_register: bool = True, dropout_rate: float = 0.0,
                     rng: np.random.Generator | None = None) -> EncodedChainSet:
    """Encode every chain of a set in one pass, preserving chain order in the
    output rows."""
    r, _ = _encode_pooled(cs.chains, table, params, heads, dropout_rate, rng)
    t, _ = crime_transform(r, cs.charge, params, auto_register, dropout_rate, rng)
    return EncodedChainSet(e_chain=fuse(r, t, params))
