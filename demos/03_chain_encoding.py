#!/usr/bin/env python3
"""Encode a charge's chains into the n x d matrix the decoder conditions on.

Walks one chain set through the pipeline pieces: component embeddings,
self-attention over (premise, situation, conclusion), the gated
charge-specific transform, fusion, and finally the combined sequence that
stacks chain rows above fact-token embeddings.
"""
import numpy as np

from lexchain import (
    ModelConfig,
    build_model,
    combine,
    crime_transform,
    encode_chain,
    encode_chain_set,
    load_chain_library,
    training_vocab,
)
from lexchain.cli import default_chains_dir

library = load_chain_library(default_chains_dir())
cs = library["robbery"]
print(f"charge: {cs.charge}  ({len(cs.chains)} chains)")
for chain in cs.chains:
    rng = chain.conclusion
    print(f"  [{rng.label}] {rng.min_months}-{rng.max_months} months;"
          f" premise: {chain.texts[0]}")

# A model bundles the embedding table and every encoder/decoder parameter.
cfg = ModelConfig(d=32, enc_heads=4, dec_heads=4, layers=1, context=256)
vocab = training_vocab([], library)
model = build_model(vocab, sorted(library), cfg, seed=0)
print(f"vocab size {len(vocab)}, parameter tensors {len(model.params)}")

# Per-chain: 3 component rows -> self-attention + residual -> mean-pool.
r, w = encode_chain(cs.chains[0], model.table, model.params, heads=cfg.enc_heads)
print("pooled chain representation r:", r.shape)
print("head-averaged component attention (premise/situation/conclusion):")
print(np.array_str(w, precision=3))
print("attention rows sum to 1:", np.allclose(w.sum(axis=1), 1.0))

# The gated transform blends a general MLP with a charge-specific linear map.
t, g = crime_transform(r, cs.charge, model.params)
print("gate activations g in (0, 1):", float(g.data.min()), "-", float(g.data.max()))

# Whole set at once: one fused row per chain, order preserved.
encoded = encode_chain_set(cs, model.table, model.params, heads=cfg.enc_heads)
print("encoded chain matrix:", encoded.e_chain.shape)

# Conditioning input = chain rows stacked above the fact's token embeddings.
fact = ("On March 3, in Hangzhou, the defendant Li Wei punched the victim "
        "repeatedly and forced the victim to the ground.")
x = combine(encoded, fact, model.table)
print(f"combined sequence: {x.shape[0]} rows "
      f"({encoded.n} chain rows + {x.shape[0] - encoded.n} fact tokens) x d={x.shape[1]}")
