"""Inputs shared by the workloads and the checkpoint maker.

Everything here is made from seeds: the same seed gives the same corpus, the
same split and the same configuration.
"""

from __future__ import annotations

from pathlib import Path

from lexchain import chains, corpus, training
from lexchain.corpus import CorpusSplit

HERE = Path(__file__).resolve().parent
DECODE_CHECKPOINT = HERE / "data" / "decode_model.zip"

CASES_PER_CHARGE = 20
SPLIT_RATIO = 0.8
CHECKPOINT_SEED = 0        # corpus, split and model seed of the decode checkpoint
CHECKPOINT_EPOCHS = 8
DECODE_SEED_OFFSET = 1000  # decode corpus seed = offset + --seed, never the checkpoint's
DECODE_MAX_LEN = 128
DECODE_CASES_PER_CHARGE = 40  # 480 cases: the tail of case lengths varies less by seed


def chains_dir() -> Path:
    return Path(chains.__file__).resolve().parent / "data" / "chains"


def acceptance_config(seed: int, epochs: int) -> training.TrainConfig:
    """The acceptance configuration: d=32, 4+4 heads, 2 layers, batch 4."""
    return training.TrainConfig(lr=3e-3, epochs=epochs, batch_size=4, seed=seed,
                                dropout=0.0, use_chains=True, heads=4, dec_heads=4,
                                d=32, layers=2, context=256,
                                max_gen_len=DECODE_MAX_LEN, eval_every=epochs)


def training_split(library, seed: int) -> CorpusSplit:
    """The training cases of the seeded corpus, with an empty held-out list so
    that ``training.train`` decodes nothing."""
    cases = corpus.synthesize_corpus(seed, library, cases_per_charge=CASES_PER_CHARGE)
    parts = corpus.split(cases, SPLIT_RATIO, seed)
    return CorpusSplit(train=parts.train, test=[], seed=seed)
