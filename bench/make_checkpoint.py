"""Remake the decode checkpoint that the ``generate`` workload loads.

Trains the acceptance configuration for 8 epochs over the 192 training cases
of the seed-0 synthetic corpus and writes ``data/decode_model.zip``.  Same-seed
training is deterministic, so on the same numpy and OpenBLAS the file comes
out byte-identical.

    python3 bench/make_checkpoint.py
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

from lexchain import chains, training  # noqa: E402

import inputs  # noqa: E402


def main() -> None:
    library = chains.load_chain_library(inputs.chains_dir())
    parts = inputs.training_split(library, inputs.CHECKPOINT_SEED)
    cfg = inputs.acceptance_config(inputs.CHECKPOINT_SEED, inputs.CHECKPOINT_EPOCHS)
    result = training.train(parts, library, cfg, checkpoint_path=inputs.DECODE_CHECKPOINT)
    for row in result.log_rows:
        print(f"epoch {row['epoch']}: loss {row['loss_total']:.4f}")
    print(f"wrote {inputs.DECODE_CHECKPOINT}")


if __name__ == "__main__":
    main()
