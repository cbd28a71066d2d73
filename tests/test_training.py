"""Training loop: Adam updates, gradient clipping, vocabulary assembly, CSV
logging, checkpointing, memorization of a single case, the ablation harness,
and the end-to-end finite-difference check."""

import copy
import csv
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lexchain.chains import (ChainSet, SentencingRange, chain_from_text, charge_chains,
                             load_chain_library, serialize_chain_set)
from lexchain.checkpoint import load_checkpoint, save_checkpoint
from lexchain.cli import CONFIG_ENV, default_chains_dir, main
from lexchain.corpus import CaseRecord, CorpusSplit, save_jsonl, synthesize_corpus, split
from lexchain import model as model_module
from lexchain import training as training_module
from lexchain.encoder import build_vocab
from lexchain.errors import CapacityError, ConfigurationError, ContractError, EvaluationError
from lexchain.metrics import screen_corpus
from lexchain.model import ModelConfig, build_model, decode_case, decode_cases, joint_loss
from lexchain import tensor as tensor_module
from lexchain.tensor import Tape, Tensor, _record, backward
from lexchain.training import (
    LOG_HEADER,
    AdamState,
    TrainConfig,
    TrainResult,
    adam_step,
    clip_gradients,
    evaluate_heldout,
    gradcheck_full_pipeline,
    heldout_predictions,
    run_ablation,
    train,
    training_vocab,
)


@pytest.fixture(scope="module")
def library():
    return load_chain_library(default_chains_dir())


@pytest.fixture(scope="module")
def driving_corpus(library):
    small = {"dangerous_driving": library["dangerous_driving"]}
    return synthesize_corpus(seed=0, library=small, cases_per_charge=5)


def _tiny_cfg(**overrides):
    base = dict(lr=1e-3, epochs=2, batch_size=2, seed=0, dropout=0.0,
                heads=2, dec_heads=2, d=16, layers=1, context=224, max_gen_len=120)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    """Run configuration validation and the model-config projection."""

    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3
        assert cfg.use_chains

    def test_model_config_projection(self):
        cfg = _tiny_cfg(d=32, heads=4, dec_heads=2, layers=3, context=128)
        mc = cfg.model_config()
        assert (mc.d, mc.enc_heads, mc.dec_heads, mc.layers, mc.context) == (32, 4, 2, 3, 128)

    def test_dict_round_trip(self):
        cfg = _tiny_cfg(alpha=2.0, beta=0.5)
        assert TrainConfig(**cfg.to_dict()) == cfg

    @pytest.mark.parametrize("bad", [
        dict(lr=0.0), dict(lr=-1e-3), dict(alpha=-1.0), dict(beta=-0.1),
        dict(alpha=0.0, beta=0.0), dict(epochs=0), dict(batch_size=0),
    ])
    def test_invalid_configs_raise(self, bad):
        with pytest.raises(ContractError):
            _tiny_cfg(**bad)


def _by_name(row, model):
    """One array per parameter name over a flat arena row (name order)."""
    names = sorted(model.params)
    ends = np.cumsum([model.params[name].size for name in names])
    return {name: part.reshape(model.params[name].shape)
            for name, part in zip(names, np.split(row, ends[:-1]))}


def _adam_state(size):
    return AdamState(np.zeros(size), np.zeros(size), np.zeros((2, size)))


class TestAdam:
    """Bias-corrected Adam over flat arrays, updated in place."""

    def test_first_step_moves_by_lr_times_sign(self):
        params = np.array([5.0, -3.0])
        state = _adam_state(2)
        adam_step(params, np.array([2.0, -0.5]), state, lr=0.1)
        # after one step the update collapses to lr * sign(g) up to eps
        np.testing.assert_allclose(params, [4.9, -2.9], atol=1e-6)
        assert state.step == 1

    def test_zero_gradient_leaves_parameter_fixed(self):
        params = np.array([1.5])
        adam_step(params, np.array([0.0]), _adam_state(1), lr=0.1)
        np.testing.assert_allclose(params, [1.5])

    def test_steps_are_deterministic(self):
        def run():
            params = np.random.default_rng(3).normal(size=15)
            state = _adam_state(15)
            for step in range(5):
                adam_step(params, np.full(15, 0.1 * (step + 1)), state, lr=1e-2)
            return params

        assert run().tobytes() == run().tobytes()

    def test_state_tracks_moments_per_parameter(self):
        state = _adam_state(3)
        adam_step(np.zeros(3), np.array([1.0, 0.0, -2.0]), state, lr=1e-3)
        np.testing.assert_allclose(state.m, [0.1, 0.0, -0.2])
        np.testing.assert_allclose(state.v, [0.001, 0.0, 0.004])

    def test_size_mismatch_raises(self):
        params = np.zeros(2)
        state = _adam_state(2)
        with pytest.raises(ContractError, match="for 2 parameters"):
            adam_step(params, np.zeros(3), state, lr=1e-3)
        with pytest.raises(ContractError, match="for 2 parameters"):
            adam_step(params, np.zeros(2), _adam_state(1), lr=1e-3)
        assert state.step == 0


class TestClipGradients:
    """Global-norm clipping shared by every optimizer step; the caller gives
    each tensor's sum of squares."""

    def test_returns_preclip_norm_and_rescales(self):
        grads = np.array([3.0, 4.0])
        norm = clip_gradients(grads, [9.0, 16.0], max_norm=1.0)
        assert norm == 5.0
        np.testing.assert_allclose(np.sqrt(np.sum(grads * grads)), 1.0)
        np.testing.assert_allclose(grads, [0.6, 0.8])

    def test_small_gradients_untouched(self):
        grads = np.array([0.3, 0.4])
        norm = clip_gradients(grads, [0.25], max_norm=1.0)
        np.testing.assert_allclose(norm, 0.5)
        np.testing.assert_allclose(grads, [0.3, 0.4])

    def test_nonpositive_max_norm_disables_clipping(self):
        grads = np.array([30.0, 40.0])
        norm = clip_gradients(grads, [900.0, 1600.0], max_norm=0.0)
        assert norm == 50.0
        np.testing.assert_allclose(grads, [30.0, 40.0])


class TestTrainingVocab:
    """Vocabulary assembly over training text plus chain surface forms."""

    @pytest.fixture()
    def toy(self):
        chains = ChainSet(
            charge="toyoffense",
            chains=[chain_from_text("takes goods", "minor case only",
                                    SentencingRange(6, 24, "toy"), "Provision 1")],
        )
        record = CaseRecord(case_id="t-0", fact="goods were taken quietly",
                            charge="toyoffense", opinion="the court orders 7 months.",
                            sentence_months=7, sentencing_span=None, defendant="Wang Lei")
        return [record], {"toyoffense": chains}

    def test_contains_training_text_and_chain_text(self, toy):
        records, lib = toy
        vocab = training_vocab(records, lib)
        for token in ("goods", "quietly", "orders", "takes", "minor"):
            assert token in vocab

    def test_every_range_numeral_is_expressible(self, toy):
        records, lib = toy
        vocab = training_vocab(records, lib)
        for months in range(6, 25):
            assert str(months) in vocab
        # numerals outside every range stay out unless text used them
        assert "4999" not in vocab

    def test_includes_calendar_days_and_name_pool(self, toy):
        records, lib = toy
        vocab = training_vocab(records, lib)
        for day in (1, 9, 28):
            assert str(day) in vocab
        assert "Wang" in vocab

    def test_specials_occupy_reserved_ids(self, toy):
        records, lib = toy
        vocab = training_vocab(records, lib)
        assert vocab["<pad>"] == 0
        assert vocab["<unk>"] == 1
        assert vocab["<eos>"] == 2


class TestTrainLoop:
    """End-to-end optimization on a small synthetic split."""

    def test_loss_decreases_over_epochs(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=3))
        assert len(result.log_rows) == 3
        assert result.log_rows[-1]["loss_total"] < result.log_rows[0]["loss_total"]

    def test_log_rows_carry_heldout_metrics(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=1))
        row = result.log_rows[0]
        assert row["epoch"] == 1
        assert isinstance(row["heldout_mae"], float)
        assert isinstance(row["heldout_rmse"], float)
        assert row["heldout_mae"] <= row["heldout_rmse"]

    def test_same_seed_reproduces_log_exactly(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        first = train(parts, library, _tiny_cfg(epochs=2))
        second = train(parts, library, _tiny_cfg(epochs=2))
        assert first.log_rows == second.log_rows
        for name, tensor in first.model.params.items():
            np.testing.assert_array_equal(tensor.data, second.model.params[name].data)

    def test_checkpoint_does_not_depend_on_the_parameter_order(self, driving_corpus, library,
                                                               tmp_path, monkeypatch):
        """A model holding its parameters in another order (a loaded one holds
        them sorted by name) trains to the same checkpoint bytes."""
        parts = split(driving_corpus, 0.8, seed=0)
        cfg = _tiny_cfg(epochs=2, max_gen_len=8)
        train(parts, library, cfg, checkpoint_path=tmp_path / "built.zip")

        def build_reversed(*args):
            model = build_model(*args)
            model.params = dict(reversed(model.params.items()))
            return model

        monkeypatch.setattr(training_module, "build_model", build_reversed)
        train(parts, library, cfg, checkpoint_path=tmp_path / "reversed.zip")
        assert (tmp_path / "built.zip").read_bytes() == (tmp_path / "reversed.zip").read_bytes()

    def test_seed_changes_trajectory(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        a = train(parts, library, _tiny_cfg(epochs=1, seed=0))
        b = train(parts, library, _tiny_cfg(epochs=1, seed=1))
        assert a.log_rows != b.log_rows

    def test_no_chains_arm_trains_and_differs(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        with_chains = train(parts, library, _tiny_cfg(epochs=1))
        without = train(parts, library, _tiny_cfg(epochs=1, use_chains=False))
        assert with_chains.log_rows != without.log_rows

    def test_beta_zero_makes_total_equal_reasoning(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=1, beta=0.0))
        row = result.log_rows[0]
        np.testing.assert_allclose(row["loss_total"], row["loss_reasoning"])

    def test_missing_charge_requires_chains(self, driving_corpus):
        parts = split(driving_corpus, 0.8, seed=0)
        with pytest.raises(ConfigurationError, match="dangerous_driving"):
            train(parts, {}, _tiny_cfg(epochs=1))
        result = train(parts, {}, _tiny_cfg(epochs=1, use_chains=False))
        assert len(result.log_rows) == 1

    def test_dropout_runs_repeat_byte_for_byte(self, driving_corpus, library, tmp_path):
        """Two same-seed trainings with dropout write identical checkpoints and
        logs, and the dropout draws change the trajectory."""
        parts = split(driving_corpus, 0.8, seed=0)
        outputs = []
        for run, dropout in (("a", 0.1), ("b", 0.1), ("c", 0.0)):
            ckpt, log = tmp_path / f"{run}.zip", tmp_path / f"{run}.csv"
            train(parts, library, _tiny_cfg(dropout=dropout, max_gen_len=8),
                  checkpoint_path=ckpt, log_path=log)
            outputs.append((ckpt.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] != outputs[2][1]

    def test_one_causal_mask_table_no_larger_than_the_longest_sequence(
            self, driving_corpus, library, monkeypatch):
        """After training and decoding, the decoder holds one mask array, as
        long as the longest sequence it ran with a mask.  A one-row decode
        step sees every key and takes no mask."""
        monkeypatch.setattr(model_module, "_CAUSAL", np.zeros((0, 0)))
        lengths = []
        original = model_module.decoder_forward

        def recording(x, params, cfg, first_row=0, caches=None):
            if x.shape[0] > 1:
                lengths.append((caches[0].used if caches else 0) + x.shape[0])
            return original(x, params, cfg, first_row, caches)

        monkeypatch.setattr(model_module, "decoder_forward", recording)
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=1, max_gen_len=120))
        decode_case(result.model, parts.train[0], library["dangerous_driving"], mode="top-k")
        held = list(vars(model_module).values())
        held += [v for d in held if isinstance(d, dict) for v in d.values()]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is model_module._CAUSAL
        assert model_module._CAUSAL.shape == (max(lengths), max(lengths))

    def test_empty_training_split_raises(self, library):
        with pytest.raises(ContractError):
            train(CorpusSplit(train=[], test=[], seed=0), library, _tiny_cfg())

    def test_eval_every_skips_intermediate_epochs(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=3, eval_every=2, max_gen_len=20))
        maes = [row["heldout_mae"] for row in result.log_rows]
        assert maes[0] is None
        assert isinstance(maes[1], float)
        assert isinstance(maes[2], float)  # the final epoch always evaluates

    @pytest.mark.parametrize("fault", ["nan_parameter", "loss_only", "norm_only"])
    def test_nonfinite_loss_stops_before_the_optimizer(self, driving_corpus, library,
                                                      tmp_path, monkeypatch, fault):
        """A NaN-poisoned parameter stops training before Adam; so does a
        non-finite loss with a finite norm, and a non-finite norm alone."""
        parts = split(driving_corpus, 0.8, seed=0)
        build_model = training_module.build_model
        clip_gradients = training_module.clip_gradients
        built = []
        states = []

        def model_under_test(*args, **kwargs):
            model = build_model(*args, **kwargs)
            if fault != "norm_only":
                model.params["dec.out.b"].data[3] = np.nan
            built.append((model, {n: t.data.copy() for n, t in model.params.items()}))
            return model

        def reported_norm(grads, squares, max_norm):
            norm = clip_gradients(grads, squares, max_norm)
            return {"nan_parameter": norm, "loss_only": 1.0, "norm_only": np.inf}[fault]

        def recorded_adam_state(*args):
            states.append(AdamState(*args))
            return states[-1]

        monkeypatch.setattr(training_module, "build_model", model_under_test)
        monkeypatch.setattr(training_module, "clip_gradients", reported_norm)
        monkeypatch.setattr(training_module, "AdamState", recorded_adam_state)
        ckpt = tmp_path / "model.zip"
        with pytest.raises(EvaluationError, match="epoch 1, step 1:"):
            train(parts, library, _tiny_cfg(), checkpoint_path=ckpt)
        assert multiprocessing.active_children() == []
        (state,) = states
        assert state.step == 0 and not state.m.any() and not state.v.any()
        ((model, before),) = built
        for name, t in model.params.items():  # both halves of the arena
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)
        assert not ckpt.exists()

    def test_eval_every_must_be_positive(self):
        with pytest.raises(ContractError):
            _tiny_cfg(eval_every=0)

    def test_csv_log_matches_rows(self, driving_corpus, library, tmp_path):
        parts = split(driving_corpus, 0.8, seed=0)
        log_path = tmp_path / "train.csv"
        result = train(parts, library, _tiny_cfg(epochs=2), log_path=log_path)
        with open(log_path, newline="") as fh:
            reader = list(csv.reader(fh))
        assert reader[0] == LOG_HEADER
        assert len(reader) == 1 + 2
        for text_row, row in zip(reader[1:], result.log_rows):
            assert int(text_row[0]) == row["epoch"]
            np.testing.assert_allclose(float(text_row[1]), row["loss_total"], atol=1e-6)
            np.testing.assert_allclose(float(text_row[4]), row["heldout_mae"], atol=1e-6)

    def test_csv_blank_heldout_when_no_test_split(self, driving_corpus, library, tmp_path):
        parts = CorpusSplit(train=driving_corpus[:2], test=[], seed=0)
        log_path = tmp_path / "train.csv"
        result = train(parts, library, _tiny_cfg(epochs=1), log_path=log_path)
        assert result.log_rows[0]["heldout_mae"] is None
        with open(log_path, newline="") as fh:
            reader = list(csv.reader(fh))
        assert reader[1][4] == ""
        assert reader[1][5] == ""

    def test_checkpoint_written_and_loadable(self, driving_corpus, library, tmp_path):
        parts = split(driving_corpus, 0.8, seed=0)
        ckpt = tmp_path / "model.ckpt"
        cfg = _tiny_cfg(epochs=2)
        result = train(parts, library, cfg, checkpoint_path=ckpt)
        loaded, extra = load_checkpoint(ckpt)
        assert extra["epoch"] == 2
        assert extra["train_config"] == cfg.to_dict()
        for name, tensor in result.model.params.items():
            np.testing.assert_array_equal(tensor.data, loaded.params[name].data)

    def test_returned_model_holds_what_a_loaded_one_holds(self, driving_corpus, library,
                                                          monkeypatch, tmp_path):
        """No per-tensor gradient outlives a step in either process (a
        leftover one in the worker comes back as its share's error), the
        returned model keeps no training memo, and it decodes what the same
        model does after a save/load round trip."""
        share = training_module._share

        def checking(batch, scored, model, *rest):
            terms = share(batch, scored, model, *rest)
            left = sorted(name for name, t in model.params.items() if t.grad is not None)
            if left:
                raise AssertionError(f"process {os.getpid()} kept .grad on {left}")
            return terms

        monkeypatch.setattr(training_module, "_share", checking)
        parts = split(driving_corpus, 0.8, seed=0)
        ckpt = tmp_path / "model.ckpt"
        result = train(parts, library, _tiny_cfg(epochs=2, batch_size=2), checkpoint_path=ckpt)
        model = result.model
        assert all(t.grad is None for t in model.params.values())
        assert model.table._ids == {} and model.table.targets == {}
        loaded, _ = load_checkpoint(ckpt)
        chain_map = charge_chains(library, sorted({rec.charge for rec in parts.test}), True)
        got, want = ([out.token_ids for out in decode_cases(m, parts.test, chain_map, max_len=40)]
                     for m in (model, loaded))
        assert parts.test and got == want


class TestWorker:
    """Each step of two or more cases is split with one forked worker, which
    lives exactly as long as ``train``."""

    def _alive_at_each_step(self, monkeypatch):
        alive = []
        adam = training_module.adam_step

        def counting(*args):
            alive.append(len(multiprocessing.active_children()))
            return adam(*args)

        monkeypatch.setattr(training_module, "adam_step", counting)
        return alive

    @pytest.mark.parametrize("batch_size, workers", [(2, 1), (1, 0)])
    def test_one_worker_lives_only_while_train_runs(self, driving_corpus, library, monkeypatch,
                                                    batch_size, workers):
        """One worker is alive at every step and none after ``train``
        returns; a batch of one case never leaves the main process, so
        one-case batches start no worker."""
        alive = self._alive_at_each_step(monkeypatch)
        parts = split(driving_corpus, 0.8, seed=0)
        train(parts, library, _tiny_cfg(epochs=1, batch_size=batch_size))
        assert alive and set(alive) == {workers}
        assert multiprocessing.active_children() == []

    def test_openblas_runs_on_one_thread_only_while_the_worker_lives(
            self, driving_corpus, library, monkeypatch):
        blas = training_module._openblas_threads()
        if blas is None:
            pytest.skip("numpy is not linked to OpenBLAS")
        before = blas[0]()
        seen = []
        adam = training_module.adam_step

        def counting(*args):
            seen.append(blas[0]())
            return adam(*args)

        monkeypatch.setattr(training_module, "adam_step", counting)
        train(split(driving_corpus, 0.8, seed=0), library, _tiny_cfg(epochs=1))
        assert set(seen) == {1}
        assert blas[0]() == before

    def test_too_long_case_in_the_worker_share_raises_as_joint_loss_does(
            self, driving_corpus, library, monkeypatch):
        """A case too long for the context, placed in the worker's share of
        the one batch, raises the CapacityError that ``joint_loss`` raises
        for it, in the main process, and leaves no process behind."""
        parts = split(driving_corpus, 0.8, seed=0)
        cases = list(parts.train)
        cfg = _tiny_cfg(epochs=1, batch_size=len(cases))
        order = np.random.default_rng([cfg.seed, 202, 1]).permutation(len(cases))
        worker_share = order[(len(cases) + 1) // 2:]
        long = cases[worker_share[-1]]
        cases[worker_share[-1]] = CaseRecord(
            case_id=long.case_id, fact=long.fact + " the car" * cfg.context, charge=long.charge,
            opinion=long.opinion, sentence_months=long.sentence_months,
            sentencing_span=long.sentencing_span, defendant=long.defendant)
        built = []
        rows_seen = []
        build_model = training_module.build_model
        add_positions = model_module.add_positions

        def recording_build(*args):
            built.append(build_model(*args))
            return built[-1]

        def recording_positions(x, *args):
            rows_seen.append(x.shape[0])  # the main process's calls only
            return add_positions(x, *args)

        monkeypatch.setattr(training_module, "build_model", recording_build)
        monkeypatch.setattr(model_module, "add_positions", recording_positions)
        with pytest.raises(CapacityError) as raised:
            train(CorpusSplit(train=cases, test=[], seed=0), library, cfg)
        assert multiprocessing.active_children() == []
        assert rows_seen and max(rows_seen) <= cfg.context
        with pytest.raises(CapacityError) as alone:
            joint_loss([(cases[worker_share[-1]], library[long.charge])], built[0])
        assert str(raised.value) == str(alone.value)

    def test_one_case_batch_runs_in_the_main_process_as_joint_loss(
            self, driving_corpus, library, monkeypatch):
        """Five cases at batch size 4 end each epoch in a one-case batch
        while the worker lives.  That step is not split, and its gradients,
        loss terms and generator state are those of ``joint_loss`` over the
        batch, bit for bit."""
        steps = []
        step = training_module._step

        def checking_step(chunk, pairs, model, cfg, rng, arena, worker):
            steps.append((len(chunk), worker is not None, len(multiprocessing.active_children())))
            if len(chunk) > 1:
                return step(chunk, pairs, model, cfg, rng, arena, worker)
            want_rng = copy.deepcopy(rng)
            squares, terms = step(chunk, pairs, model, cfg, rng, arena, worker)
            with Tape() as tape:
                tape.watch(*model.params.values())
                losses = joint_loss([pairs[i] for i in chunk], model, cfg.alpha, cfg.beta,
                                    dropout_rate=cfg.dropout, rng=want_rng)
                backward(tape, losses.total)
            assert terms == (losses.total.item(), losses.reasoning.item(),
                             losses.sentencing.item())
            for name, grad in _by_name(arena.grads, model).items():
                assert grad.tobytes() == model.params[name].grad.tobytes(), name
            assert squares == [float(np.sum(model.params[name].grad * model.params[name].grad))
                               for name in sorted(model.params)]
            assert rng.bit_generator.state == want_rng.bit_generator.state
            return squares, terms

        monkeypatch.setattr(training_module, "_step", checking_step)
        cases = list(driving_corpus)
        assert len(cases) == 5
        train(CorpusSplit(train=cases, test=[], seed=0), library,
              _tiny_cfg(epochs=2, batch_size=4, dropout=0.1))
        assert steps == [(4, True, 1), (1, False, 1)] * 2

    def _dies_in(self, name, driving_corpus, library, monkeypatch, tmp_path, after=0.0):
        """Patch ``name`` before the fork so that only the worker exits in
        it, ``after`` seconds in: ``train`` raises ChildProcessError and
        leaves no process behind, and ``lexchain train`` exits 3."""
        main_pid = os.getpid()
        original = getattr(training_module, name)

        def dying(*args):
            if os.getpid() != main_pid:
                time.sleep(after)
                os._exit(1)
            return original(*args)

        monkeypatch.setattr(training_module, name, dying)
        with pytest.raises(ChildProcessError):
            train(split(driving_corpus, 0.8, seed=0), library, _tiny_cfg(epochs=1))
        assert multiprocessing.active_children() == []

        monkeypatch.delenv(CONFIG_ENV, raising=False)
        corpus = tmp_path / "corpus.jsonl"
        save_jsonl(driving_corpus, corpus)
        assert main(["train", "--corpus", str(corpus), "--chains", str(default_chains_dir()),
                     "--checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1",
                     "--batch-size", "2", "--d", "16", "--heads", "2", "--dec-heads", "2",
                     "--layers", "1", "--context", "224"]) == 3
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "m.ckpt").exists()

    def test_a_worker_that_dies_in_its_share_ends_training(
            self, driving_corpus, library, monkeypatch, tmp_path):
        self._dies_in("_share", driving_corpus, library, monkeypatch, tmp_path)

    def test_a_worker_that_dies_with_a_message_unread_ends_training(
            self, driving_corpus, library, monkeypatch, tmp_path):
        """The main process's "gradients in place" message reaches the worker
        before it exits, so the pipe is reset rather than closed."""
        self._dies_in("_share", driving_corpus, library, monkeypatch, tmp_path, after=0.5)

    def test_a_worker_that_dies_in_its_adam_half_ends_training(
            self, driving_corpus, library, monkeypatch, tmp_path):
        self._dies_in("_adam", driving_corpus, library, monkeypatch, tmp_path)

    def test_parameters_stay_in_the_arena(self, driving_corpus, library, monkeypatch):
        """``train`` moves the parameters into the shared arena before the
        fork, and nothing rebinds them: the returned model's parameters are
        views of the arena that both processes updated."""
        arenas = []
        arena_type = training_module._Arena

        def recording(params):
            arenas.append(arena_type(params))
            return arenas[-1]

        monkeypatch.setattr(training_module, "_Arena", recording)
        result = train(split(driving_corpus, 0.8, seed=0), library, _tiny_cfg(epochs=1))
        (arena,) = arenas
        assert 0 < arena.half < arena.params.size
        for name, t in result.model.params.items():
            assert np.shares_memory(t.data, arena.params), name

    def test_worker_exits_when_the_main_process_dies(self, tmp_path):
        """The worker holds no copy of the main process's pipe end, so the
        pipe closes when the main process dies without cleaning up, and the
        worker exits."""
        script = (
            "import os, sys\n"
            "from lexchain.training import TrainConfig, _Arena, _Worker, _gradcheck_fixture\n"
            "model, batch = _gradcheck_fixture(8, 2, 1, 0)\n"
            "worker = _Worker(_Arena(model.params), model, batch, TrainConfig())\n"
            "print(worker.process.pid, flush=True)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(training_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              text=True, env=env) as main_process:
            pid = int(main_process.stdout.readline())
            assert main_process.wait(timeout=60) == 0
        stat = Path(f"/proc/{pid}/stat")
        deadline = time.monotonic() + 30
        while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("the worker outlived the main process")
            time.sleep(0.05)


class TestMemorization:
    """A single training case is memorized to near-zero loss and reproduced
    verbatim by greedy decoding."""

    def test_single_case_memorized(self, library):
        from lexchain.tokenizer import tokenize
        small = {"dangerous_driving": library["dangerous_driving"]}
        corpus = synthesize_corpus(seed=0, library=small, cases_per_charge=4)
        case = min(corpus, key=lambda r: len(tokenize(r.opinion)))
        parts = CorpusSplit(train=[case], test=[], seed=0)
        cfg = _tiny_cfg(lr=1e-2, epochs=120, batch_size=1)
        result = train(parts, library, cfg)
        assert result.log_rows[-1]["loss_total"] < 0.05
        out = decode_case(result.model, case, library["dangerous_driving"], max_len=120)
        assert out.text == case.opinion


class TestHeldoutEvaluation:
    """Decoding helpers shared by the trainer and the ablation harness."""

    def test_heldout_predictions_keyed_by_case(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=1))
        chain_map = {"dangerous_driving": library["dangerous_driving"]}
        opinions = heldout_predictions(result.model, parts.test, chain_map, max_len=40)
        assert set(opinions) == {rec.case_id for rec in parts.test}
        assert all(isinstance(text, str) for text in opinions.values())

    def test_each_charge_is_encoded_once(self, library, monkeypatch):
        """Decoding 24 cases of 12 charges encodes 12 chain sets, one per
        charge, and gives the opinions of decoding case by case."""
        records = synthesize_corpus(seed=3, library=library, cases_per_charge=2)
        charges = sorted({rec.charge for rec in records})
        assert len(records) == 24 and len(charges) == 12
        model = build_model(training_vocab(records, library), charges,
                            ModelConfig(d=8, enc_heads=2, dec_heads=2, layers=1, context=224),
                            seed=0)
        chain_map = {charge: library[charge] for charge in charges}
        encoded = []
        original = model_module.encode_chain_set

        def counting(cs, *args, **kwargs):
            encoded.append(cs.charge)
            return original(cs, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode_chain_set", counting)
        opinions = heldout_predictions(model, records, chain_map, max_len=8)
        assert sorted(encoded) == charges
        tokens = [out.token_ids for out in decode_cases(model, records, chain_map, max_len=8)]
        assert len(encoded) == 24
        one_by_one = [decode_case(model, rec, chain_map[rec.charge], max_len=8) for rec in records]
        assert len(encoded) == 48
        assert tokens == [out.token_ids for out in one_by_one]
        assert opinions == {rec.case_id: out.text for rec, out in zip(records, one_by_one)}

    def test_evaluate_heldout_without_a_heldout_charge_chains(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=1, max_gen_len=8))
        with pytest.raises(ConfigurationError, match=r"no chain sets for charges: \['dangerous_driving'\]"):
            evaluate_heldout(result, parts, {})

    def test_charge_chains(self, library):
        charges = ["robbery", "theft"]
        assert charge_chains(library, charges, True) == {c: library[c] for c in charges}
        assert charge_chains({}, charges, False) == {"robbery": None, "theft": None}
        with pytest.raises(ConfigurationError, match=r"charges: \['piracy'\]"):
            charge_chains(library, ["piracy", "theft"], True)

    @pytest.mark.parametrize("path", ["train", "evaluate_heldout", "screen_corpus",
                                      "synthesize_corpus", "lexchain generate", "lexchain screen"])
    def test_every_path_names_every_charge_without_a_chain_set(self, library, tmp_path, capsys,
                                                               path):
        """Each path from a case's charge to its chain set goes through
        ``charge_chains``: one ConfigurationError names both missing charges,
        and the command line exits 2 with it."""
        charges = ["fraud", "robbery", "theft"]
        corpus = synthesize_corpus(seed=0, library=library, charges=charges, cases_per_charge=2)
        parts = split(corpus, 0.5, seed=0)
        only_robbery = {"robbery": library["robbery"]}
        want = r"no chain sets for charges: \['fraud', 'theft'\]"
        model = build_model(build_vocab([]), charges,
                            ModelConfig(d=4, enc_heads=1, dec_heads=1, layers=1, context=8), 0)
        if path.startswith("lexchain"):
            chains_dir = tmp_path / "chains"
            chains_dir.mkdir()
            (chains_dir / "robbery.json").write_text(serialize_chain_set(library["robbery"]),
                                                     encoding="utf-8")
            save_jsonl(corpus, tmp_path / "corpus.jsonl")
            save_checkpoint(tmp_path / "model.zip", model)
            command = (["generate", "--checkpoint", str(tmp_path / "model.zip")]
                       if path == "lexchain generate" else ["screen"])
            assert main(command + ["--corpus", str(tmp_path / "corpus.jsonl"),
                                   "--chains", str(chains_dir)]) == 2
            assert re.search(want, capsys.readouterr().err)
            return
        calls = {
            "train": lambda: train(parts, only_robbery, _tiny_cfg()),
            "evaluate_heldout": lambda: evaluate_heldout(TrainResult(model, [], _tiny_cfg()),
                                                         parts, only_robbery),
            "screen_corpus": lambda: screen_corpus(
                corpus, {rec.case_id: rec.opinion for rec in corpus}, only_robbery),
            "synthesize_corpus": lambda: synthesize_corpus(seed=0, library=only_robbery,
                                                           charges=charges),
        }
        with pytest.raises(ConfigurationError, match=want):
            calls[path]()

    def test_evaluate_heldout_reports_metrics(self, driving_corpus, library):
        parts = split(driving_corpus, 0.8, seed=0)
        result = train(parts, library, _tiny_cfg(epochs=1, max_gen_len=40))
        report = evaluate_heldout(result, parts, library)
        for key in ("mae", "rmse", "rouge1", "rougeL", "bleu1", "bleu4"):
            assert key in report
        assert report["mae"] <= report["rmse"]


class TestRunAblation:
    """Structure of the chain/no-chain twin-run report."""

    def test_report_structure(self, library):
        small = {"dangerous_driving": library["dangerous_driving"]}
        corpus = synthesize_corpus(seed=1, library=small, cases_per_charge=5)
        base = _tiny_cfg(epochs=1, max_gen_len=40)
        report = run_ablation(corpus, small, base, seeds=(0,), ratio=0.8)
        assert len(report["runs"]) == 1
        run = report["runs"][0]
        assert run["seed"] == 0
        for arm in ("chains", "no_chains"):
            for key in ("mae", "rmse", "rougeL"):
                assert isinstance(run[arm][key], float)
                assert report["mean"][arm][key] == run[arm][key]


class TestFullPipelineGradcheck:
    """Finite differences through encoder, decoder, and the joint objective."""

    def test_analytic_gradients_match_finite_differences(self):
        err, scalars = gradcheck_full_pipeline(seed=0, d=8, heads=2, layers=1)
        assert scalars > 1000
        assert err < 1e-4


def _acceptance_batch(library):
    """A model at the acceptance config (d=32, 4+4 heads, 2 layers, seed 0)
    and a fixed batch of four cases of four charges."""
    parts = split(synthesize_corpus(seed=0, library=library, cases_per_charge=20), 0.8, seed=0)
    cfg = TrainConfig(lr=3e-3, batch_size=4, seed=0, dropout=0.0, heads=4, dec_heads=4, d=32,
                      layers=2, context=256)
    charges = sorted({rec.charge for rec in parts.train + parts.test})
    model = build_model(training_vocab(parts.train, library), charges, cfg.model_config(), 0)
    batch = [(rec, library[rec.charge]) for rec in parts.train[::len(parts.train) // 4]]
    assert len({rec.charge for rec, _ in batch}) == 4
    return model, batch


def _joint_loss_gradients(model, batch):
    with Tape() as tape:
        tape.watch(*model.params.values())
        backward(tape, joint_loss(batch, model).total)
    return {name: t.grad for name, t in model.params.items()}


def _dense_gather_rows(table, ids):
    """``gather_rows`` with a dense gradient per gather: a zero table with the
    rows added at their ids, as each gather formed before ``backward``
    scattered them once per tensor."""
    idx = np.asarray(ids, dtype=np.int64)

    def bw(g):
        dense = np.zeros_like(table.data)
        np.add.at(dense, idx, g)
        return (dense,)

    return _record(Tensor(table.data[idx]), (table,), bw)


def test_one_scatter_per_table_matches_a_dense_gradient_per_gather(library, monkeypatch):
    """The embedding table (gathered for chain components, facts and
    opinions, with repeated ids), the position table and the decoder's
    last-block row selection all get the gradient of one dense scatter per
    gather."""
    model, batch = _acceptance_batch(library)
    scattered = _joint_loss_gradients(model, batch)
    gathered = []

    def dense_gather_rows(table, ids):
        gathered.append(table.name)
        return _dense_gather_rows(table, ids)

    monkeypatch.setattr(tensor_module, "gather_rows", dense_gather_rows)
    dense = _joint_loss_gradients(model, batch)
    assert {"embed", "pos", None} <= set(gathered)  # None: the decoder's rows
    for name, grad in scattered.items():
        np.testing.assert_allclose(grad, dense[name], rtol=0, atol=1e-12, err_msg=name)
    assert np.abs(scattered["embed"]).max() > 0 and np.abs(scattered["pos"]).max() > 0


def test_backward_twice_gives_byte_identical_gradients(library):
    model, batch = _acceptance_batch(library)
    first = _joint_loss_gradients(model, batch)
    second = _joint_loss_gradients(model, batch)
    for name, grad in first.items():
        assert grad.tobytes() == second[name].tobytes(), name


def test_joint_loss_records_a_fixed_number_of_tape_nodes(library):
    """Tooling guard: a fixed 4-case batch at the acceptance config (d=32,
    4+4 heads, 2 layers, seed 0; four cases of four charges) records this many
    tape nodes.  A change that records more or fewer updates the count here
    and reports it."""
    model, batch = _acceptance_batch(library)
    with Tape() as tape:
        tape.watch(*model.params.values())
        joint_loss(batch, model)
    assert len(tape.nodes) == 199


@pytest.mark.parametrize("use_chains, dropout", [(True, 0.0), (False, 0.0), (True, 0.1)])
def test_two_share_step_matches_joint_loss(library, use_chains, dropout):
    """The step split between the main process and the worker gives the
    gradients and loss terms of ``joint_loss`` over the whole batch, and
    draws the same dropout masks from the same generator state.  Only the
    order of the sums differs, so each gradient agrees to rtol 1e-12 with
    an absolute floor of 1e-12 of its largest entry (an entry summed from
    terms that cancel can differ more in relative terms).  The second step
    follows an optimizer update of both halves, so the worker must score
    from the live parameters."""
    model, batch = _acceptance_batch(library)
    batch = [(rec, chains if use_chains else None) for rec, chains in batch]
    cfg = TrainConfig(dropout=dropout)
    rng = np.random.default_rng(7)
    split_rng = np.random.default_rng(7)
    arena = training_module._Arena(model.params)
    worker = training_module._Worker(arena, model, batch, cfg)
    try:
        for _ in range(2):
            with Tape() as tape:
                tape.watch(*model.params.values())
                losses = joint_loss(batch, model, cfg.alpha, cfg.beta, dropout_rate=dropout,
                                    rng=rng)
                backward(tape, losses.total)
            want = {name: t.grad for name, t in model.params.items()}
            squares, terms = training_module._step(np.arange(len(batch)), batch, model, cfg,
                                                   split_rng, arena, worker)
            assert split_rng.random() == rng.random()
            np.testing.assert_allclose(
                terms, [losses.total.item(), losses.reasoning.item(), losses.sentencing.item()],
                rtol=1e-12)
            got = _by_name(arena.grads, model)
            assert sorted(got) == sorted(want)
            for name, grad in want.items():
                np.testing.assert_allclose(got[name], grad, rtol=1e-12,
                                           atol=1e-12 * np.abs(grad).max(), err_msg=name)
            assert squares == [float(np.sum(got[name] * got[name])) for name in sorted(got)]
            assert (np.abs(want["enc.fusion.W"]).max() > 0) == use_chains
            clip_gradients(arena.grads, squares, cfg.grad_clip)
            adam_step(arena.params, arena.grads, arena.adam, cfg.lr, worker)
    finally:
        worker.close()


def _per_name_clip(grads, max_norm):
    """Clipping over one array per parameter name, as training clipped
    before the flat arena: the reference for the flat path."""
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] * grads[name]))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


def _per_name_adam(params, grads, m, v, step, lr):
    """Adam over one array per parameter name, as training updated before
    the flat arena: the reference for the flat path."""
    c1 = 1.0 - training_module.ADAM_BETA1 ** step
    c2 = 1.0 - training_module.ADAM_BETA2 ** step
    for name in sorted(params):
        g = grads[name]
        m[name] *= training_module.ADAM_BETA1
        m[name] += (1.0 - training_module.ADAM_BETA1) * g
        v[name] *= training_module.ADAM_BETA2
        v[name] += (1.0 - training_module.ADAM_BETA2) * g * g
        update = lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + training_module.ADAM_EPS)
        params[name] = params[name] - update


def test_two_half_update_matches_the_per_name_update_bit_for_bit(library):
    """Five split steps over the acceptance model, clipped and not, leave
    the parameters the per-name reference reaches from the same two shares'
    gradients (``mine + theirs``, then clip, then Adam), bit for bit."""
    model, batch = _acceptance_batch(library)
    cfg = TrainConfig(lr=3e-3, dropout=0.1)
    want = {name: t.data.copy() for name, t in model.params.items()}
    m = {name: np.zeros_like(p) for name, p in want.items()}
    v = {name: np.zeros_like(p) for name, p in want.items()}
    rng = np.random.default_rng(7)
    clipped = []
    with training_module.one_blas_thread():
        arena = training_module._Arena(model.params)
        worker = training_module._Worker(arena, model, batch, cfg)
        try:
            for step, max_norm in enumerate([1e-3, 1e9, 1.0, 0.0, 1e-3], start=1):
                grads = {}
                for scored in (slice(2), slice(2, None)):
                    with Tape() as tape:
                        tape.watch(*model.params.values())
                        losses = joint_loss(batch, model, cfg.alpha, cfg.beta,
                                            dropout_rate=cfg.dropout, rng=copy.deepcopy(rng),
                                            scored=scored)
                        backward(tape, losses.total)
                    for name, t in model.params.items():
                        grads[name] = grads[name] + t.grad if name in grads else t.grad
                squares, _ = training_module._step(np.arange(len(batch)), batch, model, cfg, rng,
                                                   arena, worker)
                norm = clip_gradients(arena.grads, squares, max_norm)
                assert norm == _per_name_clip(grads, max_norm)
                clipped.append(max_norm > 0 and norm > max_norm)
                adam_step(arena.params, arena.grads, arena.adam, cfg.lr, worker)
                _per_name_adam(want, grads, m, v, step, cfg.lr)
                for name, t in model.params.items():
                    assert t.data.tobytes() == want[name].tobytes(), (step, name)
        finally:
            worker.close()
    assert True in clipped and False in clipped
