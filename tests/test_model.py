"""Combined sequence, decoder, joint loss, generation, and checkpoints."""

import copy
import io
import json
import zipfile

import numpy as np
import pytest

from lexchain import model as model_module
from lexchain.chains import ChainSet, SentencingRange, chain_from_text
from lexchain.checkpoint import load_checkpoint, save_checkpoint
from lexchain.corpus import CaseRecord
from lexchain.encoder import build_vocab, encode_chain_set
from lexchain.errors import (
    CapacityError,
    ConfigurationError,
    ContractError,
    ShapeError,
    ValidationError,
)
from lexchain.model import (
    MASK_VALUE,
    ModelConfig,
    add_positions,
    build_model,
    combine,
    decode_case,
    decoder_forward,
    generate,
    joint_loss,
    mark_sentencing_span,
    param_shapes,
)
from lexchain.tensor import (KVCache, Tape, Tensor, backward, concat, gather_rows, layer_norm,
                             log_likelihood_rows, tsum)


def _chain_set():
    return ChainSet(
        charge="toyoffense",
        chains=[
            chain_from_text("takes goods AND uses force", "harm done OR night time",
                            SentencingRange(6, 24, "toy-base"), "Provision 1"),
            chain_from_text("takes goods AND uses force", "minor case only",
                            SentencingRange(1, 6, "toy-light"), "Provision 1"),
        ],
    )


def _cases():
    return [
        CaseRecord(case_id="toy-0", fact="the man took goods by force at night",
                   charge="toyoffense",
                   opinion="the court orders 7 months of fixed-term imprisonment.",
                   sentence_months=7, sentencing_span=None, defendant="the man"),
        CaseRecord(case_id="toy-1", fact="goods were taken without harm",
                   charge="toyoffense",
                   opinion="the court orders 3 months of fixed-term imprisonment.",
                   sentence_months=3, sentencing_span=None, defendant="the man"),
    ]


def _np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_decoder_forward(x, data, cfg):
    """Plain-numpy oracle of the full-sequence decoder, one head at a time:
    head ``i`` uses slice ``[i]`` of every stacked attention weight."""
    rows = x.shape[0]
    dh = cfg.d // cfg.dec_heads
    mask = np.triu(np.full((rows, rows), MASK_VALUE), k=1)
    for layer in range(cfg.layers):
        h = _np_layer_norm(x, data[f"dec.{layer}.ln1.g"], data[f"dec.{layer}.ln1.b"])
        attn_out = np.zeros_like(x)
        for i in range(cfg.dec_heads):
            q = h @ data[f"dec.{layer}.attn.Wq"][i]
            k = h @ data[f"dec.{layer}.attn.Wk"][i]
            v = h @ data[f"dec.{layer}.attn.Wv"][i]
            scores = q @ k.T / np.sqrt(dh) + mask
            z = scores - scores.max(axis=1, keepdims=True)
            probs = np.exp(z)
            probs /= probs.sum(axis=1, keepdims=True)
            attn_out += (probs @ v) @ data[f"dec.{layer}.attn.Wo"][i]
        x = x + attn_out
        h2 = _np_layer_norm(x, data[f"dec.{layer}.ln2.g"], data[f"dec.{layer}.ln2.b"])
        inner = np.maximum(h2 @ data[f"dec.{layer}.ffn.W1"] + data[f"dec.{layer}.ffn.b1"], 0.0)
        x = x + inner @ data[f"dec.{layer}.ffn.W2"] + data[f"dec.{layer}.ffn.b2"]
    x = _np_layer_norm(x, data["dec.lnf.g"], data["dec.lnf.b"])
    return x @ data["dec.out.W"] + data["dec.out.b"]


def _fixture(d=16, heads=2, layers=2, context=48, seed=0):
    chains = _chain_set()
    cases = _cases()
    texts = [c.fact for c in cases] + [c.opinion for c in cases]
    for chain in chains.chains:
        texts += [chain.premise_text, chain.situation_text, chain.conclusion_text()]
    vocab = build_vocab(texts)
    cfg = ModelConfig(d=d, enc_heads=heads, dec_heads=heads, layers=layers,
                      context=context)
    model = build_model(vocab, ["toyoffense"], cfg, seed)
    return model, chains, cases


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            ModelConfig(d=10, enc_heads=3)
        with pytest.raises(ShapeError):
            ModelConfig(d=10, enc_heads=2, dec_heads=4)

    def test_positive_dimensions(self):
        with pytest.raises(ContractError):
            ModelConfig(d=0, enc_heads=1, dec_heads=1)

    def test_round_trip_dict(self):
        cfg = ModelConfig(d=8, enc_heads=2, dec_heads=2, layers=1, context=32)
        assert ModelConfig(**cfg.to_dict()) == cfg


class TestBuildModel:
    def test_same_seed_same_parameters(self):
        model_a, _, _ = _fixture(seed=5)
        model_b, _, _ = _fixture(seed=5)
        assert sorted(model_a.params) == sorted(model_b.params)
        for name in model_a.params:
            np.testing.assert_array_equal(model_a.params[name].data,
                                          model_b.params[name].data)

    def test_different_seed_differs(self):
        model_a, _, _ = _fixture(seed=0)
        model_b, _, _ = _fixture(seed=1)
        assert not np.array_equal(model_a.params["embed"].data,
                                  model_b.params["embed"].data)

    def test_embedding_table_shares_parameter(self):
        model, _, _ = _fixture()
        assert model.table.matrix is model.params["embed"]

    def test_attention_weights_stack_heads_in_draw_order(self):
        """Every parameter equals what one seeded stream gives when each weight
        is drawn in turn and each attention block's weights head by head:
        head i of a stacked weight holds head i's draw."""
        d, heads, layers, seed = 16, 4, 2, 3
        model, _, _ = _fixture(d=d, heads=heads, layers=layers, seed=seed)
        dh, scale, V = d // heads, 1.0 / np.sqrt(d), model.vocab_size
        rng = np.random.default_rng(seed)
        expected = {}

        def uniform(name, shape):
            expected[name] = rng.uniform(-scale, scale, shape)

        def constant(name, value, size):
            expected[name] = np.full(size, value)

        def attention_block(block):
            drawn = [{w: rng.uniform(-scale, scale, shape) for w, shape in (
                ("Wq", (d, dh)), ("Wk", (d, dh)), ("Wv", (d, dh)), ("Wo", (dh, d)))}
                for _ in range(heads)]
            for w in ("Wq", "Wk", "Wv", "Wo"):
                expected[f"{block}.{w}"] = np.stack([head[w] for head in drawn])

        uniform("embed", (V, d))
        uniform("pos", (model.cfg.context, d))
        attention_block("enc.attn")
        for name in ("enc.G1", "enc.G2", "enc.gate", "enc.fusion", "enc.charge.toyoffense"):
            uniform(f"{name}.W", (2 * d if name == "enc.fusion" else d, d))
            constant(f"{name}.b", 0.0, d)
        for layer in range(layers):
            block = f"dec.{layer}"
            constant(f"{block}.ln1.g", 1.0, d)
            constant(f"{block}.ln1.b", 0.0, d)
            attention_block(f"{block}.attn")
            constant(f"{block}.ln2.g", 1.0, d)
            constant(f"{block}.ln2.b", 0.0, d)
            uniform(f"{block}.ffn.W1", (d, 4 * d))
            constant(f"{block}.ffn.b1", 0.0, 4 * d)
            uniform(f"{block}.ffn.W2", (4 * d, d))
            constant(f"{block}.ffn.b2", 0.0, d)
        constant("dec.lnf.g", 1.0, d)
        constant("dec.lnf.b", 0.0, d)
        uniform("dec.out.W", (d, V))
        constant("dec.out.b", 0.0, V)
        assert sorted(model.params) == sorted(expected)
        for name, want in expected.items():
            got = model.params[name].data
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name


class TestCombine:
    def test_rows_are_chains_plus_fact_tokens(self):
        model, chains, cases = _fixture()
        encoded = encode_chain_set(chains, model.table, model.params, 2)
        combined = combine(encoded, cases[0].fact, model.table)
        l_f = len(model.table.encode(cases[0].fact))
        assert combined.shape == (encoded.n + l_f, model.cfg.d)

    def test_without_chains_only_fact_rows(self):
        model, _, cases = _fixture()
        combined = combine(None, cases[0].fact, model.table)
        assert combined.shape[0] == len(model.table.encode(cases[0].fact))

    def test_fact_rows_are_embeddings(self):
        model, _, cases = _fixture()
        combined = combine(None, cases[0].fact, model.table)
        ids = model.table.encode(cases[0].fact)
        np.testing.assert_array_equal(combined.data, model.params["embed"].data[ids])

    def test_empty_fact_rejected(self):
        model, _, _ = _fixture()
        with pytest.raises(ContractError):
            combine(None, "", model.table)


class TestPositions:
    def test_chain_rows_get_no_positions(self):
        model, chains, cases = _fixture()
        encoded = encode_chain_set(chains, model.table, model.params, 2)
        combined = combine(encoded, cases[0].fact, model.table)
        n = encoded.n
        shifted = add_positions(combined, n, model.params, model.cfg)
        np.testing.assert_array_equal(shifted.data[:n], combined.data[:n])
        expected = combined.data[n:] + model.params["pos"].data[n:combined.shape[0]]
        np.testing.assert_allclose(shifted.data[n:], expected, atol=1e-12)

    def test_overflow_raises(self):
        model, _, _ = _fixture(context=4)
        x = Tensor(np.zeros((5, model.cfg.d)))
        with pytest.raises(CapacityError):
            add_positions(x, 0, model.params, model.cfg)

    def test_all_chain_rows_is_identity(self):
        model, _, _ = _fixture()
        x = Tensor(np.ones((3, model.cfg.d)))
        out = add_positions(x, 3, model.params, model.cfg)
        np.testing.assert_array_equal(out.data, x.data)


class TestLayerNorm:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 8)) * 3.0 + 1.0
        g = rng.normal(size=8)
        b = rng.normal(size=8)
        out = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * g + b
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, _np_layer_norm(x, g, b), rtol=0, atol=1e-12)

    def test_unit_gain_zero_bias_standardizes(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 64)) * 5.0
        out = layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)


def _case_input(model, chains, record):
    """The teacher-forced decoder input of one case and its prefix length."""
    encoded = encode_chain_set(chains, model.table, model.params, model.cfg.enc_heads)
    combined = combine(encoded, record.fact, model.table)
    target = model.table.encode(record.opinion)
    x = concat([combined, gather_rows(model.table.matrix, target)], axis=0)
    return add_positions(x, encoded.n, model.params, model.cfg), combined.shape[0]


class TestDecoder:
    def test_graph_and_numpy_paths_agree(self):
        model, _, _ = _fixture()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, model.cfg.d))
        data = {k: t.data for k, t in model.params.items()}
        a = decoder_forward(Tensor(x), model.params, model.cfg).data
        b = np_decoder_forward(x.copy(), data, model.cfg)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_causality(self):
        """Perturbing row j never changes logits at rows before j."""
        model, _, _ = _fixture()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, model.cfg.d))
        base = decoder_forward(Tensor(x), model.params, model.cfg).data
        for j in range(1, 6):
            bumped = x.copy()
            # non-uniform bump: uniform shifts sit in layer norm's null space
            bumped[j, 0] += 5.0
            out = decoder_forward(Tensor(bumped), model.params, model.cfg).data
            np.testing.assert_allclose(out[:j], base[:j], atol=1e-9)
            assert not np.allclose(out[j], base[j])

    def test_forward_is_finite_under_extreme_inputs(self):
        """The finite causal mask keeps every output finite."""
        model, _, _ = _fixture()
        x = np.full((5, model.cfg.d), 40.0)
        out = decoder_forward(Tensor(x), model.params, model.cfg).data
        assert np.all(np.isfinite(out))
        assert MASK_VALUE == -1e9

    def test_context_overflow(self):
        model, _, _ = _fixture(context=4)
        with pytest.raises(CapacityError):
            decoder_forward(Tensor(np.zeros((5, model.cfg.d))), model.params, model.cfg)

    def test_first_row_returns_the_tail_rows_and_their_gradients(self):
        """Logits from ``first_row`` on, and the gradients of any scalar of
        them, equal those of the full forward sliced at that row."""
        model, chains, cases = _fixture()
        x, prefix_len = _case_input(model, chains, cases[0])
        rows = x.shape[0]
        full = decoder_forward(x, model.params, model.cfg).data
        leaves = list(model.params.values())
        for k in (1, prefix_len - 1, rows - 1):
            weights = Tensor(np.random.default_rng(k).normal(size=(rows - k, model.vocab_size)))

            def grads(first_row):
                with Tape() as tape:
                    tape.watch(*leaves)
                    logits = decoder_forward(x, model.params, model.cfg, first_row=first_row)
                    if first_row == 0:
                        logits = gather_rows(logits, np.arange(k, rows))
                    backward(tape, tsum(logits * weights))
                return logits.data, [t.grad.copy() for t in leaves]

            tail, tail_grads = grads(k)
            assert tail.shape == (rows - k, model.vocab_size)
            np.testing.assert_allclose(tail, full[k:], rtol=0, atol=1e-12)
            _, full_grads = grads(0)
            for t, a, b in zip(leaves, tail_grads, full_grads):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=t.name)

    @pytest.mark.parametrize("first_row", [-1, 7])
    def test_first_row_outside_the_rows_rejected(self, first_row):
        model, _, _ = _fixture()
        with pytest.raises(ContractError):
            decoder_forward(Tensor(np.zeros((7, model.cfg.d))), model.params, model.cfg,
                            first_row=first_row)

    def test_causal_masks_are_slices_of_one_table(self, monkeypatch):
        """Every (rows, past) mask equals the full construction and is
        C-contiguous, whether the table grows for it or was already larger,
        and one table is held throughout."""
        monkeypatch.setattr(model_module, "_CAUSAL", np.zeros((0, 0)))
        grid = [(rows, past) for rows in (1, 2, 5, 9) for past in (0, 1, 4, 11)]
        longest = 0
        for rows, past in grid + grid[::-1]:
            mask = model_module._causal_mask(rows, past)
            oracle = np.triu(np.full((rows, past + rows), MASK_VALUE), k=past + 1)
            np.testing.assert_array_equal(mask, oracle)
            assert mask.flags.c_contiguous
            longest = max(longest, past + rows)
            assert model_module._CAUSAL.shape == (longest, longest)


class TestSentencingSpan:
    def test_english_clause(self):
        text = "sentenced to 42 months of fixed-term imprisonment."
        interval = mark_sentencing_span(text)
        assert interval is not None
        toks = ["42", "months", "of", "fixed-term", "imprisonment"]
        from lexchain.tokenizer import tokenize

        assert tokenize(text)[interval[0]:interval[1]] == toks

    def test_missing_clause(self):
        assert mark_sentencing_span("no sentence appears here") is None

    def test_last_occurrence_wins(self):
        text = ("range of 36 to 120 months of fixed-term imprisonment, so "
                "sentenced to 48 months of fixed-term imprisonment.")
        interval = mark_sentencing_span(text)
        from lexchain.tokenizer import tokenize

        assert tokenize(text)[interval[0]] == "48"


def _full_row_joint_loss(batch, model, alpha=1.0, beta=1.0):
    """The joint loss as first written: logits for every row of the combined
    sequence from a decoder that queries every row in every block, then the
    log-likelihoods of the target rows and, apart, of the sentencing rows,
    each sliced from the full-row logits.  Returns (total, reasoning,
    sentencing)."""
    eos = model.table.vocab["<eos>"]
    encodings = {}
    sum_reasoning = sum_sentencing = None
    token_count = mask_count = 0
    for record, chain_set in batch:
        encoded = None
        if chain_set is not None:
            if id(chain_set) not in encodings:
                encodings[id(chain_set)] = encode_chain_set(
                    chain_set, model.table, model.params, model.cfg.enc_heads)
            encoded = encodings[id(chain_set)]
        combined = combine(encoded, record.fact, model.table)
        prefix_len = combined.shape[0]
        target = model.table.encode(record.opinion) + [eos]
        x = concat([combined, gather_rows(model.table.matrix, target[:-1])], axis=0)
        x = add_positions(x, encoded.n if encoded else 0, model.params, model.cfg)
        logits = decoder_forward(x, model.params, model.cfg)
        rows = np.arange(prefix_len - 1, prefix_len - 1 + len(target))
        case_sum = tsum(log_likelihood_rows(gather_rows(logits, rows), target))
        sum_reasoning = case_sum if sum_reasoning is None else sum_reasoning + case_sum
        token_count += len(target)
        interval = mark_sentencing_span(record.opinion)
        if interval is None:
            continue
        a, b = interval
        span_sum = tsum(log_likelihood_rows(gather_rows(logits, rows[a:b]), target[a:b]))
        sum_sentencing = span_sum if sum_sentencing is None else sum_sentencing + span_sum
        mask_count += b - a
    reasoning = sum_reasoning * (-1.0 / token_count)
    sentencing = sum_sentencing * (-1.0 / mask_count) if mask_count else Tensor(0.0)
    return alpha * reasoning + beta * sentencing, reasoning, sentencing


class TestJointLoss:
    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_matches_the_full_row_formulation(self, beta):
        """Scoring only the target rows gives the loss terms and gradients of
        scoring every row, on a batch with and without chain sets; at beta=0
        the batch also holds a case with no sentencing span."""
        model, chains, cases = _fixture()
        batch = [(cases[0], chains), (cases[1], None), (cases[1], chains)]
        if beta == 0.0:
            batch.append((CaseRecord(case_id="bare", fact="goods were taken",
                                     charge="toyoffense", opinion="the court orders nothing",
                                     sentence_months=0, sentencing_span=None,
                                     defendant="the man"), chains))
        leaves = list(model.params.values())

        def terms_and_grads(loss_fn):
            with Tape() as tape:
                tape.watch(*leaves)
                terms = loss_fn()
                backward(tape, terms[0])
            return [t.item() for t in terms], [t.grad.copy() for t in leaves]

        def scored_rows_only():
            losses = joint_loss(batch, model, alpha=1.0, beta=beta)
            return losses.total, losses.reasoning, losses.sentencing

        got, got_grads = terms_and_grads(scored_rows_only)
        want, want_grads = terms_and_grads(lambda: _full_row_joint_loss(batch, model, 1.0, beta))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if beta == 0.0:
            assert got[2] > 0.0  # the spans present still count towards the term
        for t, a, b in zip(leaves, got_grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=t.name)

    def test_matches_numpy_recomputation(self):
        """Independent recomputation of both loss terms for one case."""
        model, chains, cases = _fixture()
        record = cases[0]
        losses = joint_loss([(record, chains)], model)
        # reference path
        encoded = encode_chain_set(chains, model.table, model.params, 2)
        combined = combine(encoded, record.fact, model.table)
        prefix_len = combined.shape[0]
        eos = model.table.vocab["<eos>"]
        target = model.table.encode(record.opinion) + [eos]
        x = np.concatenate([combined.data,
                            model.params["embed"].data[target[:-1]]])
        x = x.copy()
        x[encoded.n:] += model.params["pos"].data[encoded.n:x.shape[0]]
        data = {k: t.data for k, t in model.params.items()}
        logits = np_decoder_forward(x, data, model.cfg)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        rows = np.arange(prefix_len - 1, prefix_len - 1 + len(target))
        picked = logp[rows, target]
        expected_reasoning = -picked.mean()
        interval = mark_sentencing_span(record.opinion)
        a, b = interval
        expected_sentencing = -picked[a:b].mean()
        np.testing.assert_allclose(losses.reasoning.item(), expected_reasoning, atol=1e-9)
        np.testing.assert_allclose(losses.sentencing.item(), expected_sentencing, atol=1e-9)
        np.testing.assert_allclose(losses.total.item(),
                                   expected_reasoning + expected_sentencing, atol=1e-9)

    def test_weights_scale_terms(self):
        model, chains, cases = _fixture()
        batch = [(cases[0], chains)]
        base = joint_loss(batch, model, alpha=1.0, beta=1.0)
        scaled = joint_loss(batch, model, alpha=2.0, beta=0.5)
        np.testing.assert_allclose(
            scaled.total.item(),
            2.0 * base.reasoning.item() + 0.5 * base.sentencing.item(),
            atol=1e-12,
        )

    def test_beta_zero_equals_reasoning_only(self):
        model, chains, cases = _fixture()
        losses = joint_loss([(cases[0], chains)], model, alpha=1.0, beta=0.0)
        np.testing.assert_allclose(losses.total.item(), losses.reasoning.item(),
                                   atol=1e-12)

    def test_no_chain_arm_accepts_none(self):
        model, _, cases = _fixture()
        losses = joint_loss([(cases[0], None)], model)
        assert np.isfinite(losses.total.item())

    def test_explicit_span_is_honored(self):
        model, chains, cases = _fixture()
        record = cases[0]
        clause = "7 months of fixed-term imprisonment"
        start = record.opinion.index(clause)
        explicit = CaseRecord(
            case_id=record.case_id, fact=record.fact, charge=record.charge,
            opinion=record.opinion, sentence_months=record.sentence_months,
            sentencing_span=(start, start + len(clause)), defendant=record.defendant,
        )
        a = joint_loss([(record, chains)], model)
        b = joint_loss([(explicit, chains)], model)
        np.testing.assert_allclose(a.total.item(), b.total.item(), atol=1e-12)
        assert a.mask_count == b.mask_count

    def test_missing_span_with_positive_beta_raises(self):
        model, chains, _ = _fixture()
        bad = CaseRecord(case_id="bad", fact="goods were taken", charge="toyoffense",
                         opinion="the court orders nothing", sentence_months=0,
                         sentencing_span=None, defendant="the man")
        with pytest.raises(ValidationError):
            joint_loss([(bad, chains)], model, beta=1.0)

    def test_missing_span_with_zero_beta_passes(self):
        model, chains, _ = _fixture()
        bad = CaseRecord(case_id="bad", fact="goods were taken", charge="toyoffense",
                         opinion="the court orders nothing", sentence_months=0,
                         sentencing_span=None, defendant="the man")
        losses = joint_loss([(bad, chains)], model, beta=0.0)
        assert losses.mask_count == 0
        assert losses.sentencing.item() == 0.0

    def test_invalid_weights_rejected(self):
        model, chains, cases = _fixture()
        with pytest.raises(ContractError):
            joint_loss([(cases[0], chains)], model, alpha=0.0, beta=0.0)
        with pytest.raises(ContractError):
            joint_loss([(cases[0], chains)], model, alpha=-1.0)

    def test_empty_batch_rejected(self):
        model, _, _ = _fixture()
        with pytest.raises(ContractError):
            joint_loss([], model)

    def test_scored_slices_add_up_to_the_whole_batch(self):
        """Two slices that split a batch, each scored from the same generator
        state, give the whole batch's loss terms and gradients: every call
        counts and encodes the whole batch, so all draw the same dropout
        masks.  A slice that selects no case is a ContractError."""
        model, chains, cases = _fixture()
        batch = [(cases[0], chains), (cases[1], None), (cases[1], chains),
                 (cases[0], copy.deepcopy(chains))]

        def terms_and_grads(scored, dropout_rate=0.1):
            with Tape() as tape:
                tape.watch(*model.params.values())
                losses = joint_loss(batch, model, dropout_rate=dropout_rate,
                                    rng=np.random.default_rng(3), scored=scored)
                backward(tape, losses.total)
            terms = [losses.total.item(), losses.reasoning.item(), losses.sentencing.item()]
            return np.array(terms), {n: t.grad.copy() for n, t in model.params.items()}

        whole, whole_grads = terms_and_grads(slice(None))
        assert not np.array_equal(whole, terms_and_grads(slice(None), dropout_rate=0.0)[0])
        for k in (1, 2, 3):
            head, head_grads = terms_and_grads(slice(0, k))
            tail, tail_grads = terms_and_grads(slice(k, None))
            np.testing.assert_allclose(head + tail, whole, rtol=0, atol=1e-12)
            for name, grad in whole_grads.items():
                np.testing.assert_allclose(head_grads[name] + tail_grads[name], grad,
                                           rtol=0, atol=1e-12, err_msg=name)
        with pytest.raises(ContractError, match="selects no case"):
            joint_loss(batch, model, scored=slice(2, 2))

    def test_gradients_flow_to_decoder_and_encoder(self):
        model, chains, cases = _fixture()
        with Tape() as tape:
            tape.watch(*model.params.values())
            losses = joint_loss([(cases[0], chains)], model)
            backward(tape, losses.total)
        assert np.any(model.params["dec.out.W"].grad != 0.0)
        assert np.any(model.params["enc.fusion.W"].grad != 0.0)
        assert np.any(model.params["embed"].grad != 0.0)

    def test_cases_sharing_a_chain_set_encode_it_once(self, monkeypatch):
        model, chains, cases = _fixture()
        calls = []
        original = model_module.encode_chain_set

        def counting(cs, *args, **kwargs):
            calls.append(cs)
            return original(cs, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode_chain_set", counting)

        def loss_and_grads(batch):
            with Tape() as tape:
                tape.watch(*model.params.values())
                losses = joint_loss(batch, model)
                backward(tape, losses.total)
            return losses.total.item(), {n: t.grad.copy() for n, t in model.params.items()}

        shared, shared_grads = loss_and_grads([(cases[0], chains), (cases[1], chains)])
        assert calls == [chains]
        copied, copied_grads = loss_and_grads([(cases[0], chains),
                                               (cases[1], copy.deepcopy(chains))])
        assert len(calls) == 3
        assert shared == copied
        for name, grad in shared_grads.items():
            np.testing.assert_allclose(grad, copied_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)


class TestGeneration:
    def test_greedy_is_deterministic(self):
        model, chains, cases = _fixture()
        a = decode_case(model, cases[0], chains)
        b = decode_case(model, cases[0], chains)
        assert a.token_ids == b.token_ids
        assert a.text == b.text

    def test_cache_path_matches_full_forward(self):
        """KV-cache generation equals restarting the full decoder each step."""
        model, chains, cases = _fixture()
        encoded = encode_chain_set(chains, model.table, model.params, 2)
        combined = combine(encoded, cases[0].fact, model.table)
        n = encoded.n
        out = generate(model, combined, n, max_len=8)
        # reference: no cache, full matrix every step
        data = {k: t.data for k, t in model.params.items()}
        x = combined.data.copy()
        x[n:] += data["pos"][n:x.shape[0]]
        eos = model.table.vocab["<eos>"]
        ref_ids = []
        position = combined.shape[0]
        for _ in range(8):
            logits = np_decoder_forward(x, data, model.cfg)[-1]
            next_id = int(np.argmax(logits))
            if next_id == eos:
                break
            ref_ids.append(next_id)
            row = data["embed"][next_id] + data["pos"][position]
            x = np.vstack([x, row])
            position += 1
        assert out.token_ids == ref_ids

    @pytest.mark.parametrize("heads", [1, 4])
    def test_cached_logits_equal_the_full_forward_at_every_step(self, heads):
        """A prefill in two parts, then one-row steps through the caches give,
        at every greedy step, the last row of a cache-free forward over the
        whole sequence."""
        model, chains, cases = _fixture(heads=heads)
        cfg = model.cfg
        encoded = encode_chain_set(chains, model.table, model.params, heads)
        combined = combine(encoded, cases[0].fact, model.table)
        x = add_positions(combined, encoded.n, model.params, cfg)
        caches = [KVCache(cfg.context, heads, cfg.d // heads) for _ in range(cfg.layers)]
        rows = x.shape[0]
        half = rows // 2
        decoder_forward(Tensor(x.data[:half]), model.params, cfg, caches=caches)
        cached = decoder_forward(Tensor(x.data[half:]), model.params, cfg,
                                 first_row=rows - half - 1, caches=caches)
        ids = []
        for _ in range(10):
            full = decoder_forward(x, model.params, cfg).data[-1]
            np.testing.assert_allclose(cached.data[0], full, rtol=0, atol=1e-12)
            ids.append(int(np.argmax(full)))
            row = model.params["embed"].data[ids[-1]] + model.params["pos"].data[rows]
            x = Tensor(np.vstack([x.data, row]))
            cached = decoder_forward(Tensor(row[None, :]), model.params, cfg, caches=caches)
            rows += 1
            assert all(c.used == rows for c in caches)
        eos = model.table.vocab["<eos>"]
        expected = ids[:ids.index(eos)] if eos in ids else ids
        assert generate(model, combined, encoded.n, max_len=10).token_ids == expected

    def test_caches_past_the_context_rejected(self):
        model, _, _ = _fixture(context=8)
        cfg = model.cfg
        caches = [KVCache(cfg.context, cfg.dec_heads, cfg.d // cfg.dec_heads)
                  for _ in range(cfg.layers)]
        decoder_forward(Tensor(np.zeros((6, cfg.d))), model.params, cfg, caches=caches)
        with pytest.raises(CapacityError):
            decoder_forward(Tensor(np.zeros((3, cfg.d))), model.params, cfg, caches=caches)

    def test_generation_under_a_tape_is_refused(self):
        model, _, cases = _fixture()
        combined = combine(None, cases[0].fact, model.table)
        with Tape() as tape:
            tape.watch(*model.params.values())
            with pytest.raises(ContractError):
                generate(model, combined, 0, max_len=4)

    @pytest.mark.parametrize("mode", ["greedy", "top-k"])
    def test_decoding_leaves_every_parameter_unchanged(self, mode):
        model, chains, cases = _fixture()
        before = {name: (t, t.data, t.data.copy()) for name, t in model.params.items()}
        for case in cases:
            decode_case(model, case, chains, max_len=12, mode=mode, seed=3)
        assert sorted(model.params) == sorted(before)
        for name, (t, data, copy_) in before.items():
            assert model.params[name] is t and t.data is data and t.grad is None
            np.testing.assert_array_equal(data, copy_, err_msg=name)

    def test_max_len_below_one_is_rejected(self):
        model, chains, cases = _fixture()
        for max_len in (0, -3):
            with pytest.raises(ContractError, match="max_len must be at least 1"):
                decode_case(model, cases[0], chains, max_len=max_len)

    def test_prefix_overflow_raises(self):
        model, _, _ = _fixture(context=4)
        with pytest.raises(CapacityError):
            generate(model, Tensor(np.zeros((5, model.cfg.d))), 0)

    def test_generation_stops_at_context(self):
        model, _, cases = _fixture(context=20)
        combined = combine(None, cases[0].fact, model.table)
        out = generate(model, combined, 0, max_len=1000)
        assert combined.shape[0] + len(out.token_ids) <= 20

    def test_unknown_mode_rejected(self):
        model, _, cases = _fixture()
        combined = combine(None, cases[0].fact, model.table)
        with pytest.raises(ContractError):
            generate(model, combined, 0, mode="beam")

    def test_top_k_same_seed_reproduces(self):
        model, chains, cases = _fixture()
        a = decode_case(model, cases[0], chains, mode="top-k", seed=11)
        b = decode_case(model, cases[0], chains, mode="top-k", seed=11)
        assert a.token_ids == b.token_ids

    def test_unknown_charge_raises_and_leaves_model_unchanged(self):
        model, chains, cases = _fixture()
        before = {name: t.data.copy() for name, t in model.params.items()}
        foreign = ChainSet(charge="othercharge", chains=chains.chains)
        with pytest.raises(ConfigurationError):
            decode_case(model, cases[0], foreign, max_len=4)
        assert sorted(model.params) == sorted(before)
        for name, data in before.items():
            np.testing.assert_array_equal(model.params[name].data, data)

    def test_eos_not_included_in_output(self):
        model, _, cases = _fixture()
        combined = combine(None, cases[0].fact, model.table)
        out = generate(model, combined, 0, max_len=30)
        assert model.table.vocab["<eos>"] not in out.token_ids


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        model, chains, cases = _fixture()
        path = tmp_path / "model.zip"
        save_checkpoint(path, model, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        assert loaded.cfg == model.cfg
        assert loaded.charges == model.charges
        assert loaded.table.vocab == model.table.vocab
        assert sorted(loaded.params) == sorted(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          model.params[name].data)

    def test_save_is_byte_deterministic(self, tmp_path):
        model, _, _ = _fixture()
        p1 = tmp_path / "a.zip"
        p2 = tmp_path / "b.zip"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_decodes_identically(self, tmp_path):
        model, chains, cases = _fixture()
        path = tmp_path / "model.zip"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        a = decode_case(model, cases[0], chains, max_len=16)
        b = decode_case(loaded, cases[0], chains, max_len=16)
        assert a.token_ids == b.token_ids

    def test_loaded_losses_match_bitwise(self, tmp_path):
        model, chains, cases = _fixture()
        path = tmp_path / "model.zip"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        a = joint_loss([(cases[0], chains)], model)
        b = joint_loss([(cases[0], chains)], loaded)
        assert a.total.item() == b.total.item()

    def test_format_one_archive_loads_stacked(self, tmp_path):
        model, chains, cases = _fixture()
        path = tmp_path / "v1.zip"
        _write_format_one(path, model)
        loaded, extra = load_checkpoint(path)
        assert extra == {"epoch": 1}
        assert sorted(loaded.params) == sorted(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        assert (decode_case(loaded, cases[0], chains, max_len=8).token_ids
                == decode_case(model, cases[0], chains, max_len=8).token_ids)

    def test_format_one_archive_missing_a_head_rejected(self, tmp_path):
        model, _, _ = _fixture()
        path = tmp_path / "v1.zip"
        _write_format_one(path, model, drop="dec.1.attn.1.Wv")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_unknown_format_version_rejected(self, tmp_path):
        model, _, _ = _fixture()
        path = tmp_path / "model.zip"
        save_checkpoint(path, model)
        manifest = json.loads(zipfile.ZipFile(path).read("manifest.json"))
        assert manifest["format_version"] == 2
        manifest["format_version"] = 3
        future = tmp_path / "v3.zip"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(future, "w") as dst:
            for name in src.namelist():
                payload = json.dumps(manifest) if name == "manifest.json" else src.read(name)
                dst.writestr(name, payload)
        with pytest.raises(ValidationError):
            load_checkpoint(future)

    def test_param_shapes_describe_build_model(self):
        model, _, _ = _fixture(d=16, heads=4, layers=3)
        shapes = param_shapes(model.cfg, model.vocab_size, model.charges)
        assert shapes == {name: t.shape for name, t in model.params.items()}

    def test_extra_or_misshapen_parameter_rejected(self, tmp_path):
        model, _, _ = _fixture()
        for name, array in (("dec.2.ffn.W1", np.zeros((16, 64))),
                            ("dec.out.b", np.zeros(model.vocab_size + 1))):
            bad = copy.copy(model)
            bad.params = dict(model.params, **{name: Tensor(array, name=name)})
            path = tmp_path / "bad.zip"
            save_checkpoint(path, bad)
            with pytest.raises(ValidationError, match=name):
                load_checkpoint(path)

    def test_auto_registered_charge_round_trips(self, tmp_path):
        """A charge added by training's auto-registration is not listed among
        the model's charges, yet its weights are saved and load back."""
        model, chains, cases = _fixture()
        foreign = ChainSet(charge="othercharge", chains=chains.chains)
        joint_loss([(cases[0], foreign)], model)
        assert "enc.charge.othercharge.W" in model.params
        assert model.charges == ["toyoffense"]
        path = tmp_path / "model.zip"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert sorted(loaded.params) == sorted(model.params)
        model.params.pop("enc.charge.othercharge.b")
        save_checkpoint(path, model)
        with pytest.raises(ValidationError, match="enc.charge.othercharge.b"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        model, _, _ = _fixture()
        path = tmp_path / "model.zip"
        save_checkpoint(path, model, extra={"epoch": 1})
        before = path.read_bytes()
        model.params["dec.out.b"].data += 1.0
        saved = []
        real_save = np.save

        def failing_save(*args, **kwargs):
            saved.append(args[1])
            if len(saved) == 3:
                raise OSError("disk full")
            return real_save(*args, **kwargs)

        monkeypatch.setattr(np, "save", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, extra={"epoch": 2})
        assert len(saved) == 3
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.zip"]
        monkeypatch.undo()
        save_checkpoint(path, model, extra={"epoch": 2})
        assert load_checkpoint(path)[1] == {"epoch": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.zip"]

    @pytest.mark.parametrize("edit", [
        lambda m: m["charges"].append(["toyoffense"]),
        lambda m: m["vocab"].append({"token": 1}),
        lambda m: m["params"][0].update(name=["embed"]),
    ], ids=["charge", "vocab", "param-name"])
    def test_non_string_manifest_entries_rejected(self, tmp_path, edit):
        """Unhashable names in the manifest are a ValidationError, not a TypeError."""
        model, _, _ = _fixture()
        path = tmp_path / "model.zip"
        save_checkpoint(path, model)
        manifest = json.loads(zipfile.ZipFile(path).read("manifest.json"))
        edit(manifest)
        bad = tmp_path / "bad.zip"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(bad, "w") as dst:
            for name in src.namelist():
                dst.writestr(name, json.dumps(manifest) if name == "manifest.json"
                             else src.read(name))
        with pytest.raises(ValidationError):
            load_checkpoint(bad)

    def test_rejects_foreign_zip(self, tmp_path):
        import zipfile

        path = tmp_path / "alien.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", "{}")
        with pytest.raises(ValidationError):
            load_checkpoint(path)


def _write_format_one(path, model, drop=None):
    """Hand-write a format-1 archive: one array per attention head, named
    ``{block}.{i}.W*``, optionally leaving one array out."""
    arrays = {}
    for name, t in model.params.items():
        block, _, weight = name.rpartition(".")
        if block.endswith(".attn"):
            for i, head in enumerate(t.data):
                arrays[f"{block}.{i}.{weight}"] = head
        else:
            arrays[name] = t.data
    arrays.pop(drop, None)
    names = sorted(arrays)
    manifest = {
        "format_version": 1, "kind": "lexchain-checkpoint",
        "config": model.cfg.to_dict(), "extra": {"epoch": 1},
        "vocab": model.table.id_to_token, "charges": model.charges,
        "params": [{"name": n, "file": f"arrays/{i:05d}.npy", "shape": list(arrays[n].shape)}
                   for i, n in enumerate(names)],
    }
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for i, n in enumerate(names):
            buf = io.BytesIO()
            np.save(buf, arrays[n], allow_pickle=False)
            zf.writestr(f"arrays/{i:05d}.npy", buf.getvalue())
