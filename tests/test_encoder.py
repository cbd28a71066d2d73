"""Chain encoder: vocabulary, attention, gating, fusion, and a full oracle."""

import dataclasses
import warnings
from importlib import resources

import numpy as np
import pytest

from lexchain.chains import ChainSet, SentencingRange, chain_from_text, load_chain_library
from lexchain.encoder import (
    EOS_ID,
    PAD_ID,
    UNK_ID,
    EmbeddingTable,
    attention,
    build_vocab,
    crime_transform,
    embed_components,
    encode_chain,
    encode_chain_set,
    ensure_charge,
    fuse,
)
from lexchain.errors import ConfigurationError, ShapeError, ValidationError
from lexchain.model import ModelConfig, build_model
from lexchain.tensor import Tape, Tensor, backward, concat, tsum
from lexchain.tokenizer import tokenize


def _chain_set(charge="robbery"):
    return ChainSet(
        charge=charge,
        chains=[
            chain_from_text(
                "used violence against the victim AND seized property of another",
                "no aggravating circumstance was present",
                SentencingRange(36, 120, "base"),
                "Article 263",
            ),
            chain_from_text(
                "used violence against the victim AND seized property of another",
                "serious injury OR inside a residence",
                SentencingRange(120, 300, "aggravated"),
                "Article 263",
            ),
        ],
    )


def _fixture(d=8, heads=2, seed=0, charges=("robbery", "theft")):
    cs = _chain_set()
    texts = []
    for c in cs.chains:
        texts += [c.premise_text, c.situation_text, c.conclusion_text()]
    vocab = build_vocab(texts)
    cfg = ModelConfig(d=d, enc_heads=heads, dec_heads=heads, layers=1, context=32)
    model = build_model(vocab, list(charges), cfg, seed)
    return cs, model


class TestVocab:
    def test_specials_come_first(self):
        vocab = build_vocab(["b a"])
        assert vocab["<pad>"] == PAD_ID
        assert vocab["<unk>"] == UNK_ID
        assert vocab["<eos>"] == EOS_ID

    def test_rest_is_sorted(self):
        vocab = build_vocab(["zebra apple", "mango"])
        ordered = [t for t, _ in sorted(vocab.items(), key=lambda kv: kv[1])]
        assert ordered == ["<pad>", "<unk>", "<eos>", "apple", "mango", "zebra"]

    def test_extra_tokens_merge(self):
        vocab = build_vocab(["a"], extra_tokens=["42", "7"])
        assert "42" in vocab and "7" in vocab

    def test_deterministic(self):
        assert build_vocab(["x y z"]) == build_vocab(["x y z"])

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab(["known words"])
        table = EmbeddingTable(vocab, Tensor(np.zeros((len(vocab), 4))))
        assert table.encode("unknown") == [UNK_ID]

    def test_encode_decode_round_trip(self):
        vocab = build_vocab(["the court finds"])
        table = EmbeddingTable(vocab, Tensor(np.zeros((len(vocab), 4))))
        ids = table.encode("the court finds")
        assert table.decode(ids) == ["the", "court", "finds"]

    def test_table_rejects_small_matrix(self):
        vocab = build_vocab(["a b c"])
        with pytest.raises(ValidationError):
            EmbeddingTable(vocab, Tensor(np.zeros((2, 4))))


class TestEmbedComponent:
    def test_mean_of_rows(self):
        vocab = build_vocab(["a b"])
        matrix = np.zeros((len(vocab), 3))
        matrix[vocab["a"]] = [1.0, 2.0, 3.0]
        matrix[vocab["b"]] = [3.0, 4.0, 5.0]
        table = EmbeddingTable(vocab, Tensor(matrix))
        out = embed_components(["a b"], table)
        np.testing.assert_allclose(out.data, [[2.0, 3.0, 4.0]])

    def test_empty_text_warns_and_zeros(self):
        vocab = build_vocab(["a"])
        table = EmbeddingTable(vocab, Tensor(np.ones((len(vocab), 3))))
        with pytest.warns(UserWarning):
            out = embed_components([""], table)
        np.testing.assert_allclose(out.data, np.zeros((1, 3)))


class TestAttention:
    def test_zeroed_qk_gives_uniform_weights(self):
        cs, model = _fixture()
        for name, t in model.params.items():
            if ".Wq" in name or ".Wk" in name:
                t.data[...] = 0.0
        _, w = encode_chain(cs.chains[0], model.table, model.params, model.cfg.enc_heads)
        np.testing.assert_allclose(w, np.full((3, 3), 1.0 / 3.0), atol=1e-12)

    def test_zeroed_vo_reduces_to_component_mean(self):
        cs, model = _fixture()
        for name, t in model.params.items():
            if name.startswith("enc.attn.") and (".Wv" in name or ".Wo" in name):
                t.data[...] = 0.0
        r, _ = encode_chain(cs.chains[0], model.table, model.params, model.cfg.enc_heads)
        h = np.concatenate([
            embed_components([cs.chains[0].premise_text], model.table).data,
            embed_components([cs.chains[0].situation_text], model.table).data,
            embed_components([cs.chains[0].conclusion_text()], model.table).data,
        ])
        np.testing.assert_allclose(r.data, h.mean(axis=0, keepdims=True), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_rows_sum_to_one(self, seed):
        cs, model = _fixture(seed=seed)
        _, w = encode_chain(cs.chains[0], model.table, model.params, model.cfg.enc_heads)
        assert w.shape == (3, 3)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(3), atol=1e-9)

    def test_head_count_must_divide_dimension(self):
        cs, model = _fixture(d=8, heads=2)
        with pytest.raises(ShapeError):
            encode_chain(cs.chains[0], model.table, model.params, heads=3)

    def test_head_count_must_match_the_weights(self):
        cs, model = _fixture(d=8, heads=2)
        with pytest.raises(ShapeError):
            encode_chain(cs.chains[0], model.table, model.params, heads=4)

    def test_weights_carry_the_head_axis(self):
        _, model = _fixture(d=8, heads=2)
        for w in ("Wq", "Wk", "Wv"):
            assert model.params[f"enc.attn.{w}"].shape == (2, 8, 4)
        assert model.params["enc.attn.Wo"].shape == (2, 4, 8)

    def test_probabilities_per_head_and_diagnostic_is_their_mean(self):
        cs, model = _fixture(d=8, heads=2)
        h = Tensor(np.random.default_rng(5).normal(size=(3, 8)))
        _, probs = attention(h, model.params, "enc.attn", 2)
        assert probs.shape == (2, 3, 3)
        assert isinstance(probs, np.ndarray)
        np.testing.assert_allclose(probs.sum(axis=2), np.ones((2, 3)), atol=1e-12)
        _, w = encode_chain(cs.chains[0], model.table, model.params, 2)
        h_chain = concat([embed_components([text], model.table) for text in (
            cs.chains[0].premise_text, cs.chains[0].situation_text,
            cs.chains[0].conclusion_text())], axis=0)
        _, chain_probs = attention(h_chain, model.params, "enc.attn", 2)
        np.testing.assert_array_equal(w, chain_probs.mean(axis=0))


def _oracle_encode(chain, charge, table, params, heads):
    """Independent numpy re-derivation of the full per-chain encoding."""
    def mean_embed(text):
        ids = table.encode(text)
        return table.matrix.data[ids].mean(axis=0, keepdims=True)

    h = np.concatenate([
        mean_embed(chain.premise_text),
        mean_embed(chain.situation_text),
        mean_embed(chain.conclusion_text()),
    ])
    d = h.shape[1]
    dh = d // heads
    attn_out = np.zeros_like(h)
    for i in range(heads):
        q = h @ params["enc.attn.Wq"].data[i]
        k = h @ params["enc.attn.Wk"].data[i]
        v = h @ params["enc.attn.Wv"].data[i]
        scores = q @ k.T / np.sqrt(dh)
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        attn_out += weights @ v @ params["enc.attn.Wo"].data[i]
    r = (h + attn_out).mean(axis=0, keepdims=True)
    hidden = np.maximum(r @ params["enc.G1.W"].data + params["enc.G1.b"].data, 0.0)
    u = hidden @ params["enc.G2.W"].data + params["enc.G2.b"].data
    v_t = u @ params[f"enc.charge.{charge}.W"].data + params[f"enc.charge.{charge}.b"].data
    z = u @ params["enc.gate.W"].data + params["enc.gate.b"].data
    g = 1.0 / (1.0 + np.exp(-z))
    t = g * v_t + (1.0 - g) * u
    cat = np.concatenate([r, t], axis=1)
    return cat @ params["enc.fusion.W"].data + params["enc.fusion.b"].data


_LIBRARY = load_chain_library(str(resources.files("lexchain") / "data" / "chains"))


def _library_fixture(charge, d=8, heads=2, seed=0):
    """A shipped chain set and a model whose vocabulary covers its texts."""
    cs = _LIBRARY[charge]
    texts = []
    for c in cs.chains:
        texts += [c.premise_text, c.situation_text, c.conclusion_text()]
    cfg = ModelConfig(d=d, enc_heads=heads, dec_heads=heads, layers=1, context=32)
    return cs, build_model(build_vocab(texts), [charge], cfg, seed)


class TestFullEncodingOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_independent_numpy(self, seed):
        cs, model = _fixture(d=8, heads=2, seed=seed)
        encoded = encode_chain_set(cs, model.table, model.params, model.cfg.enc_heads)
        assert encoded.e_chain.shape == (2, 8)
        for i, chain in enumerate(cs.chains):
            expected = _oracle_encode(chain, cs.charge, model.table, model.params, 2)
            np.testing.assert_allclose(encoded.e_chain.data[i:i + 1], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_three_chain_theft_set(self, seed):
        cs, model = _library_fixture("theft", seed=seed)
        assert len(cs.chains) == 3
        encoded = encode_chain_set(cs, model.table, model.params, model.cfg.enc_heads)
        assert encoded.e_chain.shape == (3, 8)
        for i, chain in enumerate(cs.chains):
            expected = _oracle_encode(chain, cs.charge, model.table, model.params, 2)
            np.testing.assert_allclose(encoded.e_chain.data[i:i + 1], expected, atol=1e-12)

    @pytest.mark.parametrize("charge", sorted(_LIBRARY))
    def test_every_shipped_set(self, charge):
        cs, model = _library_fixture(charge, d=16, heads=4, seed=1)
        encoded = encode_chain_set(cs, model.table, model.params, model.cfg.enc_heads)
        assert encoded.e_chain.shape == (len(cs.chains), 16)
        for i, chain in enumerate(cs.chains):
            expected = _oracle_encode(chain, cs.charge, model.table, model.params, 4)
            np.testing.assert_allclose(encoded.e_chain.data[i:i + 1], expected, atol=1e-12)

    def test_chains_do_not_attend_to_each_other(self):
        """Perturbing one chain's premise moves only that chain's row."""
        cs, model = _library_fixture("theft")
        before = encode_chain_set(cs, model.table, model.params, 2).e_chain.data
        for j, chain in enumerate(cs.chains):
            perturbed = list(cs.chains)
            perturbed[j] = dataclasses.replace(
                chain, premise_text=cs.chains[(j + 1) % len(cs.chains)].situation_text)
            after = encode_chain_set(ChainSet(charge=cs.charge, chains=perturbed),
                                     model.table, model.params, 2).e_chain.data
            assert not np.allclose(after[j], before[j])
            others = [i for i in range(len(cs.chains)) if i != j]
            np.testing.assert_allclose(after[others], before[others], rtol=0, atol=1e-12)

    def test_attention_diagnostics_one_per_chain(self):
        cs, model = _fixture()
        for chain in cs.chains:
            _, w = encode_chain(chain, model.table, model.params, model.cfg.enc_heads)
            assert w.shape == (3, 3)
            np.testing.assert_allclose(w.sum(axis=1), np.ones(3), atol=1e-12)


class TestGating:
    @pytest.mark.parametrize("seed", range(20))
    def test_gate_open_interval_and_betweenness(self, seed):
        """g is strictly inside (0,1); t lies strictly between u and v."""
        rng = np.random.default_rng(seed)
        _, model = _fixture(seed=seed)
        r = Tensor(rng.normal(size=(1, 8)))
        # recompute u and v exactly as crime_transform does
        hidden = np.maximum(r.data @ model.params["enc.G1.W"].data
                            + model.params["enc.G1.b"].data, 0.0)
        u = hidden @ model.params["enc.G2.W"].data + model.params["enc.G2.b"].data
        v = (u @ model.params["enc.charge.robbery.W"].data
             + model.params["enc.charge.robbery.b"].data)
        t, g = crime_transform(r, "robbery", model.params)
        assert np.all(g.data > 0.0) and np.all(g.data < 1.0)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        separated = hi - lo > 1e-9
        assert np.all(t.data[separated] > lo[separated])
        assert np.all(t.data[separated] < hi[separated])

    def test_identity_charge_map_returns_u(self):
        _, model = _fixture()
        model.params["enc.charge.robbery.W"].data[...] = np.eye(8)
        model.params["enc.charge.robbery.b"].data[...] = 0.0
        r = Tensor(np.random.default_rng(0).normal(size=(1, 8)))
        t, _ = crime_transform(r, "robbery", model.params)
        hidden = np.maximum(r.data @ model.params["enc.G1.W"].data
                            + model.params["enc.G1.b"].data, 0.0)
        u = hidden @ model.params["enc.G2.W"].data + model.params["enc.G2.b"].data
        np.testing.assert_allclose(t.data, u, atol=1e-12)

    def test_zero_gate_weights_give_half(self):
        _, model = _fixture()
        model.params["enc.gate.W"].data[...] = 0.0
        model.params["enc.gate.b"].data[...] = 0.0
        r = Tensor(np.random.default_rng(1).normal(size=(1, 8)))
        _, g = crime_transform(r, "robbery", model.params)
        np.testing.assert_allclose(g.data, np.full((1, 8), 0.5), atol=1e-12)

    def test_auto_register_starts_as_identity(self):
        _, model = _fixture()
        r = Tensor(np.random.default_rng(2).normal(size=(1, 8)))
        t_new, _ = crime_transform(r, "arson", model.params, auto_register=True)
        assert "enc.charge.arson.W" in model.params
        np.testing.assert_allclose(model.params["enc.charge.arson.W"].data, np.eye(8))
        hidden = np.maximum(r.data @ model.params["enc.G1.W"].data
                            + model.params["enc.G1.b"].data, 0.0)
        u = hidden @ model.params["enc.G2.W"].data + model.params["enc.G2.b"].data
        np.testing.assert_allclose(t_new.data, u, atol=1e-12)

    def test_unknown_charge_without_auto_register(self):
        _, model = _fixture()
        r = Tensor(np.zeros((1, 8)))
        with pytest.raises(ConfigurationError):
            crime_transform(r, "piracy", model.params, auto_register=False)

    def test_ensure_charge_is_idempotent(self):
        _, model = _fixture()
        before = model.params["enc.charge.robbery.W"].data.copy()
        ensure_charge(model.params, "robbery", 8)
        np.testing.assert_array_equal(model.params["enc.charge.robbery.W"].data, before)


class TestFusion:
    def test_left_identity_projects_r(self):
        _, model = _fixture()
        W = np.zeros((16, 8))
        W[:8] = np.eye(8)
        model.params["enc.fusion.W"].data[...] = W
        model.params["enc.fusion.b"].data[...] = 0.0
        rng = np.random.default_rng(3)
        r = Tensor(rng.normal(size=(1, 8)))
        t = Tensor(rng.normal(size=(1, 8)))
        np.testing.assert_allclose(fuse(r, t, model.params).data, r.data, atol=1e-12)

    def test_right_identity_projects_t(self):
        _, model = _fixture()
        W = np.zeros((16, 8))
        W[8:] = np.eye(8)
        model.params["enc.fusion.W"].data[...] = W
        model.params["enc.fusion.b"].data[...] = 0.0
        rng = np.random.default_rng(4)
        r = Tensor(rng.normal(size=(1, 8)))
        t = Tensor(rng.normal(size=(1, 8)))
        np.testing.assert_allclose(fuse(r, t, model.params).data, t.data, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        _, model = _fixture()
        with pytest.raises(ShapeError):
            fuse(Tensor(np.zeros((1, 8))), Tensor(np.zeros((2, 8))), model.params)


class TestChainSetEncoding:
    def test_permuting_chains_permutes_rows(self):
        cs, model = _fixture()
        flipped = ChainSet(charge=cs.charge, chains=list(reversed(cs.chains)),
                           lexicon=cs.lexicon)
        a = encode_chain_set(cs, model.table, model.params, 2).e_chain.data
        b = encode_chain_set(flipped, model.table, model.params, 2).e_chain.data
        np.testing.assert_allclose(a, b[::-1], atol=1e-12)

    def test_duplicate_chains_give_identical_rows(self):
        cs, model = _fixture()
        doubled = ChainSet(charge=cs.charge, chains=[cs.chains[0], cs.chains[0]])
        out = encode_chain_set(doubled, model.table, model.params, 2).e_chain.data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_other_charge_params_do_not_leak(self):
        cs, model = _fixture(charges=("robbery", "theft"))
        before = encode_chain_set(cs, model.table, model.params, 2).e_chain.data.copy()
        model.params["enc.charge.theft.W"].data[...] = 999.0
        after = encode_chain_set(cs, model.table, model.params, 2).e_chain.data
        np.testing.assert_array_equal(before, after)

    def test_empty_chain_set_rejected(self):
        _, model = _fixture()
        with pytest.raises(ValidationError):
            encode_chain_set(ChainSet(charge="x", chains=[]), model.table,
                             model.params, 2)

    def test_every_encoder_parameter_receives_gradient(self):
        """No dead parameters: the encoding depends on every enc.* tensor."""
        cs, model = _fixture()
        enc_params = {name: t for name, t in model.params.items()
                      if name.startswith("enc.") and "theft" not in name}
        with Tape() as tape:
            tape.watch(*enc_params.values())
            encoded = encode_chain_set(cs, model.table, model.params, 2)
            backward(tape, tsum(encoded.e_chain * encoded.e_chain))
        for name, t in enc_params.items():
            assert t.grad is not None
            assert np.any(t.grad != 0.0), f"{name} has an all-zero gradient"

    def test_dropout_zero_matches_eval_path(self):
        cs, model = _fixture()
        rng = np.random.default_rng(9)
        a = encode_chain_set(cs, model.table, model.params, 2,
                             dropout_rate=0.0, rng=rng).e_chain.data
        b = encode_chain_set(cs, model.table, model.params, 2).e_chain.data
        np.testing.assert_array_equal(a, b)

    def test_dropout_changes_output_in_training(self):
        cs, model = _fixture()
        rng = np.random.default_rng(10)
        a = encode_chain_set(cs, model.table, model.params, 2,
                             dropout_rate=0.5, rng=rng).e_chain.data
        b = encode_chain_set(cs, model.table, model.params, 2).e_chain.data
        assert not np.allclose(a, b)
