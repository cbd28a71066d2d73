"""Autodiff engine checks: hand values, finite differences, and error paths."""

import math

import numpy as np
import pytest

from lexchain.errors import CapacityError, ContractError, EvaluationError, ShapeError
from lexchain.tensor import (
    KVCache,
    Tape,
    Tensor,
    _record,
    attention,
    backward,
    concat,
    dropout,
    gather_rows,
    grad_check,
    layer_norm,
    log_likelihood_rows,
    matmul,
    mul,
    relu,
    sigmoid,
    tmean,
    tsum,
)


def _fd(params, fn, eps=1e-5):
    """Finite-difference wrapper with the package's relative-error convention."""
    return grad_check(params, fn, eps=eps)


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_attention(h, wq, wk, wv, wo, mask=None):
    """Per-head numpy oracle of ``attention``: summed outputs and probabilities."""
    out = np.zeros((h.shape[0], wo.shape[2]))
    probs = []
    for i in range(wq.shape[0]):
        q, k, v = h @ wq[i], h @ wk[i], h @ wv[i]
        scores = q @ k.T / np.sqrt(wq.shape[2])
        if mask is not None:
            scores = scores + mask
        p = _np_softmax(scores)
        probs.append(p)
        out += p @ v @ wo[i]
    return out, np.stack(probs)


def _attention_params(rng, heads, d=8, rows=5):
    dh = d // heads
    return {"h": Tensor(rng.normal(size=(rows, d))),
            "wq": Tensor(rng.normal(size=(heads, d, dh)) * 0.5),
            "wk": Tensor(rng.normal(size=(heads, d, dh)) * 0.5),
            "wv": Tensor(rng.normal(size=(heads, d, dh)) * 0.5),
            "wo": Tensor(rng.normal(size=(heads, dh, d)) * 0.5)}


def _causal(rows, rng=None):
    """-1e9 above the diagonal, plus small finite offsets when ``rng`` is given."""
    mask = np.triu(np.full((rows, rows), -1e9), k=1)
    return mask if rng is None else mask + rng.normal(size=(rows, rows))


class TestHandValues:
    """Exact values worked out by hand."""

    def test_matmul_two_by_two(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_sigmoid_log_three(self):
        x = Tensor([math.log(3.0)])
        np.testing.assert_allclose(sigmoid(x).data, [0.75], atol=1e-12)

    def test_softmax_log_integers(self):
        x = Tensor([[0.0, math.log(2.0), math.log(3.0)]] * 3)
        np.testing.assert_allclose(
            np.exp(log_likelihood_rows(x, [0, 1, 2]).data), [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0],
            atol=1e-12
        )

    def test_log_softmax_matches_log_of_softmax(self):
        """Each row's entry is the numpy log-softmax at that row's target."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 7)) * 3.0
        targets = [0, 6, 3, 3, 1, 5]
        np.testing.assert_allclose(
            log_likelihood_rows(Tensor(x), targets).data,
            np.log(_np_softmax(x))[np.arange(6), targets], rtol=0, atol=1e-12
        )

    def test_square_gradient_at_three(self):
        x = Tensor(3.0)
        with Tape() as tape:
            tape.watch(x)
            y = x * x
            backward(tape, y)
        np.testing.assert_allclose(x.grad, 6.0)

    def test_unused_watched_tensor_gets_zero_gradient(self):
        x = Tensor([1.0, 2.0], name="x")
        z = Tensor([5.0], name="z")
        with Tape() as tape:
            tape.watch(x, z)
            y = tsum(x * x)
            assert backward(tape, y) is None
        np.testing.assert_array_equal(z.grad, [0.0])
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_reuse_accumulates(self):
        x = Tensor(3.0)
        with Tape() as tape:
            tape.watch(x)
            y = x * x + x  # dy/dx = 2x + 1
            backward(tape, y)
        np.testing.assert_allclose(x.grad, 7.0)

    def test_addition_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (Tensor(rng.normal(size=(3, 3))) for _ in range(3))
        left = ((a + b) + c).data
        right = (a + (b + c)).data
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_head_axis_matmul_matches_per_head_products(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4, 5))
        u = rng.normal(size=(2, 5, 3))
        shared = matmul(Tensor(x), Tensor(w)).data
        paired = matmul(Tensor(shared), Tensor(u)).data
        assert shared.shape == (2, 3, 5) and paired.shape == (2, 3, 3)
        for i in range(2):
            np.testing.assert_array_equal(shared[i], x @ w[i])
            np.testing.assert_array_equal(paired[i], shared[i] @ u[i])

    def test_transpose_and_softmax_act_on_last_two_axes(self):
        """Attention forms q @ k.T per head and normalizes over the keys."""
        rng = np.random.default_rng(4)
        for heads in (1, 4):
            p = _attention_params(rng, heads)
            for mask in (None, _causal(5, rng)):
                out, probs = attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"], mask)
                want_out, want_probs = _np_attention(
                    *(p[k].data for k in ("h", "wq", "wk", "wv", "wo")), mask)
                assert isinstance(probs, np.ndarray) and probs.shape == (heads, 5, 5)
                np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)


class TestKernelGradients:
    """Every kernel's backward rule against central finite differences."""

    @pytest.mark.parametrize("seed", range(10))
    def test_elementwise_binary(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)) + 3.0)
        params = {"a": a, "b": b}
        assert _fd(params, lambda p: tsum((p["a"] + p["b"]) * p["a"])) < 1e-6
        assert _fd(params, lambda p: tsum(p["a"] - p["b"])) < 1e-6
        assert _fd(params, lambda p: tsum((1.0 - p["a"]) * (2.0 + p["b"]))) < 1e-6
        assert _fd(params, lambda p: tsum(-p["a"] * p["b"])) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_broadcasting_gradients(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "m": Tensor(rng.normal(size=(3, 4))),
            "row": Tensor(rng.normal(size=(1, 4))),
            "col": Tensor(rng.normal(size=(3, 1))),
            "s": Tensor(rng.normal()),
        }

        def objective(p):
            return tsum(p["m"] * p["row"] + p["col"] * p["s"])

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul_transpose_reshape(self, seed):
        """Matmul over a leading head axis: 2-D x 3-D, 3-D x 3-D and
        3-D x 2-D."""
        rng = np.random.default_rng(seed)
        params = {
            "a": Tensor(rng.normal(size=(3, 5))),
            "w": Tensor(rng.normal(size=(2, 5, 4))),
            "u": Tensor(rng.normal(size=(2, 5, 4))),
            "t": Tensor(rng.normal(size=(2, 4, 3))),
            "b": Tensor(rng.normal(size=(4, 2))),
        }

        def objective(p):
            q = p["a"] @ p["w"]
            k = p["a"] @ p["u"]
            scores = q @ p["t"]
            return tsum((sigmoid(scores) @ k) * q) + tsum(q @ p["b"])

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_unary_nonlinearities(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3))
        x[np.abs(x) < 0.1] = 0.5  # keep relu away from its kink
        params = {"x": Tensor(x), "p": Tensor(rng.normal(size=(4, 3)))}

        def objective(p):
            return tsum(relu(p["x"])) + tsum(sigmoid(p["x"])) + tsum(-p["p"] * sigmoid(p["p"]))

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_families(self, seed):
        """The softmax inside attention (masked, 2 heads) and log_likelihood_rows."""
        rng = np.random.default_rng(seed)
        params = _attention_params(rng, 2, d=6, rows=3)
        params["x"] = Tensor(rng.normal(size=(3, 6)) * 2.0)
        weights = np.arange(18.0).reshape(3, 6)
        mask = _causal(3, rng)

        def objective(p):
            out, _ = attention(p["x"], p["wq"], p["wk"], p["wv"], p["wo"], mask)
            soft = out * Tensor(weights)
            logsoft = log_likelihood_rows(p["x"], [5, 0, 2]) * Tensor(weights[::-1, 0].copy())
            return tsum(soft) + tmean(logsoft)

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_reductions_axes(self, seed):
        rng = np.random.default_rng(seed)
        params = {"x": Tensor(rng.normal(size=(4, 5)))}

        def objective(p):
            a = tsum(p["x"], axis=0)
            b = tmean(p["x"], axis=1, keepdims=True)
            return tsum(a * a) + tsum(b * b) + tmean(p["x"])

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_concat_stack_gather_pick(self, seed):
        """Concat, gather_rows and the per-row pick of log_likelihood_rows."""
        rng = np.random.default_rng(seed)
        params = {
            "u": Tensor(rng.normal(size=(2, 3))),
            "v": Tensor(rng.normal(size=(1, 3))),
            "table": Tensor(rng.normal(size=(5, 3))),
        }
        ids = [0, 2, 2, 4]  # duplicate index exercises scatter-add
        cols = [1, 0, 2, 2, 0, 1, 1]

        def objective(p):
            joined = concat([p["u"], p["v"], gather_rows(p["table"], ids)], axis=0)
            stacked = concat([joined, p["v"]], axis=0)
            picked = log_likelihood_rows(joined, cols)
            return tsum(stacked) + tsum(picked * picked)

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_three_layer_composite(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "W1": Tensor(rng.normal(size=(4, 6)) * 0.3),
            "W2": Tensor(rng.normal(size=(6, 6)) * 0.3),
            "W3": Tensor(rng.normal(size=(6, 2)) * 0.3),
            "x": Tensor(rng.normal(size=(3, 4))),
        }

        def objective(p):
            h1 = relu(p["x"] @ p["W1"])
            h2 = sigmoid(h1 @ p["W2"])
            return tmean(log_likelihood_rows(h2 @ p["W3"], [0, 1, 1]))

        assert _fd(params, objective) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        params = {"x": Tensor(rng.normal(size=(4, 6)) * 2.0 + 0.5),
                  "g": Tensor(rng.normal(size=6)), "b": Tensor(rng.normal(size=6))}
        weights = Tensor(rng.normal(size=(4, 6)))
        assert _fd(params, lambda p: tsum(layer_norm(p["x"], p["g"], p["b"]) * weights)) < 1e-6

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_attention(self, heads, masked):
        rng = np.random.default_rng(heads)
        params = _attention_params(rng, heads)
        mask = _causal(5, rng) if masked else None
        weights = Tensor(rng.normal(size=(5, 8)))

        def objective(p):
            out, _ = attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"], mask)
            return tsum(out * weights)

        assert _fd(params, objective) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_log_likelihood_rows(self, seed):
        rng = np.random.default_rng(seed)
        params = {"x": Tensor(rng.normal(size=(5, 7)) * 2.0)}
        targets = rng.integers(0, 7, size=5)
        weights = Tensor(rng.normal(size=5))
        assert _fd(params, lambda p: tsum(log_likelihood_rows(p["x"], targets) * weights)) < 1e-6

    @pytest.mark.parametrize("heads", [1, 4])
    def test_attention_with_query_rows(self, heads):
        rng = np.random.default_rng(10 + heads)
        params = _attention_params(rng, heads)
        mask = _causal(5, rng)[2:]
        weights = Tensor(rng.normal(size=(3, 8)))

        def objective(p):
            out, _ = attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"], mask, first_row=2)
            return tsum(out * weights)

        assert _fd(params, objective) < 1e-6

    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(7)
        params = {"x": Tensor(rng.normal(size=(2, 3)))}
        coeffs = Tensor(rng.normal(size=(2, 3)))
        err = _fd(params, lambda p: tsum(p["x"] * coeffs))
        assert err < 1e-9

    def test_dropout_gradient_flows_through_mask(self):
        x = Tensor(np.ones((4, 4)))
        with Tape() as tape:
            tape.watch(x)
            out = dropout(x, 0.5, np.random.default_rng(3))
            kept = out.data.copy()
            backward(tape, tsum(out))
        np.testing.assert_allclose(x.grad, kept / 1.0)  # mask includes 1/(1-rate)


class TestCorruptedBackward:
    """The checker must reject a deliberately wrong backward rule."""

    def test_wrong_rule_is_detected(self):
        def bad_square(t):
            out = Tensor(t.data * t.data)
            return _record(out, (t,), lambda g: (g * t.data,))  # missing factor 2

        params = {"x": Tensor([[1.5, -2.0, 0.75]])}
        err = _fd(params, lambda p: tsum(bad_square(p["x"])))
        assert err > 1e-2


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_same_rng_state_reproduces_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = dropout(x, 0.4, np.random.default_rng(5)).data
        b = dropout(x, 0.4, np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_invalid_rate(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ContractError):
            dropout(x, 1.0, np.random.default_rng(0))
        with pytest.raises(ContractError):
            dropout(x, -0.1, np.random.default_rng(0))


class TestErrors:
    def test_matmul_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_matmul_rejects_unequal_head_counts(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 2, 3, 4))), Tensor(np.ones((4, 2))))

    def test_backward_requires_scalar(self):
        x = Tensor([[1.0, 2.0]])
        with Tape() as tape:
            tape.watch(x)
            y = x * x
            with pytest.raises(ContractError):
                backward(tape, y)

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Tensor([[1.0, 2.0]]).item()

    def test_attention_requires_matrix(self):
        p = _attention_params(np.random.default_rng(0), 2)
        for h in (np.ones(8), np.ones((2, 5, 8))):
            with pytest.raises(ShapeError):
                attention(Tensor(h), p["wq"], p["wk"], p["wv"], p["wo"])

    def test_softmax_requires_matrix(self):
        with pytest.raises(ShapeError):
            log_likelihood_rows(Tensor(np.ones(4)), [0, 1, 2, 3])
        with pytest.raises(ShapeError):
            log_likelihood_rows(Tensor(np.ones((2, 3, 4))), [0, 1])

    def test_log_likelihood_needs_one_target_per_row(self):
        x = Tensor(np.ones((3, 4)))
        for targets in ([0, 1], [0, 1, 2, 3], [[0, 1, 2]], 0):
            with pytest.raises(ShapeError):
                log_likelihood_rows(x, targets)

    @pytest.mark.parametrize("first_row", [-1, 5])
    def test_attention_query_rows_must_be_inside_the_rows(self, first_row):
        p = _attention_params(np.random.default_rng(0), 2)
        with pytest.raises(ContractError):
            attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"], first_row=first_row)

    def test_layer_norm_requires_gain_and_bias_of_the_row_width(self):
        x = Tensor(np.ones((2, 4)))
        with pytest.raises(ShapeError):
            layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros((1, 4))))

    def test_grad_check_rejects_nonfinite_objective(self):
        params = {"x": Tensor([[0.0]])}

        def objective(p):
            return p["x"] * Tensor([[np.inf]])  # 0 * inf -> nan

        with np.errstate(invalid="ignore"):
            with pytest.raises(EvaluationError):
                grad_check(params, objective)


class TestTapeMechanics:
    def test_no_recording_outside_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * x
        assert not y.requires_grad

    def test_no_recording_without_requires_grad(self):
        with Tape() as tape:
            y = Tensor([2.0]) * Tensor([3.0])
        assert tape.nodes == [] and not y.requires_grad

    def test_nested_tapes_record_independently(self):
        x = Tensor([2.0])
        with Tape() as outer:
            outer.watch(x)
            y = x * x
            with Tape() as inner:
                inner.watch(x)
                z = x * x * x
                backward(inner, tsum(z))
            inner_nodes = len(inner.nodes)
            backward(outer, tsum(y))
        assert inner_nodes == 3  # two muls and a sum
        np.testing.assert_allclose(x.grad, 4.0)

    def test_backward_sets_grad_only_on_watched_leaves(self):
        """Constants, intermediates and the loss get no ``.grad``; the watched
        leaves get the hand-derived gradient of
        ``sum(scale * (pool @ (x @ w + b)))``."""
        rng = np.random.default_rng(12)
        w, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3))
        x, pool, scale = (Tensor(rng.normal(size=shape)) for shape in ((5, 4), (2, 5), (2, 3)))
        with Tape() as tape:
            tape.watch(w, b)
            h = x @ w + b
            y = (pool @ h) * scale
            loss = tsum(y)
            backward(tape, loss)
        for t in (x, pool, scale, h, y, loss):
            assert t.grad is None
        g_h = pool.data.T @ scale.data
        np.testing.assert_allclose(w.grad, x.data.T @ g_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, g_h.sum(axis=0), rtol=0, atol=1e-12)

    def test_constant_operands_get_no_gradient_computed(self):
        """``matmul`` and ``mul`` return None for an operand that needs no
        gradient, and the leaves' gradients are bitwise those of a sweep that
        also differentiates the constants."""
        rng = np.random.default_rng(13)
        w = Tensor(rng.normal(size=(5, 3)))
        pool, scale = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 3)))

        def sweep(*also):
            with Tape() as tape:
                tape.watch(w, *also)
                loss = tsum((pool @ w) * scale)
                backward(tape, loss)
            return tape, w.grad.copy()

        tape, leaf_only = sweep()
        g = np.ones((2, 3))
        mm_grads, mul_grads = (node.backward_fn(g) for node in tape.nodes[:2])
        assert mm_grads[0] is None and mm_grads[1].shape == (5, 3)
        assert mul_grads[0].shape == (2, 3) and mul_grads[1] is None
        _, with_constants = sweep(pool, scale)
        np.testing.assert_array_equal(leaf_only, with_constants)
        assert pool.grad.shape == (2, 5) and scale.grad.shape == (2, 3)

    def test_watch_is_idempotent(self):
        x = Tensor([1.0])
        tape = Tape()
        tape.watch(x, x)
        tape.watch(x)
        assert len(tape.watched) == 1

    def test_determinism_same_seed_same_graph_output(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(3, 3)))
            with Tape() as tape:
                tape.watch(x)
                loss = tmean(sigmoid(x @ x))
                backward(tape, loss)
            return loss.data.copy(), x.grad.copy()

        la, ga = run(123)
        lb, gb = run(123)
        np.testing.assert_array_equal(la, lb)
        np.testing.assert_array_equal(ga, gb)


class TestKVCache:
    def test_cached_rows_match_one_masked_pass(self):
        """Feeding rows one or several at a time through a cache equals one
        causally masked pass over all of them."""
        rng = np.random.default_rng(8)
        for heads in (1, 4):
            p = _attention_params(rng, heads, rows=6)
            w = [p[k] for k in ("wq", "wk", "wv", "wo")]
            full, full_probs = attention(p["h"], *w, _causal(6))
            cache = KVCache(8, heads, 8 // heads)
            first, _ = attention(Tensor(p["h"].data[:3]), *w, _causal(3), cache)
            rows = [first.data]
            for i in range(3, 6):
                out, probs = attention(Tensor(p["h"].data[i:i + 1]), *w, cache=cache)
                assert probs.shape == (heads, 1, i + 1)
                np.testing.assert_allclose(probs[:, 0], full_probs[:, i, :i + 1],
                                           rtol=0, atol=1e-12)
                rows.append(out.data)
            assert cache.used == 6
            np.testing.assert_allclose(np.concatenate(rows), full.data, rtol=0, atol=1e-12)

    def test_cache_under_a_tape_is_refused_and_records_nothing(self):
        p = _attention_params(np.random.default_rng(9), 2)
        cache = KVCache(8, 2, 4)
        with Tape() as tape:
            tape.watch(*p.values())
            with pytest.raises(ContractError):
                attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"], cache=cache)
        assert tape.nodes == [] and cache.used == 0

    def test_rows_past_the_capacity_rejected(self):
        p = _attention_params(np.random.default_rng(10), 2)
        cache = KVCache(4, 2, 4)
        with pytest.raises(CapacityError):
            attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"], _causal(5), cache)
        assert cache.used == 0


class TestAttentionQueryRows:
    """Queries from rows ``first_row:`` only: the tail of the full attention."""

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("first_row", [1, 3, 5])
    def test_tail_rows_and_every_gradient_equal_the_full_attention(self, heads, first_row):
        rng = np.random.default_rng(20 + heads)
        p = _attention_params(rng, heads, rows=6)
        mask = _causal(6, rng)
        weights = rng.normal(size=(6, 8))
        weights[:first_row] = 0.0  # the full pass scores the tail rows only

        def run(queries):
            with Tape() as tape:
                tape.watch(*p.values())
                out, probs = attention(p["h"], p["wq"], p["wk"], p["wv"], p["wo"],
                                       mask[queries:], first_row=queries)
                backward(tape, tsum(out * Tensor(weights[queries:])))
            return out.data, probs, {k: t.grad.copy() for k, t in p.items()}

        full, full_probs, full_grads = run(0)
        tail, tail_probs, tail_grads = run(first_row)
        assert tail.shape == (6 - first_row, 8) and tail_probs.shape == (heads, 6 - first_row, 6)
        np.testing.assert_allclose(tail, full[first_row:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tail_probs, full_probs[:, first_row:], rtol=0, atol=1e-12)
        for k in p:
            np.testing.assert_allclose(tail_grads[k], full_grads[k], rtol=0, atol=1e-12,
                                       err_msg=k)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_prefill_caches_every_row_and_queries_the_tail(self, heads):
        """A cached prefill with query rows gives the full attention's tail
        rows and caches every row's key and value, so a later row sees them."""
        rng = np.random.default_rng(30 + heads)
        p = _attention_params(rng, heads, rows=7)
        w = [p[k] for k in ("wq", "wk", "wv", "wo")]
        full, full_probs = attention(p["h"], *w, _causal(7))
        cache = KVCache(8, heads, 8 // heads)
        tail, probs = attention(Tensor(p["h"].data[:6]), *w, _causal(6)[3:], cache, first_row=3)
        assert cache.used == 6
        np.testing.assert_allclose(cache.k[:, :6], p["h"].data[:6] @ p["wk"].data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.v[:, :6], p["h"].data[:6] @ p["wv"].data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(tail.data, full.data[3:6], rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs, full_probs[:, 3:6, :6], rtol=0, atol=1e-12)
        last, _ = attention(Tensor(p["h"].data[6:]), *w, cache=cache)
        np.testing.assert_allclose(last.data, full.data[6:], rtol=0, atol=1e-12)
