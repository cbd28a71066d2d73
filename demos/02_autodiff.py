#!/usr/bin/env python3
"""Tour of the reverse-mode autodiff core: tape, gradients, finite differences.

Shows the Tensor/Tape API on a hand-built composite function, validates the
tape gradients against central finite differences, and fits a tiny ridge
regression by plain gradient descent.
"""
import numpy as np

from lexchain import Tape, Tensor, backward, grad_check
from lexchain import tensor as T

rng = np.random.default_rng(0)

# --- 1. a scalar composite: softmax-cross-entropy-ish shape -----------------
W = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="W")
b = Tensor(np.zeros(4), requires_grad=True, name="b")
x = Tensor(rng.normal(size=(5, 3)))  # constant input, no gradient

with Tape() as tape:
    tape.watch(W, b)
    logits = T.matmul(x, W) + b
    loss = -T.tmean(T.log_likelihood_rows(logits, [0, 1, 2, 3, 0]))
    backward(tape, loss)

print("loss:", loss.item())
print("dL/dW shape:", W.grad.shape, " dL/db shape:", b.grad.shape)
print("db sums to ~0 per probability simplex:", np.allclose(b.grad.sum(), 0, atol=1e-12))

# --- 2. the same function through the finite-difference checker -------------
params = {"W": W, "b": b}


def objective(p):
    logits = T.matmul(x, p["W"]) + p["b"]
    return -T.tmean(T.log_likelihood_rows(logits, [0, 1, 2, 3, 0]))


err = grad_check(params, objective, eps=1e-5)
print(f"max relative gradient error vs finite differences: {err:.3e}")

# --- 3. gradient descent on a least-squares problem -------------------------
A = rng.normal(size=(40, 6))
target = A @ rng.normal(size=(6, 1)) + 0.01 * rng.normal(size=(40, 1))
A_t, y_t = Tensor(A), Tensor(target)
w = Tensor(np.zeros((6, 1)), requires_grad=True, name="w")

for step in range(200):
    with Tape() as tape:
        tape.watch(w)
        resid = T.matmul(A_t, w) - y_t
        loss = T.tmean(resid * resid) + 1e-4 * T.tsum(w * w)
        backward(tape, loss)
    w.data -= 0.05 * w.grad
    if step % 50 == 0 or step == 199:
        print(f"step {step:3d}  mse+ridge = {loss.item():.6f}")

closed_form = np.linalg.solve(A.T @ A / 40 + 1e-4 * np.eye(6), A.T @ target / 40)
print("distance to closed-form ridge solution:", float(np.linalg.norm(w.data - closed_form)))
