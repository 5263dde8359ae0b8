"""Shared test utilities: finite-difference gradient checking, cohort recording,
the process's unfold workspace and conv scratch."""

from __future__ import annotations

import numpy as np

from repro.nn import conv


def workspace_buffers() -> dict:
    """The zero-bordered unfold buffers, ``geometry key -> buffer``."""
    return {key: buf for key, (buf, _) in vars(conv._workspaces).get("buffers", {}).items()}


def empty_workspace() -> None:
    """Drop the unfold buffers and the streamed-column scratch.

    They live as long as the process, so a traced measurement that should
    count them — whatever ran before — empties them first.
    """
    vars(conv._workspaces).pop("buffers", None)
    vars(conv._workspaces).pop("scratch", None)


def numerical_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_layer_input_grad(layer, x: np.ndarray, rtol=1e-4, atol=1e-6) -> None:
    """Verify layer.backward's input gradient against finite differences.

    Uses the scalar objective sum(w * out) with fixed random weights so the
    whole Jacobian is exercised.
    """
    rng = np.random.default_rng(0)
    out = layer.forward(x)
    w = rng.normal(size=out.shape)
    analytic = layer.backward(w)

    def objective():
        return float((w * layer.forward(x)).sum())

    numeric = numerical_grad(objective, x)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_layer_param_grads(layer, x: np.ndarray, rtol=1e-4, atol=1e-6) -> None:
    """Verify accumulated parameter gradients against finite differences."""
    rng = np.random.default_rng(1)
    out = layer.forward(x)
    w = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(w)

    def objective():
        return float((w * layer.forward(x)).sum())

    for name, p in layer.named_parameters():
        numeric = numerical_grad(objective, p.data)
        np.testing.assert_allclose(
            p.grad, numeric, rtol=rtol, atol=atol, err_msg=f"param {name}"
        )


def record_cohort_widths(exp) -> list:
    """Record the width of every cohort ``exp``'s round engine plans from now on.

    A fused-vs-per-item comparison proves nothing if both sides ran per
    item (a derived width of 1, a ragged key): assert on the returned list
    — it fills as rounds run — that the fused side really stacked.
    """
    widths = []
    plan = exp.executor.plan_cohorts

    def recording_plan(fn, items):
        cohorts = plan(fn, items)
        widths.extend(len(cohort) for cohort in cohorts)
        return cohorts

    exp.executor.plan_cohorts = recording_plan
    return widths
