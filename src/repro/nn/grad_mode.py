"""Gradient-mode switches: input-grad-only backward passes.

Adversarial attacks (PGD, FGSM, APGD) only ever consume the gradient of
the loss w.r.t. the *input*; the parameter gradients the layers accumulate
along the way are discarded by every caller (training loops ``zero_grad``
right after the attack).  Those parameter gradients are expensive — the
weight-gradient GEMM in ``Conv2d`` costs about as much as the whole
forward pass — so the attack hot path runs inside
:func:`no_param_grads`, under which

* ``Conv2d`` / ``Linear`` / ``BatchNorm2d`` skip their weight/bias
  gradient contractions entirely, and
* forward passes skip stashing caches that only the parameter-gradient
  path needs (``Conv2d._cols``, ``Linear._x``, and eval-mode
  ``BatchNorm2d._x_hat``), cutting peak activation memory.

A process-wide master switch (:func:`set_fast_path`) lets the perf
benchmark measure the legacy full-gradient behaviour for its
before/after table without rebuilding models.  Note the two modes are
*mathematically* equivalent but not bit-comparable: the fast path also
selects fused kernels (e.g. eval-mode BatchNorm's folded scale-and-shift)
whose floating-point rounding differs from the legacy expressions.
Bit-identity guarantees in this repo (prefix cache on/off) always compare
runs within a single mode.

The input-grad-only flag is **thread-local**: the round execution engine
(:mod:`repro.flsim.executor`) runs one client's attack inside
``no_param_grads`` on a worker thread while another worker's SGD backward
— which must accumulate parameter gradients — runs concurrently.  A
process-global flag would let one worker's attack scope silently disable
the other's weight gradients.  New threads start with parameter gradients
enabled.  The fast-path master switch stays process-wide: it is a
benchmark-only toggle flipped outside any parallel region.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

_grad_state = threading.local()
_fast_path_enabled: bool = True


def param_grads_enabled() -> bool:
    """Whether backward passes (in this thread) accumulate parameter grads."""
    return getattr(_grad_state, "param_grads", True)


@contextmanager
def no_param_grads() -> Iterator[None]:
    """Scope in which backward passes produce *input* gradients only."""
    previous = param_grads_enabled()
    _grad_state.param_grads = False
    try:
        yield
    finally:
        _grad_state.param_grads = previous


def fast_path_enabled() -> bool:
    """Whether the input-grad-only attack fast path is active."""
    return _fast_path_enabled


def set_fast_path(enabled: bool) -> bool:
    """Toggle the attack fast path process-wide; returns the previous value.

    Exists for the perf benchmark's baseline measurements; production code
    should leave it on.
    """
    global _fast_path_enabled
    previous = _fast_path_enabled
    _fast_path_enabled = bool(enabled)
    return previous


def attack_grad_scope() -> ContextManager[None]:
    """The scope attacks and frozen-prefix forwards run under.

    Resolves to :func:`no_param_grads` normally, or a no-op when the fast
    path is disabled (benchmark baseline mode).
    """
    return no_param_grads() if _fast_path_enabled else nullcontext()
