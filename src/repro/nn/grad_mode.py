"""Gradient mode: the input-grad-only scope and its frozen-weight cache.

Adversarial attacks (PGD, FGSM, APGD) only ever consume the gradient of
the loss w.r.t. the *input*; the parameter gradients the layers accumulate
along the way are discarded by every caller (training loops ``zero_grad``
right after the attack).  Those parameter gradients are expensive — the
weight-gradient GEMM in ``Conv2d`` costs about as much as the whole
forward pass — so attacks, evaluation shards and frozen-prefix forwards
run inside :func:`no_param_grads`, under which

* ``Conv2d`` / ``Linear`` / ``BatchNorm2d`` skip their weight/bias
  gradient contractions entirely, and
* forward passes skip stashing caches that only the parameter-gradient
  path needs (``Conv2d._cols``, ``Linear._x``, and eval-mode
  ``BatchNorm2d`` x_hat), cutting peak activation memory.

No parameter gradient means no training step, so no weight changes while
a scope is open.  The scope therefore carries a **derived-weight cache**
(:func:`scope_cached`) — created by the outermost scope, shared by nested
ones, dropped on its exit — where ``Conv2d`` keeps its laid-out weights and
eval-mode conv→BatchNorm pairs the BatchNorm folded into the conv
(:mod:`repro.nn.blocks`).  An entry is valid because of when it lives, not
because anything invalidates it; the calls that do rewrite weights refuse
to run inside a scope (:func:`require_unfrozen`).  See docs/architecture.md
§ "The frozen-model scope".

The scope is **thread-local**: the round execution engine
(:mod:`repro.flsim.executor`) runs one client's attack inside it on a
worker thread while another worker's SGD backward — which must accumulate
parameter gradients — runs concurrently, and two evaluation shards on two
threads never see each other's entries.  New threads start outside any scope.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Optional, TypeVar

T = TypeVar("T")

_grad_state = threading.local()


def frozen_cache() -> Optional[dict]:
    """This thread's derived-weight cache; ``None`` outside every scope."""
    return getattr(_grad_state, "cache", None)


def param_grads_enabled() -> bool:
    """Whether backward passes (in this thread) accumulate parameter grads."""
    return getattr(_grad_state, "cache", None) is None  # frozen_cache(), minus a call: hot path


@contextmanager
def no_param_grads() -> Iterator[None]:
    """Scope in which backward passes produce *input* gradients only."""
    outer = frozen_cache()
    _grad_state.cache = {} if outer is None else outer
    try:
        yield
    finally:
        _grad_state.cache = outer


#: The scope attacks and frozen-prefix forwards run under.
attack_grad_scope = no_param_grads


def scope_cached(key: Hashable, build: Callable[[], T]) -> T:
    """``build()``, computed once per outermost scope (on every call outside one)."""
    cache = frozen_cache()
    if cache is None:
        return build()
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


def require_unfrozen(what: str) -> None:
    """Raise if ``what`` would rewrite weights the open scope has cached layouts of."""
    if frozen_cache() is not None:
        raise RuntimeError(
            f"{what} inside a no_param_grads scope: the scope caches weights "
            "derived from the frozen model and would go stale"
        )
