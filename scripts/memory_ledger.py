#!/usr/bin/env python
"""Where a round's memory goes, measured: the first rows of a memory ledger.

The measurement behind the ledger table in docs/benchmarks.md.
``MemoryModel`` says a client needs ``4·P`` parameters + ``4·P``
gradients + ``4·P`` momentum + ``4·B·(A + I)`` activations and input;
this script asks tracemalloc what the NumPy substrate actually holds.
For one operation of each benchmark workload (``perfbench/workloads.py``:
its sizes and builders) — the first federated round, or for
``robust_eval`` one robustness-evaluation pass — it traces every
allocation from before the experiment is built, snapshots the live heap
at the highest watermark seen after any layer's forward or backward, and
attributes each live byte to the innermost ``repro`` line that allocated
it:

* unfold workspace       the zero-bordered buffers ``_Unfold`` writes into
* conv columns           ``(N, L, taps·C)`` columns, kept for the weight gradient
* conv scratch           the one buffer every streamed conv pass (forward under
                         ``no_param_grads``, input gradient) builds its columns in
* conv weight layouts    the ``(K, C_out, taps·C)`` weight copies (per call in
                         training, per scope when frozen, BatchNorm folded in)
* BatchNorm x_hat        the normalised input kept for BatchNorm's backward
* ReLU masks             ``x > 0``, kept for ReLU's backward
* max-pool index         the 2×2 pool's one-byte first-maximum index, kept for backward
* params / grads / momentum   every model replica's values, gradients (allocated
                         by the first backward that writes one), SGD velocity
* round snapshots and updates ``state_dict`` copies, aggregation results
* attack δ and input gradients  what PGD / AutoAttack allocate themselves
* layer outputs and temporaries  anything else allocated under ``repro/nn``
* dataset                the synthetic task's arrays
* other                  Python objects, journals, RNG state, ...

beside ``MemReq`` for the same model and batch (for FedProphet: module 0,
the stage the round trains, aux head included).  The snapshot can sit
below the traced peak: a transient inside one kernel call (a GEMM result
not yet reduced) is not between two layer calls.

``--whole-run`` watermarks the workload's build and its whole timed
phase instead, as perfbench runs them: the build (for ``robust_eval``,
the set-up rounds that train the model under evaluation, each named),
every op, then (training workloads) the final evaluation; the heap is
also checked at each op boundary.  The table's last rows give each
phase's own watermark — build, ops, final evaluation — and name the op
that held the overall one, whose heap the categories break down (it is
re-snapshotted only on a 0.5 % rise, so a phase row can read up to
0.5 % above it).

Usage: ``python scripts/memory_ledger.py [--workload W] [--seed N]
[--smoke] [--whole-run]`` prints one markdown table, MiB per category and
workload.  The bytes are exact for a given tree, seed and NumPy;
tracemalloc slows the run, so no time is reported.
"""

import argparse
import contextlib
import linecache
import os
import shutil
import sys
import tempfile
import tracemalloc

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

import repro.baselines  # noqa: E402,F401  (every Module subclass gets imported)
import repro.core  # noqa: E402,F401
from perfbench.workloads import (  # noqa: E402
    BUILDERS, run_eval_passes, run_training, sizes_for,
)
from repro.flsim.base import FederatedExperiment  # noqa: E402
from repro.hardware.profile import profile_module  # noqa: E402
from repro.metrics.evaluation import EvalPlan  # noqa: E402
from repro.nn import Module, conv  # noqa: E402

MIB = 2**20
FRAMES = 12  # deep enough to reach the repro line under NumPy's Python wrappers
# (category, allocating file, text on the allocating line; "" = any line of the file)
RULES = (
    ("unfold workspace", "repro/nn/conv.py", "np.zeros((m, *self._buf_shape)"),
    ("conv columns", "repro/nn/conv.py", "# kept columns"),
    ("conv scratch", "repro/nn/conv.py", "# conv scratch"),
    ("conv weight layouts", "repro/nn/conv.py", "np.ascontiguousarray("),
    ("conv weight layouts", "repro/nn/conv.py", "w * fold[1]["),  # BatchNorm folded in, per call
    ("BatchNorm x_hat", "repro/nn/normalization.py", "centered = xv - "),
    ("ReLU masks", "repro/nn/activations.py", "self._mask = x > 0"),
    ("max-pool index", "repro/nn/pooling.py", "miss.astype(np.uint8)"),
    ("params / grads / momentum", "repro/nn/init.py", ""),
    ("params / grads / momentum", "repro/nn/dtype.py", ""),
    ("params / grads / momentum", "repro/nn/module.py", "np.zeros_like(self.data)"),  # lazy grad
    ("params / grads / momentum", "repro/optim/sgd.py", "np.zeros_like"),
    ("round snapshots and updates", "repro/nn/module.py", ".copy()"),
    ("round snapshots and updates", "repro/flsim/aggregation.py", ""),
    ("round snapshots and updates", "repro/flsim/robust_agg.py", ""),
    ("round snapshots and updates", "repro/core/aggregator.py", ""),
    ("attack δ and input gradients", "repro/attacks/", ""),
    ("layer outputs and temporaries", "repro/nn/", ""),
    ("dataset", "repro/data/", ""),
)
CATEGORIES = list(dict.fromkeys(rule[0] for rule in RULES)) + ["other"]


def category(traceback) -> str:
    """The category of the innermost ``repro`` line on an allocation's stack."""
    for frame in reversed(traceback):  # innermost first
        path = frame.filename.replace(os.sep, "/")
        if "/repro/" in path:
            text = linecache.getline(frame.filename, frame.lineno)
            return next((name for name, where, line in RULES if where in path and line in text),
                        "other")
    return "other"


PHASES = ("build", "ops", "final eval")


def phase_of(op: str) -> str:
    """The phase an op belongs to: the build (and its set-up rounds), the ops, the final eval."""
    return op if op == "final eval" else "build" if op.startswith("build") else "ops"


class Watermark:
    """Snapshot the traced heap whenever it passes its highest level after a layer call.

    ``op`` names the operation running now; ``best_op`` is the one that
    held the watermark, and ``peaks`` each phase's own watermark.
    """

    def __init__(self, op: str):
        self.best, self.snapshot, self._patched, self.peaks = 0, None, [], {}
        self.op = self.best_op = op

    def check(self):
        current = tracemalloc.get_traced_memory()[0]
        phase = phase_of(self.op)
        self.peaks[phase] = max(self.peaks.get(phase, 0), current)
        if current > self.best * 1.005:  # a new high: keep the heap as it is now
            self.best, self.snapshot = current, tracemalloc.take_snapshot()
            self.best_op = self.op

    def _wrap(self, fn):
        def watched(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.check()
            return out

        return watched

    def __enter__(self):
        self._patched, todo = [], [Module]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for name in ("forward", "backward"):
                if name in vars(cls):
                    self._patched.append((cls, name, vars(cls)[name]))
                    setattr(cls, name, self._wrap(vars(cls)[name]))
        return self

    def __exit__(self, *exc):
        for cls, name, fn in reversed(self._patched):
            setattr(cls, name, fn)


def mem_req(exp, name: str):
    """``(MemReq, 12·P share, 4·B·(A+I) share)`` in bytes for what the op trains."""
    if name == "prophet_cascade":
        return exp.cost_table.cost(0, 0).mem_bytes, None, None
    model, mem = exp.global_model, exp.mem
    prof = profile_module(model, model.in_shape)
    params = mem.bytes_per_scalar * prof.params * (2 + mem.optimizer_state_factor)
    total = mem.bytes_for(model, model.in_shape)
    return total, params, total - params


@contextlib.contextmanager
def naming_build_rounds(mark: Watermark):
    """Name the op after each round the build runs (``robust_eval``'s set-up)."""
    inner = FederatedExperiment.sample_round

    def sample_round(self, round_idx):
        mark.check()
        mark.op = f"build round {round_idx}"
        return inner(self, round_idx)

    FederatedExperiment.sample_round = sample_round
    try:
        yield
    finally:
        FederatedExperiment.sample_round = inner


def whole_run(exp, name: str, size, seed: int, mark: Watermark) -> None:
    """perfbench's timed phase: every op, then (training) the final evaluation.

    The heap is also checked at each op boundary, so what one op leaves
    behind for the next (held updates, a merge) is charged to it.
    """
    def on_op(i):
        mark.check()
        stage = getattr(exp, "current_module", None)
        mark.op = f"pass {i}" if name == "robust_eval" else (
            f"round {i}" + ("" if stage is None else f" (stage {stage})"))

    @contextlib.contextmanager
    def on_phase(phase):
        if phase == "bench.final_eval":
            mark.check()
            mark.op = "final eval"
        yield

    if name == "robust_eval":
        run_eval_passes(exp, size, seed, on_op=on_op)
    else:
        run_training(exp, size, on_op=on_op, scaffold=on_phase)


def ledger(name: str, seed: int, smoke: bool, whole: bool):
    """Workload ``name`` traced: bytes per category at its watermark.

    ``whole`` watermarks the build and the whole timed phase, otherwise
    only the timed phase's first op.
    """
    size = sizes_for(name, smoke)
    workdir = tempfile.mkdtemp(prefix="memory-ledger-")
    # The unfold buffers and the conv scratch live as long as the process: empty
    # them, or the last workload's, allocated before this trace started, would
    # go uncounted.
    vars(conv._workspaces).pop("buffers", None)
    vars(conv._workspaces).pop("scratch", None)
    tracemalloc.start(FRAMES)
    mark = Watermark("build")
    try:
        if whole:
            with mark, naming_build_rounds(mark):
                exp = BUILDERS[name](size, seed, workdir)
                mark.check()
        else:
            exp = BUILDERS[name](size, seed, workdir)
            tracemalloc.reset_peak()
        mark.op = "pass 0" if name == "robust_eval" else "round 0"
        with mark:
            if whole:
                whole_run(exp, name, size, seed, mark)
            elif name == "robust_eval":
                exp.run_eval(EvalPlan.standard(
                    exp.config.eps0, pgd_steps=size["eval_pgd_steps"], with_autoattack=True,
                    max_samples=size["eval_samples"], seed=seed,
                ))
            else:
                exp.run(rounds=1)
        peak = tracemalloc.get_traced_memory()[1]
        rows = dict.fromkeys(CATEGORIES, 0)
        for stat in mark.snapshot.statistics("traceback"):
            rows[category(stat.traceback)] += stat.size
        return rows, mark.best, peak, mem_req(exp, name), mark.best_op, mark.peaks
    finally:
        tracemalloc.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), help="this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="perfbench's smoke sizes")
    parser.add_argument("--whole-run", action="store_true",
                        help="watermark every op and the final evaluation, not op 1 only")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(BUILDERS)
    cols = {name: ledger(name, args.seed, args.smoke, args.whole_run) for name in names}
    mib = lambda b: "–" if b is None else f"{b / MIB:.2f}"  # noqa: E731
    print("| MiB | " + " | ".join(f"`{name}`" for name in names) + " |")
    print("|---|" + "---|" * len(names))
    for cat in CATEGORIES:
        print(f"| {cat} | " + " | ".join(mib(cols[n][0][cat]) for n in names) + " |")
    for label, get in (
        ("**live at the watermark**", lambda c: c[1]),
        ("traced peak", lambda c: c[2]),
        ("MemReq (analytic)", lambda c: c[3][0]),
        ("… of it 12·P (params, grads, momentum)", lambda c: c[3][1]),
        ("… of it 4·B·(A + I) (activations, input)", lambda c: c[3][2]),
    ):
        print(f"| {label} | " + " | ".join(mib(get(cols[n])) for n in names) + " |")
    if args.whole_run:
        for phase in PHASES:
            print(f"| live at the {phase} watermark | "
                  + " | ".join(mib(cols[n][5].get(phase)) for n in names) + " |")
    print("| watermark held by | " + " | ".join(cols[n][4] for n in names) + " |")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
