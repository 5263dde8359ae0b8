#!/usr/bin/env python
"""Kill-and-resume smoke: SIGKILL a journalled run, resume, expect bit-identity.

The assertions live in ``tests/test_resume_smoke.py`` (the CI
``resume-smoke`` job runs that pytest module, so failures produce pytest
diffs); this script keeps two roles:

* ``--child <journal> [method]``: the subprocess entry point — a
  journalled run with per-round checkpoints that the orchestrator SIGKILLs
  mid-flight (both the test and the standalone mode spawn it);
* standalone (no args): a self-contained smoke run for manual use, the
  same checks as the test with print/exit-code reporting.

Two methods, the two run loops: ``jfat`` uses the async cross-round
pipeline (``pipeline_depth=2``), so the kill lands while rounds are in
flight — the hardest case the checkpoint layer supports; ``fedprophet``
runs the round-barrier loop with within-round async merges and two-round
stages, so the kill (after two
checkpoints) lands just past a stage boundary and the resume must carry
Algorithm 2's stage state (module index, APA, ε*, heads).
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.baselines import JointFAT  # noqa: E402
from repro.core import FedProphet, FedProphetConfig  # noqa: E402
from repro.data import make_cifar10_like  # noqa: E402
from repro.flsim import FLConfig, RunJournal  # noqa: E402
from repro.models import build_cnn  # noqa: E402

ROUNDS = 8
KILL_AFTER_CHECKPOINTS = 2
KILL_DEADLINE_S = 300.0


def build_experiment(journal_path=None, checkpoint_every=0, method="jfat", **overrides):
    """The smoke config: 8 async rounds (jfat: depth 2).

    ``overrides`` are extra config fields (``scripts/replay_smoke.py`` adds
    faults + median aggregation).
    """
    task = make_cifar10_like(
        image_size=8, train_per_class=40, test_per_class=10, seed=0
    )
    common = dict(
        num_clients=6, clients_per_round=3, local_iters=4, batch_size=8,
        lr=0.02, rounds=ROUNDS, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, eval_max_samples=24, seed=0,
        aggregation_mode="async", max_staleness=2,
        journal_path=journal_path, checkpoint_every=checkpoint_every,
    )
    common.update(overrides)
    builder = lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)
    if method == "fedprophet":
        cfg = FedProphetConfig(
            **common, rounds_per_module=2, patience=5, r_min_fraction=0.4,
            val_samples=16, val_pgd_steps=2,
        )
        return FedProphet(task, builder, cfg)
    return JointFAT(task, builder, FLConfig(**common, pipeline_depth=2))


def stage_state(exp):
    """FedProphet's Algorithm 2 outputs (None for the other methods)."""
    if not isinstance(exp, FedProphet):
        return None
    heads = [
        {k: v.tolist() for k, v in h.state_dict().items()}
        for h in exp.heads if h is not None
    ]
    return exp.eps_star, exp.stage_results, exp.pert_log, heads


def run_reference(method="jfat"):
    """The uninterrupted run's weights, merge alphas, stage state, round count."""
    ref = build_experiment(method=method)
    ref.run()
    state = {k: v.copy() for k, v in ref.global_model.state_dict().items()}
    alphas = [e.alpha for e in ref.async_log]
    ref.close()
    return state, alphas, stage_state(ref), len(ref.history)


def checkpoints_logged(journal_path: str) -> int:
    if not os.path.exists(journal_path):
        return 0
    return sum(
        1 for e in RunJournal.read(journal_path) if e.get("kind") == "checkpoint"
    )


def spawn_and_kill(journal_path: str, method: str = "jfat", script: str = __file__) -> bool:
    """Run ``script``'s ``--child`` subprocess; SIGKILL it mid-run.

    Polls the journal until ``KILL_AFTER_CHECKPOINTS`` checkpoints have
    landed, then kills.  Returns True if the kill landed mid-run; False
    if the child outran the poll loop and finished (resume still must
    reproduce the reference from the last checkpoint, so the caller's
    checks stay meaningful either way).  Raises on deadline expiry with
    no checkpoint — that means the child never made progress.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(script), "--child", journal_path, method],
        env=env,
    )
    deadline = time.monotonic() + KILL_DEADLINE_S
    while time.monotonic() < deadline:
        if child.poll() is not None:
            return False
        if checkpoints_logged(journal_path) >= KILL_AFTER_CHECKPOINTS:
            child.send_signal(signal.SIGKILL)
            child.wait()
            return True
        time.sleep(0.05)
    child.kill()
    child.wait()
    raise RuntimeError(
        f"no checkpoint appeared in {journal_path} within {KILL_DEADLINE_S}s"
    )


def _child(journal_path: str, method: str) -> int:
    exp = build_experiment(journal_path, checkpoint_every=1, method=method)
    exp.run()
    exp.close()
    return 0


def smoke(method: str) -> int:
    print(f"[{method}] reference: uninterrupted run, {ROUNDS}-round budget (journal off)")
    ref_state, ref_alphas, ref_stage, ref_rounds = run_reference(method)

    journal = os.path.join(tempfile.mkdtemp(prefix="resume-smoke-"), "run.jsonl")
    print(f"[{method}] child: journalled run, checkpoint every round")
    if spawn_and_kill(journal, method):
        print(f"SIGKILLed child after {checkpoints_logged(journal)} checkpoints")
    else:
        print("note: child finished before the kill; resuming post-run")

    resumed = build_experiment(journal, checkpoint_every=1, method=method)
    resumed.resume(journal)
    resumed.close()
    final = resumed.global_model.state_dict()
    mismatched = [
        k for k in ref_state if not np.array_equal(ref_state[k], final[k])
    ]
    if mismatched:
        print(f"FAIL: resumed weights differ from reference: {mismatched}")
        return 1
    if [r.round for r in resumed.history] != list(range(ref_rounds)):
        print(f"FAIL: resumed history has {len(resumed.history)} records")
        return 1
    if [e.alpha for e in resumed.async_log] != ref_alphas:
        print("FAIL: resumed merge log differs from reference")
        return 1
    if stage_state(resumed) != ref_stage:
        print("FAIL: resumed stage state (eps*, stages, pert log, heads) differs")
        return 1
    events = RunJournal.read(journal)
    kinds = [e["kind"] for e in events]
    if "resume" not in kinds or kinds[-1] != "run_end":
        print(f"FAIL: journal lifecycle malformed: {kinds}")
        return 1
    print(
        f"[{method}] resume smoke ok: {len(resumed.history)} rounds, bit-identical "
        f"weights + history + {len(resumed.async_log)} merge events after "
        f"SIGKILL/resume"
    )
    return 0


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        return _child(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else "jfat")
    return max(smoke(method) for method in ("jfat", "fedprophet"))


if __name__ == "__main__":
    sys.exit(main())
