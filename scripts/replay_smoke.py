#!/usr/bin/env python
"""Replay smoke: SIGKILL a hard-mode run, resume it, then replay the journal.

The end-to-end exercise of the PR-10 replay contract, in CI's
``replay-smoke`` job:

1. record a journalled depth-2 async run with an **active fault plan and
   robust (median) aggregation** — checkpoints every round;
2. SIGKILL the recording subprocess mid-flight and resume it to
   completion (bit-identical weights/history/merge log vs the
   uninterrupted reference);
3. ``replay_run`` the resulting journal — resume folded — asserting
   every event re-emits bit-for-bit with zero divergences.

Both kinds of round go through it: ``jfat`` on the cross-round pipeline,
then ``fedprophet`` in barrier rounds (within-round async merges,
two-round stages, the same faults + median) — its checkpoints carry
Algorithm 2's stage state, so the kill lands just past a stage boundary.

Usage: ``python scripts/replay_smoke.py`` (also ``--child <journal>
[method]`` as the subprocess entry point).
"""

import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from repro.flsim import FaultPlan, RunJournal  # noqa: E402
from repro.flsim.replay import replay_run  # noqa: E402

import resume_smoke  # noqa: E402 - reuse the config and the kill/poll orchestration

ROUNDS = resume_smoke.ROUNDS


def build_experiment(journal_path=None, checkpoint_every=0, method="jfat"):
    """Hard mode: resume_smoke's async config + faults + median aggregation."""
    return resume_smoke.build_experiment(
        journal_path, checkpoint_every, method,
        aggregation_rule="median",
        fault_plan=FaultPlan(seed=7, dropout_prob=0.3, straggler_prob=0.2),
    )


def _child(journal_path: str, method: str) -> int:
    exp = build_experiment(journal_path, checkpoint_every=1, method=method)
    exp.run()
    exp.close()
    return 0


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        return _child(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else "jfat")
    return max(smoke(method) for method in ("jfat", "fedprophet"))


def smoke(method: str) -> int:
    print(f"[{method}] reference: uninterrupted hard-mode run, {ROUNDS}-round budget")
    ref = build_experiment(method=method)
    ref.run()
    ref_state = {k: v.copy() for k, v in ref.global_model.state_dict().items()}
    ref_alphas = [e.alpha for e in ref.async_log]
    ref_stage = resume_smoke.stage_state(ref)
    rounds = len(ref.history)
    ref.close()

    journal = os.path.join(tempfile.mkdtemp(prefix="replay-smoke-"), "run.jsonl")
    print("child: journalled hard-mode run, checkpoint every round")
    killed = resume_smoke.spawn_and_kill(journal, method, script=__file__)
    if killed:
        print(f"SIGKILLed child after "
              f"{resume_smoke.checkpoints_logged(journal)} checkpoints")
    else:
        print("note: child finished before the kill; replay still exercised")

    resumed = build_experiment(journal, checkpoint_every=1, method=method)
    resumed.resume(journal)
    final = resumed.global_model.state_dict()
    mismatched = [
        k for k in ref_state if not np.array_equal(ref_state[k], final[k])
    ]
    if mismatched:
        print(f"FAIL: resumed weights differ from reference: {mismatched}")
        return 1
    if len(resumed.history) != rounds:
        print(f"FAIL: resumed history has {len(resumed.history)} records")
        return 1
    if [e.alpha for e in resumed.async_log] != ref_alphas:
        print("FAIL: resumed merge log differs from reference")
        return 1
    if resume_smoke.stage_state(resumed) != ref_stage:
        print("FAIL: resumed stage state (eps*, stages, pert log, heads) differs")
        return 1
    resumed.close()
    print("resume ok: bit-identical weights, history, merge log, stage state")

    report = replay_run(journal, lambda: build_experiment(method=method))
    if report.rounds != rounds:
        print(f"FAIL: replay verified {report.rounds} rounds")
        return 1
    print(f"replay: {report.summary()}")

    events = RunJournal.read(journal)
    kinds = [e["kind"] for e in events]
    if kinds[-1] != "run_end":
        print(f"FAIL: journal lifecycle malformed: {kinds}")
        return 1
    print(f"[{method}] replay smoke ok: zero divergent events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
