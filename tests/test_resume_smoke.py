"""Kill/resume smoke as a pytest suite (satellite of the replay engine).

The orchestration lives in ``scripts/resume_smoke.py`` (which doubles as
the ``--child`` subprocess entry point); this module owns the assertions
so a CI failure produces pytest diffs instead of a bare script exit code.

Marked ``slow``: per method, one uninterrupted reference run plus a
subprocess that is SIGKILLed mid-flight and resumed (~4 s), heavier than
the unit suites but still tier-1.  Two methods, the two run loops: jFAT
on the cross-round pipeline, FedProphet on the round-barrier loop (killed
just past a stage boundary).
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
)

import resume_smoke  # noqa: E402

from repro.flsim import RunJournal  # noqa: E402
from repro.flsim.replay import replay_run  # noqa: E402


@pytest.fixture(scope="module", params=["jfat", "fedprophet"])
def killed_run(request, tmp_path_factory):
    """Reference run + a SIGKILLed child journal + its resumed experiment."""
    method = request.param
    ref_state, ref_alphas, ref_stage, ref_rounds = resume_smoke.run_reference(method)
    journal = str(tmp_path_factory.mktemp("resume-smoke") / "run.jsonl")
    killed = resume_smoke.spawn_and_kill(journal, method)
    resumed = resume_smoke.build_experiment(journal, checkpoint_every=1, method=method)
    resumed.resume(journal)
    resumed.close()
    yield {
        "method": method,
        "ref_state": ref_state,
        "ref_alphas": ref_alphas,
        "ref_stage": ref_stage,
        "ref_rounds": ref_rounds,
        "journal": journal,
        "killed": killed,
        "resumed": resumed,
    }


@pytest.mark.slow
class TestKillResume:
    def test_child_was_killed_mid_run(self, killed_run):
        # Informational on slow machines: if the child outran the poll
        # loop the remaining assertions still verify resume-from-last-
        # checkpoint, but the scenario is strictly weaker — surface it.
        if not killed_run["killed"]:  # pragma: no cover - timing dependent
            pytest.skip("child finished before SIGKILL landed; resume still checked")

    def test_resumed_weights_bit_identical(self, killed_run):
        final = killed_run["resumed"].global_model.state_dict()
        for key, expected in killed_run["ref_state"].items():
            np.testing.assert_array_equal(expected, final[key], err_msg=key)

    def test_resumed_history_complete_and_monotone(self, killed_run):
        history = killed_run["resumed"].history
        # (FedProphet stops once its last module is fixed: <= ROUNDS rounds.)
        assert [r.round for r in history] == list(range(killed_run["ref_rounds"]))
        times = [r.sim_time_s for r in history]
        assert times == sorted(times)

    def test_resumed_merge_log_matches_reference(self, killed_run):
        alphas = [e.alpha for e in killed_run["resumed"].async_log]
        assert alphas == killed_run["ref_alphas"]

    def test_resumed_stage_state_matches_reference(self, killed_run):
        # Algorithm 2's outputs (eps*, stage results, pert log, heads):
        # None == None for the methods that have no stage.
        assert resume_smoke.stage_state(killed_run["resumed"]) == killed_run["ref_stage"]

    def test_journal_lifecycle(self, killed_run):
        kinds = [e["kind"] for e in RunJournal.read(killed_run["journal"])]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        if killed_run["killed"]:
            assert "resume" in kinds

    def test_resumed_journal_replays_bit_identically(self, killed_run):
        # The resumed journal's canonical stream (resume folded onto its
        # checkpoint) must replay bit-for-bit — the strongest equivalence
        # check the engine offers, closing the loop on the kill/resume
        # scenario.
        report = replay_run(
            killed_run["journal"],
            lambda: resume_smoke.build_experiment(method=killed_run["method"]),
        )
        assert report.resumes_folded == (1 if killed_run["killed"] else 0)
        assert report.rounds == killed_run["ref_rounds"]
        assert report.events_verified > 0
