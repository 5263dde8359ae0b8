"""Documentation cannot rot: config-table completeness + link integrity.

Two contracts:

* ``docs/configuration.md`` documents **every** ``FLConfig`` /
  ``FedProphetConfig`` field and **every** CLI flag — adding a config
  knob without documenting it fails this suite (and the CI ``docs``
  job);
* every relative markdown link in ``README.md`` + ``docs/`` resolves
  (``scripts/check_md_links.py``).
"""

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core import FedProphetConfig
from repro.flsim import FLConfig, RoundExecutor

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DOC = REPO_ROOT / "docs" / "configuration.md"


def _documented_tokens() -> set:
    """Every backtick-quoted token in the configuration reference."""
    text = CONFIG_DOC.read_text()
    return set(re.findall(r"`([^`\n]+)`", text))


def _cli_option_strings() -> set:
    """All ``--flag`` option strings across every subcommand."""
    parser = build_parser()
    options = set()
    stack = [parser]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if action.dest == "help":
                continue
            options.update(s for s in action.option_strings if s.startswith("--"))
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                stack.extend(action.choices.values())  # subparsers
    return options


class TestConfigurationTableComplete:
    def test_doc_exists(self):
        assert CONFIG_DOC.exists(), "docs/configuration.md is missing"

    def test_every_flconfig_field_documented(self):
        documented = _documented_tokens()
        missing = [
            f.name for f in dataclasses.fields(FLConfig) if f.name not in documented
        ]
        assert not missing, (
            f"FLConfig fields missing from docs/configuration.md: {missing}"
        )

    def test_every_fedprophet_field_documented(self):
        documented = _documented_tokens()
        missing = [
            f.name
            for f in dataclasses.fields(FedProphetConfig)
            if f.name not in documented
        ]
        assert not missing, (
            f"FedProphetConfig fields missing from docs/configuration.md: {missing}"
        )

    def test_every_cli_flag_documented(self):
        text = CONFIG_DOC.read_text()
        missing = [flag for flag in _cli_option_strings() if flag not in text]
        assert not missing, (
            f"CLI flags missing from docs/configuration.md: {sorted(missing)}"
        )

    def test_the_split_autoattack_fork_is_gone(self):
        # The eager ensemble fork was deleted: one field and one flag fewer.
        assert "split_autoattack" not in {f.name for f in dataclasses.fields(FLConfig)}
        assert "--split-autoattack" not in _cli_option_strings()
        assert "split_autoattack" not in CONFIG_DOC.read_text()

    def test_evaluation_has_one_path(self):
        # The overlapped eval was deleted: one field and one flag fewer,
        # and --eval-every no longer depends on another flag.
        assert not [f.name for f in dataclasses.fields(FLConfig) if "overlap" in f.name]
        assert not [flag for flag in _cli_option_strings() if "overlap" in flag]
        assert "overlap" not in CONFIG_DOC.read_text().lower()
        args = build_parser().parse_args(["train"])
        assert args.eval_every == 0

    def test_two_execution_backends(self, capsys):
        # The fork-based backend was deleted, and with it eval_backend
        # (44 -> 43 fields) and the --parallelism alias.
        for refuse in (lambda: FLConfig(executor_backend="process"),
                       lambda: RoundExecutor("process")):
            with pytest.raises(ValueError, match=re.escape("('serial', 'thread')")):
                refuse()
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["train", "--executor", "process"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err
        fields = {f.name for f in dataclasses.fields(FLConfig)}
        assert len(fields) == 43 and "eval_backend" not in fields
        assert "eval_backend" not in CONFIG_DOC.read_text()
        assert "--parallelism" not in _cli_option_strings()

    def test_detects_missing_entries(self):
        # The guard itself must bite: a field absent from the doc text
        # must be reported missing (i.e. the check is not vacuous).
        documented = _documented_tokens()
        assert "definitely_not_a_config_field" not in documented


class TestDocsSuitePresent:
    @pytest.mark.parametrize(
        "page",
        ["architecture.md", "async-aggregation.md", "benchmarks.md",
         "configuration.md", "fault-tolerance.md", "threat-model.md"],
    )
    def test_page_exists_and_linked_from_readme(self, page):
        path = REPO_ROOT / "docs" / page
        assert path.exists(), f"docs/{page} is missing"
        readme = (REPO_ROOT / "README.md").read_text()
        assert f"docs/{page}" in readme, f"README does not link docs/{page}"


class TestMarkdownLinks:
    def test_all_links_resolve(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_md_links.py")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
