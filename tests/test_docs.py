"""Documentation cannot rot: config-table completeness + link integrity.

Two contracts:

* ``docs/configuration.md`` documents **every** ``FLConfig`` /
  ``FedProphetConfig`` field and **every** CLI flag — adding a config
  knob without documenting it fails this suite (and the CI ``docs``
  job);
* every relative markdown link in ``README.md`` + ``docs/`` resolves
  (``scripts/check_md_links.py``).

Tooling that matches source text is held to the same standard: every
line text a ``scripts/memory_ledger.py`` category rule names must still
occur in its file, or that category would silently read zero; and each CI
suite job selects the ``pytest.ini`` marker that names it, never test ids.
"""

import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser
from repro.core import FedProphetConfig
from repro.flsim import FLConfig

pytestmark = pytest.mark.docs

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DOC = REPO_ROOT / "docs" / "configuration.md"
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _field_table(cls) -> list:
    """The rows ``docs/configuration.md`` must hold for the fields ``cls``
    declares itself (a subclass's table lists only its own fields)."""
    inherited = {f.name for base in cls.__mro__[1:] if dataclasses.is_dataclass(base)
                 for f in dataclasses.fields(base)}
    return [
        f"| `{f.name}` | `{f.default!r}` | {f.metadata['group']} | {f.metadata['meaning']} |"
        for f in dataclasses.fields(cls) if f.name not in inherited
    ]


def _train_flag_table() -> list:
    """The config-backed ``repro train`` rows: flag, field, demo default."""
    train = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices["train"]
    actions = {a.dest: a for a in train._actions}
    rows = []
    for name in cli._TRAIN_FIELDS:
        action = actions[cli._FLAG_ALIASES.get(name, name)]
        rows.append(f"| `{action.option_strings[0]}` | `{name}` | `{action.default!r}` |")
    return rows


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

    @pytest.mark.parametrize("cls", [FLConfig, FedProphetConfig])
    def test_field_rows_equal_the_declaration(self, cls):
        # Default, Group and Meaning cells are the declaration's, verbatim.
        text = CONFIG_DOC.read_text()
        rows = _field_table(cls)
        stale = [row for row in rows if row not in text]
        assert not stale, (
            f"docs/configuration.md's {cls.__name__} table differs from the "
            f"declaration; expected rows:\n" + "\n".join(rows)
        )

    def test_train_flag_rows_equal_the_parser(self):
        text = CONFIG_DOC.read_text()
        rows = _train_flag_table()
        stale = [row for row in rows if row not in text]
        assert not stale, (
            "docs/configuration.md's repro train table differs from the "
            "parser; expected rows:\n" + "\n".join(rows)
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

    def test_one_execution_engine(self, capsys):
        # The thread backend was deleted, and with it executor_backend,
        # round_parallelism and eval_parallelism (43 -> 40 fields) and
        # their flags; eval_backend and --parallelism went before them.
        # The journal is the one live record of a run, so metrics_path and
        # --metrics went after them (40 -> 39 fields).
        removed = ("executor_backend", "round_parallelism", "eval_parallelism",
                   "metrics_path")
        for name, value in zip(removed, ("serial", 2, 2, "m.jsonl")):
            with pytest.raises(TypeError, match=name):
                FLConfig(**{name: value})
        for flag, value in (("--executor", "serial"), ("--round-parallelism", "2"),
                            ("--eval-parallelism", "2"), ("--metrics", "x")):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["train", flag, value])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        fields = {f.name for f in dataclasses.fields(FLConfig)}
        assert len(fields) == 39 and not fields & {"eval_backend", *removed}
        doc = CONFIG_DOC.read_text()
        assert not [name for name in ("eval_backend", *removed) if name in doc]
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


class TestMemoryLedgerRules:
    def test_every_rule_text_occurs_in_its_file(self):
        script = (REPO_ROOT / "scripts" / "memory_ledger.py").read_text()
        rules = next(
            ast.literal_eval(node.value) for node in ast.parse(script).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "RULES"
        )
        src = REPO_ROOT / "src"
        for category, where, text in rules:
            assert (src / where).exists(), f"{category}: no {where} under src/"
            if text:
                assert text in (src / where).read_text(), f"{category}: {text!r} not in {where}"


def _registered_markers() -> dict:
    """``pytest.ini``'s markers, ``{name: meaning}``, read as text."""
    lines = (REPO_ROOT / "pytest.ini").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("markers ="))
    markers = {}
    for line in lines[start + 1:]:
        if not line[:1].isspace():
            break
        name, _, meaning = line.strip().partition(":")
        markers[name] = meaning.strip()
    return markers


def _ci_selections() -> dict:
    """``{job: [every -m expression its pytest steps pass]}``, read as text
    (the docs job installs no YAML parser)."""
    text = CI.read_text()
    jobs, job = {}, None
    for line in text[text.index("\njobs:\n"):].splitlines():
        header = re.fullmatch(r"  ([\w-]+):", line)
        if header:
            job = jobs.setdefault(header.group(1), [])
        elif job is not None and "python -m pytest" in line:
            args = line.split("python -m pytest", 1)[1]
            expressions = re.findall(r"""(?:^|\s)-m\s+("[^"]*"|'[^']*'|\S+)""", args)
            job.extend(e.strip("\"'") for e in expressions)
    return jobs


class TestCISuites:
    """A test joins a CI suite by carrying its marker; ``ci.yml`` keeps no ids."""

    def test_every_selection_names_only_registered_markers(self):
        registered = set(_registered_markers())
        for job, expressions in _ci_selections().items():
            for expression in expressions:
                names = set(re.findall(r"[A-Za-z_]\w*", expression)) - {"and", "or", "not"}
                assert names <= registered, f"{job}: -m {expression!r} names {names - registered}"

    def test_every_suite_marker_is_selected_by_its_job_and_marks_a_test(self):
        # A suite marker's meaning opens with the CI job that selects it.
        selections = _ci_selections()
        tests = "\n".join(path.read_text() for path in (REPO_ROOT / "tests").glob("test_*.py"))
        suites = _registered_markers()
        suites.pop("slow", None)  # a cost tag, not a suite
        assert suites, "pytest.ini registers no suite marker"
        for name, meaning in suites.items():
            job = meaning.split(" — ")[0]
            assert name in selections.get(job, []), f"CI job {job!r} does not select -m {name}"
            assert re.search(rf"pytest\.mark\.{name}\b", tests), f"no test carries {name}"

    def test_ci_lists_no_test_ids_and_runs_no_inline_programs(self):
        text = CI.read_text()
        assert re.findall(r"tests/[A-Za-z0-9_./]+::", text) == []
        assert "python - <<" not in text
