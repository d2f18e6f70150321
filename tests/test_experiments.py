"""The paper's tables are deterministic and committed: rendering E1–E15
in memory must reproduce ``benchmarks/results/experiments.txt`` byte for
byte, so a PR that changes a plan, a cost or a counter regenerates the
tables on purpose (``make experiments``) — exactly as it must
``tests/golden/plans_pr15.txt``."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_experiments():
    spec = importlib.util.spec_from_file_location(
        "experiments", ROOT / "benchmarks" / "experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


experiments = _load_experiments()


@pytest.fixture(scope="module")
def rendered():
    return experiments.render_all()


def test_tables_match_the_committed_file(rendered):
    committed = experiments.RESULTS_FILE.read_text()
    assert rendered == committed, (
        "the paper's tables moved: run `make experiments`, read the diff "
        "of benchmarks/results/experiments.txt, and update EXPERIMENTS.md"
    )


def test_rendering_twice_is_identical(rendered):
    assert experiments.render_all() == rendered


def test_every_experiment_appears_once_in_order(rendered):
    ids = re.findall(r"^===== (E\d+b?): ", rendered, flags=re.MULTILINE)
    assert len(ids) == 16  # E1–E15 and E6b
    assert ids == [
        function.__name__.replace("e", "E", 1)
        for function in experiments.EXPERIMENTS
    ]


def test_every_heading_in_experiments_md_names_a_function():
    headings = re.findall(
        r"^## (E\d+b?(?:/E\d+b?)*) ",
        (ROOT / "EXPERIMENTS.md").read_text(),
        flags=re.MULTILINE,
    )
    named = [name for heading in headings for name in heading.split("/")]
    assert sorted(named) == sorted(
        function.__name__.replace("e", "E", 1)
        for function in experiments.EXPERIMENTS
    )


def test_experiments_md_quotes_every_table_verbatim():
    document = (ROOT / "EXPERIMENTS.md").read_text()
    tables = experiments.RESULTS_FILE.read_text().strip("\n").split("\n\n")
    assert len(tables) == len(experiments.EXPERIMENTS)
    for table in tables:
        assert f"```\n{table}\n```" in document, table.splitlines()[0]
