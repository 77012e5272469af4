"""The report-digest corpus tool: one stable ``digest argv`` line per CLI run."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_corpus_digests_repeat(tmp_path) -> None:
    tool = _tool()
    tool.write_small_specs(tmp_path)
    corpus = tool.small_corpus(terms=(tool.REDUCED_TERMS,))
    first = tool.digests(corpus, tmp_path)
    assert first == tool.digests(corpus, tmp_path)
    assert len(first) == len(tool.SMALL_COMMANDS)
    for line, argv in zip(first, corpus):
        digest, _, rest = line.partition(" ")
        assert re.fullmatch("[0-9a-f]{64}", digest)
        assert rest == " ".join(argv)
        assert argv[-2:] == ("--terms", str(tool.REDUCED_TERMS))


def test_check_names_the_lines_that_differ() -> None:
    tool = _tool()
    saved = ["a run-1", "b run-2", "c run-3"]
    assert tool.differing(saved, saved) == []
    assert tool.differing(["a run-1", "x run-2", "c run-3"], saved) == [("b run-2", "x run-2")]
    # a line more or less is a difference too
    assert tool.differing(saved[:2], saved) == [("c run-3", None)]
    assert tool.differing(saved + ["d run-4"], saved) == [(None, "d run-4")]
