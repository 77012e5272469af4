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
