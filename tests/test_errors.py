"""The error codes `EngineError` documents are the codes the engine raises."""

from __future__ import annotations

import re
from pathlib import Path

import harnessgen
from harnessgen.errors import EngineError

# a code written as the first argument of EngineError(...) or toolbus._error(...)
RAISED_CODE = re.compile(r'\b(?:EngineError|_error)\(\s*"([A-Z_]+)"')


def test_documented_codes_are_the_raised_codes():
    sources = Path(harnessgen.__file__).parent.glob("*.py")
    raised = {code for f in sources for code in RAISED_CODE.findall(f.read_text(encoding="utf-8"))}
    documented = set(re.findall(r"\b[A-Z][A-Z_]*[A-Z]\b", EngineError.__doc__.split("in use:")[1]))
    assert raised == documented
