"""Error type shared across the engine, and the one reader of input files.

Every failure carries a stable machine-readable code so agent loops can
react to errors as observations instead of crashing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path


class EngineError(Exception):
    """Engine failure with a stable error code.

    The codes in use: NOT_FOUND, BAD_ARGS, AMBIGUOUS, PARSE, IO, CONFIG,
    INDEX_EMPTY, ACCESS_DENIED, NOT_QUERYABLE, BACKEND_ERROR,
    SCRIPT_MISMATCH, SCRIPT_EXHAUSTED, MODEL_UNAVAILABLE, MODEL_PROTOCOL,
    PARSE_NO_CODE, PARSE_EMPTY, TARGET_NOT_FOUND, COMPILE_FAILED,
    COMPILE_TIMEOUT, FUZZ_TIMEOUT, EXEC.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@contextmanager
def json_input(path: str | Path, what: str):
    """Yield the JSON document at `path` to a loader's `with` body.

    Whatever the file holds, the loader returns or raises EngineError: a
    file that cannot be read is IO; one that does not decode, or whose
    shape the body trips over (a missing key, a value of the wrong type),
    is PARSE. An EngineError raised by the body passes through.
    """
    try:
        yield json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise EngineError("IO", f"{what} not found: {path}") from exc
    except OSError as exc:
        raise EngineError("IO", f"{path}: {exc}") from exc
    except (ValueError, TypeError, KeyError, AttributeError, IndexError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; the
        # decoder raises RecursionError on a document nested too deep
        raise EngineError("PARSE", f"{path}: {type(exc).__name__}: {exc}") from exc
