"""Source indexing for the code tools: snippets, definitions, refs, grep.

The symbol scanner is a line-oriented heuristic over brace-delimited
declarations (Java-like syntax), not a real parser. That is good enough
for agent consumption; fixture tests pin its behavior.

`CodeIndex.build` can keep each file's symbols in a JSON cache, keyed by
a digest of the file's bytes and, as a whole, by a digest of this
module's source, so that a changed scanner never reads another's rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .errors import EngineError

DEFAULT_EXTENSIONS = (".java", ".tl")

_MODIFIERS = r"(?:(?:public|private|protected|static|final|abstract|synchronized)\s+)*"
_CLASS_RE = re.compile(rf"^\s*{_MODIFIERS}(?:class|interface|enum)\s+(\w+)")
_METHOD_RE = re.compile(
    rf"^\s*{_MODIFIERS}(?:[\w<>\[\],.\s]+?\s+)?(\w+)\s*\(([^)]*)\)\s*\{{"
)
_FIELD_RE = re.compile(
    rf"^\s*{_MODIFIERS}[\w<>\[\],.]+\s+(\w+)\s*(?:=[^;]*)?;\s*$"
)
_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "new", "else", "do"}
_CONTROL_RE = re.compile(rf"\s*(?:{'|'.join(sorted(_CONTROL_KEYWORDS))})\s*\(")
_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
_WORD_RE = re.compile(r"\w+")
_BRACE_RE = re.compile(r"[{}]")
_KINDS = ("class", "method", "field")


@dataclass
class SymbolEntry:
    name: str
    kind: str  # class | method | field
    file: str
    line_start: int
    line_end: int
    container: str | None = None


@dataclass
class SourceUnit:
    path: str
    text: str
    symbols: list[SymbolEntry] = field(default_factory=list)


@dataclass(frozen=True)
class SearchHit:
    path: str
    line: int
    excerpt: str


@dataclass(frozen=True)
class SearchResult:
    hits: tuple[SearchHit, ...]
    truncated: bool


def _strip_line_noise(line: str) -> str:
    """Drop string literals and trailing // comments for matching purposes."""
    if '"' in line:
        line = _STRING_RE.sub('""', line)
    idx = line.find("//")
    if idx >= 0:
        line = line[:idx]
    return line


def _required_literal(pattern: str) -> str:
    r"""The longest run of plain characters that every match of `pattern` holds.

    A small scan of the pattern text: escaped punctuation and unescaped
    plain characters outside groups extend a run; anything else ends it,
    and a quantifier also drops the character it repeats. Patterns the
    scan cannot read safely yield "", which means a full scan: any `|`,
    `(?`, `{` or `[`, and any letter or digit escape but \b \B \A \Z
    \d \D \w \W \s \S.
    """
    best = run = ""
    depth = 0
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        literal = None
        if ch == "\\":
            nxt = pattern[i + 1 : i + 2]
            if nxt.isascii() and nxt.isalnum():
                if nxt not in "bBAZdDwWsS":
                    return ""
            else:
                literal = nxt
            i += 1
        elif ch in "|{[" or pattern.startswith("(?", i):
            return ""
        elif ch in "*+?":
            run = run[:-1]
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch not in ".^$":
            literal = ch
        i += 1
        if literal is not None and depth == 0:
            run += literal
            continue
        best = max(best, run, key=len)
        run = ""
    return max(best, run, key=len)


def _signature(name: str, params: str) -> str:
    # each parameter's first token, its type; a one-token parameter is its own
    return f"{name}({','.join([t[0] for t in map(str.split, params.split(',')) if t])})"


def _split_qualifier(qualifier: str) -> tuple[str | None, str]:
    """`[pkg.]Class.name(sig)` as (`Class` or None, `name(sig)`): the split is at
    the last dot before `(`, as dots inside `(...)` belong to the signature."""
    head = qualifier.split("(")[0]
    path, dot, name = head.rpartition(".")
    return (path.rpartition(".")[2] if dot else None), qualifier[len(head) - len(name) :]


def _scan_file(path: str, text: str) -> list[SymbolEntry]:
    symbols: list[SymbolEntry] = []
    stack: list[tuple[SymbolEntry, int]] = []  # (symbol, depth before its brace)
    open_methods = 0  # method symbols on the stack: their bodies hold no fields
    depth = 0
    in_block_comment = False

    def container() -> str | None:
        return next((sym.name for sym, _ in reversed(stack) if sym.kind == "class"), None)

    for lineno, raw in enumerate(text.splitlines(), 1):
        # Inside a method body a line with no brace, no `/` and no type
        # keyword changes nothing: only a type header or a brace opens or
        # closes a scope, fields are not read in a method, and a comment
        # opens at `/*` and closes at `*/`.
        if (
            open_methods
            and "{" not in raw
            and "}" not in raw
            and "/" not in raw
            and "class" not in raw
            and "interface" not in raw
            and "enum" not in raw
        ):
            continue
        if not in_block_comment and raw.strip() == "}":
            clean, pending = "}", None  # a lone closing brace: nothing to match
        else:
            line = raw
            if in_block_comment:
                end = line.find("*/")
                if end < 0:
                    continue
                line = line[end + 2 :]
                in_block_comment = False
            start = line.find("/*")
            if start >= 0:
                end = line.find("*/", start + 2)
                if end < 0:
                    in_block_comment = True
                    line = line[:start]
                else:
                    line = line[:start] + line[end + 2 :]
            clean = _strip_line_noise(line)
            pending: SymbolEntry | None = None
            # Each regex runs only on lines holding the literals it requires:
            # _METHOD_RE backtracks heavily on statement lines it cannot match.
            # On a control line its name group could only be the keyword, which
            # is no method, so it is not run there.
            m = (
                _CLASS_RE.match(clean)
                if "class" in clean or "interface" in clean or "enum" in clean
                else None
            )
            if m:
                pending = SymbolEntry(m.group(1), "class", path, lineno, lineno, container())
                symbols.append(pending)
            else:
                m = (
                    _METHOD_RE.match(clean)
                    if "(" in clean and "{" in clean and not _CONTROL_RE.match(clean)
                    else None
                )
                if m and m.group(1) not in _CONTROL_KEYWORDS:
                    pending = SymbolEntry(
                        _signature(m.group(1), m.group(2)), "method", path, lineno, lineno,
                        container(),
                    )
                    symbols.append(pending)
                elif not open_methods and ";" in clean:
                    m = _FIELD_RE.match(clean)
                    owner = container() if m else None
                    if owner is not None:
                        symbols.append(SymbolEntry(m.group(1), "field", path, lineno, lineno, owner))
        for ch in _BRACE_RE.findall(clean):
            if ch == "{":
                if pending is not None:
                    stack.append((pending, depth))
                    open_methods += pending.kind == "method"
                    pending = None
                depth += 1
            else:
                depth -= 1
                if stack and depth == stack[-1][1]:
                    sym, _ = stack.pop()
                    open_methods -= sym.kind == "method"
                    sym.line_end = lineno
    # unbalanced input: close any leftovers at EOF
    total_lines = text.count("\n") + 1
    for sym, _ in stack:
        sym.line_end = total_lines
    return symbols


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_cache(path: Path, scanner: str) -> dict:
    """The per-file entries of the symbol cache at `path`; {} for a cache
    that is missing, unreadable, malformed or written by another scanner."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        return {}
    if not isinstance(raw, dict) or raw.get("scanner") != scanner:
        return {}
    files = raw.get("files")
    return files if isinstance(files, dict) else {}


def _cached_symbols(path: str, text: str, entry, digest: str) -> list[SymbolEntry] | None:
    """The symbols a cache entry `[digest, rows]` holds for the file `path`,
    or None unless the entry is well-formed and for `text`, whose bytes have
    `digest`. A row is `[name, kind, line_start, line_end, container]`."""
    if not (isinstance(entry, list) and len(entry) == 2 and entry[0] == digest):
        return None
    rows = entry[1]
    if not isinstance(rows, list):
        return None
    # The lines as the scanner numbers them, and its end of a scope open at
    # EOF. `splitlines` also breaks at rarer characters than "\n", so for a
    # file holding one these bounds may fall short: a miss, never a bad row.
    breaks = text.count("\n")
    lines = breaks + (text[-1:] not in ("", "\n"))
    symbols = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 5):
            return None
        name, kind, start, end, container = row
        if not (
            type(name) is str and kind in _KINDS and type(start) is int and type(end) is int
            and 1 <= start <= lines and start <= end <= breaks + 1
            and (container is None or type(container) is str)
        ):
            return None
        symbols.append(SymbolEntry(name, kind, path, start, end, container))
    return symbols


class CodeIndex:
    def __init__(self, units: list[SourceUnit]) -> None:
        # in path-string order, which search hits sort by; `sorted(Path)`
        # puts `a/` before `a-b/`, where strings put it after
        units = sorted(units, key=lambda u: u.path)
        self.units = {u.path: u for u in units}
        self.symbols: list[SymbolEntry] = [s for u in units for s in u.symbols]
        # Every named lookup reads this table: each symbol under its name and
        # each method also under its name before `(`, in index order.
        self._by_name: dict[str, list[SymbolEntry]] = {}
        for s in self.symbols:
            self._by_name.setdefault(s.name, []).append(s)
            if s.kind == "method":
                self._by_name.setdefault(s.name.split("(")[0], []).append(s)
        # set by `build`: how many files it scanned and how many it read from
        # the cache, and (cache file, scanner digest, file digest per path)
        # when the cache differs from this index
        self.scan_counts = {"scanned": len(units), "cached": 0}
        self._cache_update: tuple[Path, str, dict[str, str]] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls, source_root: str | Path, warn=None, cache_dir: str | Path | None = None
    ) -> "CodeIndex":
        """Index every source file under `source_root`.

        With `cache_dir`, a file whose digest matches its entry in
        `<cache_dir>/code-<digest of the resolved root>.json` takes its
        symbols from there instead of the scanner. A cache that cannot be
        read or does not fit is a miss, never an error. `build` writes
        nothing: `save_cache` does, once the caller has somewhere to write.
        """
        root = Path(source_root)
        if not root.is_dir():
            raise EngineError("IO", f"source root not found: {root}")
        cache = scanner = None
        entries: dict = {}
        if cache_dir is not None:
            scanner = _digest(Path(__file__).read_bytes())
            cache = Path(cache_dir) / f"code-{_digest(os.fsencode(root.resolve()))}.json"
            entries = _read_cache(cache, scanner)
        units = []
        digests: dict[str, str] = {}
        scanned = 0
        for file in sorted(root.rglob("*")):
            if not file.is_file() or file.suffix not in DEFAULT_EXTENSIONS:
                continue
            rel = file.relative_to(root).as_posix()
            try:
                data = file.read_bytes()
                text = data.decode("utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                if warn is not None:
                    warn(f"skipping unreadable file {rel}: {exc}")
                continue
            if "\r" in text:  # universal newlines, as reading in text mode gives
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            symbols = None
            if cache is not None:
                digests[rel] = _digest(data)
                symbols = _cached_symbols(rel, text, entries.get(rel), digests[rel])
            if symbols is None:
                symbols = _scan_file(rel, text)
                scanned += 1
            units.append(SourceUnit(path=rel, text=text, symbols=symbols))
        if not units:
            raise EngineError("INDEX_EMPTY", f"no indexable files under {root}")
        index = cls(units)
        index.scan_counts = {"scanned": scanned, "cached": len(units) - scanned}
        # with every file a hit, more entries than units are files since removed
        if cache is not None and (scanned or len(entries) != len(units)):
            index._cache_update = (cache, scanner, digests)
        return index

    def save_cache(self) -> None:
        """Write the symbol cache `build` read, if it differs from this index:
        whole, to a temporary file then renamed over it. A cache that cannot
        be written stays as it was, and the next build misses it."""
        if self._cache_update is None:
            return
        path, scanner, digests = self._cache_update
        self._cache_update = None
        files = {
            u.path: [
                digests[u.path],
                [[s.name, s.kind, s.line_start, s.line_end, s.container] for s in u.symbols],
            ]
            for u in self.units.values()
        }
        data = json.dumps({"scanner": scanner, "files": files})
        with contextlib.suppress(OSError):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as out:
                    out.write(data)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise

    # -- snippet retrieval --------------------------------------------------

    def _candidates(self, kind: str, qualifier: str) -> list[SymbolEntry]:
        container, name = _split_qualifier(qualifier) if kind == "method" else (None, qualifier)
        return [
            s
            for s in self._by_name.get(name, ())
            if s.kind == kind and (container is None or s.container == container)
        ]

    def get_code(self, kind: str, qualifier: str) -> str:
        if kind not in ("method", "class"):
            raise EngineError("BAD_ARGS", f"unknown snippet kind: {kind}")
        found = self._candidates(kind, qualifier)
        if not found:
            pool = [s.name for s in self.symbols if s.kind == kind]
            prefix = _split_qualifier(qualifier)[1].split("(")[0].lower()
            suggestions = sorted({n for n in pool if n.lower().startswith(prefix)})[:5]
            hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
            raise EngineError("NOT_FOUND", f"unknown {kind}: {qualifier}{hint}")
        if len(found) > 1:
            names = sorted(f"{s.file}:{s.line_start} {s.container or ''}.{s.name}" for s in found)
            raise EngineError("AMBIGUOUS", f"{qualifier} matches: {'; '.join(names)}")
        sym = found[0]
        unit = self.units[sym.file]
        lines = unit.text.splitlines()
        body = "\n".join(lines[sym.line_start - 1 : sym.line_end])
        return f"// {sym.file}:{sym.line_start}-{sym.line_end}\n{body}"

    # -- search --------------------------------------------------------------

    def search(self, kind: str, query: str, max_results: int) -> SearchResult:
        """Hits in path and line order, the first `max_results` of them.

        Each kind is a lazy stream of hits in that order, as the units run in
        path order and a unit's symbols and lines in line order. The search
        stops at the hit past `max_results`, which only marks it truncated.
        """
        if max_results <= 0:
            raise EngineError("BAD_ARGS", "max_results must be positive")
        if kind == "definition":
            hits = map(self._decl_hit, self._by_name.get(query, ()))
        elif kind == "symbol":
            needle = query.lower()
            hits = (self._decl_hit(s) for s in self.symbols if needle in s.name.lower())
        elif kind == "refs":
            hits = self._ref_hits(query)
        elif kind == "text":
            try:
                pattern = re.compile(query)
            except re.error as exc:
                raise EngineError("BAD_ARGS", f"invalid regular expression: {exc}") from exc
            # every match holds this literal, so a unit or line lacking it cannot hit
            hits = self._line_hits(
                _required_literal(query), lambda path, i, line: pattern.search(line)
            )
        else:
            raise EngineError("BAD_ARGS", f"unknown search kind: {kind}")
        # islice takes no stop past sys.maxsize, a count no search reaches
        found = tuple(islice(hits, min(max_results + 1, sys.maxsize)))
        return SearchResult(hits=found[:max_results], truncated=len(found) > max_results)

    def render_search(self, kind: str, query: str, max_results: int) -> str:
        result = self.search(kind, query, max_results)
        lines = [f"{h.path}:{h.line}: {h.excerpt}" for h in result.hits]
        if result.truncated:
            lines.append(f"... results truncated at {max_results}")
        return "\n".join(lines) if lines else "(no matches)"

    def _decl_hit(self, sym: SymbolEntry) -> SearchHit:
        line = self.units[sym.file].text.splitlines()[sym.line_start - 1].strip()
        return SearchHit(sym.file, sym.line_start, line)

    def _line_hits(self, needle: str, matches) -> Iterator[SearchHit]:
        """A hit, in path and line order, for each line that holds `needle` and
        that `matches(path, line number, line)` accepts; a unit whose text
        lacks `needle` is not split into lines."""
        for unit in self.units.values():
            if needle in unit.text:
                for i, line in enumerate(unit.text.splitlines(), 1):
                    if needle in line and matches(unit.path, i, line):
                        yield SearchHit(unit.path, i, line.strip())

    def _ref_hits(self, name: str) -> Iterator[SearchHit]:
        token = name.split("(")[0]
        if not token:
            raise EngineError("BAD_ARGS", f"refs needs a name before `(`: {name!r}")
        decl_lines = {(s.file, s.line_start) for s in self._by_name.get(name, ())}
        word = re.compile(rf"\b{re.escape(token)}\b")

        def matches(path: str, i: int, line: str) -> bool:
            clean = _strip_line_noise(line)
            if clean.strip().startswith("*"):  # block-comment body heuristic
                return False
            return word.search(clean) is not None and (path, i) not in decl_lines

        # A run of word characters in a cleaned line is also one in the raw
        # line (cleaning only empties "..." and cuts a // tail), so a unit or
        # line that lacks such a token cannot hit; other tokens scan it all.
        return self._line_hits(token if _WORD_RE.fullmatch(token) else "", matches)
