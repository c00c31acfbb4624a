"""Source indexing for the code tools: snippets, definitions, refs, grep.

The symbol scanner is a line-oriented heuristic over brace-delimited
declarations (Java-like syntax), not a real parser. That is good enough
for agent consumption; fixture tests pin its behavior.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


class CodeIndex:
    def __init__(self, units: list[SourceUnit]) -> None:
        self.units = {u.path: u for u in units}
        self.symbols: list[SymbolEntry] = [s for u in units for s in u.symbols]
        # Every named lookup reads this table: each symbol under its name and
        # each method also under its name before `(`, in index order.
        self._by_name: dict[str, list[SymbolEntry]] = {}
        for s in self.symbols:
            self._by_name.setdefault(s.name, []).append(s)
            if s.kind == "method":
                self._by_name.setdefault(s.name.split("(")[0], []).append(s)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, source_root: str | Path, warn=None) -> "CodeIndex":
        root = Path(source_root)
        if not root.is_dir():
            raise EngineError("IO", f"source root not found: {root}")
        units = []
        for file in sorted(root.rglob("*")):
            if not file.is_file() or file.suffix not in DEFAULT_EXTENSIONS:
                continue
            rel = file.relative_to(root).as_posix()
            try:
                text = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                if warn is not None:
                    warn(f"skipping unreadable file {rel}: {exc}")
                continue
            units.append(SourceUnit(path=rel, text=text, symbols=_scan_file(rel, text)))
        if not units:
            raise EngineError("INDEX_EMPTY", f"no indexable files under {root}")
        return cls(units)

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
        if max_results <= 0:
            raise EngineError("BAD_ARGS", "max_results must be positive")
        if kind == "definition":
            hits = [self._decl_hit(s) for s in self._matching_symbols(query)]
        elif kind == "refs":
            hits = self._ref_hits(query)
        elif kind == "symbol":
            needle = query.lower()
            hits = [
                self._decl_hit(s) for s in self.symbols if needle in s.name.lower()
            ]
        elif kind == "text":
            try:
                pattern = re.compile(query)
            except re.error as exc:
                raise EngineError("BAD_ARGS", f"invalid regular expression: {exc}") from exc
            # every match holds `needle`, so a unit or line lacking it cannot hit
            needle = _required_literal(query)
            hits = [
                SearchHit(u.path, i, line.strip())
                for u in self.units.values()
                if needle in u.text
                for i, line in enumerate(u.text.splitlines(), 1)
                if needle in line and pattern.search(line)
            ]
        else:
            raise EngineError("BAD_ARGS", f"unknown search kind: {kind}")
        hits.sort(key=lambda h: (h.path, h.line))
        truncated = len(hits) > max_results
        return SearchResult(hits=tuple(hits[:max_results]), truncated=truncated)

    def render_search(self, kind: str, query: str, max_results: int) -> str:
        result = self.search(kind, query, max_results)
        lines = [f"{h.path}:{h.line}: {h.excerpt}" for h in result.hits]
        if result.truncated:
            lines.append(f"... results truncated at {max_results}")
        return "\n".join(lines) if lines else "(no matches)"

    def _decl_hit(self, sym: SymbolEntry) -> SearchHit:
        line = self.units[sym.file].text.splitlines()[sym.line_start - 1].strip()
        return SearchHit(sym.file, sym.line_start, line)

    def _matching_symbols(self, name: str) -> list[SymbolEntry]:
        return self._by_name.get(name, [])

    def _ref_hits(self, name: str) -> list[SearchHit]:
        token = name.split("(")[0]
        if not token:
            raise EngineError("BAD_ARGS", f"refs needs a name before `(`: {name!r}")
        decl_lines = {
            (s.file, s.line_start) for s in self._matching_symbols(name)
        }
        word = re.compile(rf"\b{re.escape(token)}\b")
        # A run of word characters in a cleaned line is also one in the raw
        # line (cleaning only empties "..." and cuts a // tail), so a unit or
        # line that lacks such a token cannot hit; other tokens scan it all.
        plain = _WORD_RE.fullmatch(token) is not None
        hits = []
        for unit in self.units.values():
            if plain and token not in unit.text:
                continue
            for i, line in enumerate(unit.text.splitlines(), 1):
                if plain and token not in line:
                    continue
                clean = _strip_line_noise(line)
                if clean.strip().startswith("*"):  # block-comment body heuristic
                    continue
                if word.search(clean) and (unit.path, i) not in decl_lines:
                    hits.append(SearchHit(unit.path, i, line.strip()))
        return hits
