from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnessgen.code_index import (
    _CLASS_RE,
    _CONTROL_KEYWORDS,
    _FIELD_RE,
    _METHOD_RE,
    CodeIndex,
    SearchHit,
    SearchResult,
    SourceUnit,
    SymbolEntry,
    _required_literal,
    _scan_file,
    _signature,
    _strip_line_noise,
)
from harnessgen.errors import EngineError
from harnessgen.toolbus import AgentRole, ToolRequest

NESTED_SOURCE = """\
package fix;

public class Outer {
    private int counter;

    public void run(String input) {
        counter = counter + 1;
    }

    public static class Inner {
        public int value() {
            return 1;
        }
    }
}
"""

HELPER_SOURCE = """\
package fix;

public class Helper {
    public void run(String input) {
        Outer outer = new Outer();
        outer.run(input);
        outer.run(input);
        outer.run("run quoted should not count");
        // run in a comment should not count
    }
}
"""


@pytest.fixture()
def fixture_index(tmp_path) -> CodeIndex:
    (tmp_path / "Outer.java").write_text(NESTED_SOURCE, encoding="utf-8")
    (tmp_path / "Helper.java").write_text(HELPER_SOURCE, encoding="utf-8")
    return CodeIndex.build(tmp_path)


class TestBuildIndex:
    def test_units_and_symbols(self, fixture_index):
        assert set(fixture_index.units) == {"Outer.java", "Helper.java"}
        # hand-enumerated declarations in the two fixture files
        expected = {
            ("Outer", "class", None),
            ("counter", "field", "Outer"),
            ("run(String)", "method", "Outer"),
            ("Inner", "class", "Outer"),
            ("value()", "method", "Inner"),
            ("Helper", "class", None),
            ("run(String)", "method", "Helper"),
        }
        actual = {(s.name, s.kind, s.container) for s in fixture_index.symbols}
        assert actual == expected

    def test_nested_class_container(self, fixture_index):
        inner = next(s for s in fixture_index.symbols if s.name == "Inner")
        assert inner.container == "Outer"

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EngineError) as exc:
            CodeIndex.build(tmp_path)
        assert exc.value.code == "INDEX_EMPTY"

    @pytest.mark.parametrize("cached", [False, True])
    def test_files_read_as_text_mode_reads_them(self, tmp_path, cached):
        """Line ends translate as in text mode, and a file that is not UTF-8
        is skipped with the reason text mode gives."""
        root = tmp_path / "src"
        root.mkdir()
        (root / "A.java").write_bytes(b"class A {\r\n  int x;\r}\rint y;\n\r\n")
        (root / "B.java").write_bytes(b"class B { \xff }")
        warnings: list[str] = []
        index = CodeIndex.build(
            root, warn=warnings.append, cache_dir=tmp_path / "cache" if cached else None
        )
        assert index.units["A.java"].text == (root / "A.java").read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError) as exc:
            (root / "B.java").read_text(encoding="utf-8")
        assert list(index.units) == ["A.java"]
        assert warnings == [f"skipping unreadable file B.java: {exc.value}"]

    def test_toylib_sources_indexed(self, code_index):
        names = {s.name for s in code_index.symbols if s.kind == "class"}
        assert names == {"ArgParser", "OptionSet", "Token"}


class TestGetCode:
    def test_snippet_is_byte_exact(self, fixture_index):
        snippet = fixture_index.get_code("method", "Inner.value()")
        header, _, body = snippet.partition("\n")
        match = re.fullmatch(r"// (\S+):(\d+)-(\d+)", header)
        assert match
        path, start, end = match.group(1), int(match.group(2)), int(match.group(3))
        original = fixture_index.units[path].text.splitlines()[start - 1 : end]
        assert body == "\n".join(original)

    def test_ambiguous_method(self, fixture_index):
        with pytest.raises(EngineError) as exc:
            fixture_index.get_code("method", "run(String)")
        assert exc.value.code == "AMBIGUOUS"
        assert exc.value.message.count("run") >= 2

    def test_unknown_symbol(self, fixture_index):
        with pytest.raises(EngineError) as exc:
            fixture_index.get_code("method", "missing()")
        assert exc.value.code == "NOT_FOUND"

    def test_class_snippet_spans_body(self, code_index):
        snippet = code_index.get_code("class", "Token")
        assert snippet.splitlines()[1].startswith("public class Token")
        assert snippet.rstrip().endswith("}")

    @pytest.mark.parametrize(
        "qualifier", ["parse(java.lang.String)", "A.parse", "A.parse(java.lang.String)",
                      "p.A.parse(java.lang.String)"],
    )
    def test_dots_in_the_signature_are_not_the_class(self, dotted_index, qualifier):
        assert dotted_index.get_code("method", qualifier).splitlines()[1] == DOTTED_SOURCE.splitlines()[3]

    def test_hint_reads_the_name_before_the_signature(self, dotted_index):
        with pytest.raises(EngineError) as exc:
            dotted_index.get_code("method", "A.pars(java.lang.String)")
        assert exc.value.code == "NOT_FOUND"
        assert exc.value.message.endswith("; did you mean: parse(java.lang.String)")


DOTTED_SOURCE = """\
package p;

public class A {
    public void parse(java.lang.String s) {
        s.length();
    }
}
"""


@pytest.fixture()
def dotted_index(tmp_path) -> CodeIndex:
    (tmp_path / "A.java").write_text(DOTTED_SOURCE, encoding="utf-8")
    return CodeIndex.build(tmp_path)


class TestSearch:
    def test_definition_site(self, fixture_index):
        result = fixture_index.search("definition", "value", 10)
        assert len(result.hits) == 1
        assert result.hits[0].path == "Outer.java"

    def test_refs_exclude_declaration_comments_and_strings(self, fixture_index):
        # independent oracle: scan fixture text by hand for countable uses
        result = fixture_index.search("refs", "run", 20)
        helper_hits = [h for h in result.hits if h.path == "Helper.java"]
        assert len(helper_hits) == 3  # the two plain calls plus the quoted-arg call line

    def test_text_cap_and_marker(self, fixture_index):
        result = fixture_index.search("text", "run", 2)
        assert len(result.hits) == 2 and result.truncated
        rendered = fixture_index.render_search("text", "run", 2)
        assert "truncated" in rendered

    def test_invalid_regex(self, fixture_index):
        with pytest.raises(EngineError) as exc:
            fixture_index.search("text", "[unclosed", 5)
        assert exc.value.code == "BAD_ARGS"

    def test_nonpositive_cap(self, fixture_index):
        with pytest.raises(EngineError) as exc:
            fixture_index.search("symbol", "run", 0)
        assert exc.value.code == "BAD_ARGS"

    @pytest.mark.parametrize("query", ["", "(int)"])
    def test_refs_without_a_name_is_bad_args(self, fixture_index, query):
        with pytest.raises(EngineError) as exc:
            fixture_index.search("refs", query, 20)
        assert exc.value.code == "BAD_ARGS"

    def test_empty_definition_and_symbol_queries(self, fixture_index):
        assert fixture_index.search("definition", "", 20).hits == ()
        # every name holds the empty string
        assert len(fixture_index.search("symbol", "", 20).hits) == len(fixture_index.symbols)

    def test_definition_subset_of_symbol(self, code_index):
        for name in ("parse", "lookup", "of", "isFlag"):
            defs = {(h.path, h.line) for h in code_index.search("definition", name, 100).hits}
            syms = {(h.path, h.line) for h in code_index.search("symbol", name, 100).hits}
            assert defs <= syms

    def test_ordering_deterministic(self, code_index):
        first = code_index.search("text", "Option", 50)
        second = code_index.search("text", "Option", 50)
        assert first == second
        assert list(first.hits) == sorted(first.hits, key=lambda h: (h.path, h.line))

    @pytest.mark.parametrize("max_results", [2**63 - 2, 2**63 - 1, 2**63, 10**20])
    def test_a_cap_past_sys_maxsize_answers(self, registry, code_index, max_results):
        """A cap no search reaches answers as a cap of 1000 does, through the
        index and through the tool bus."""
        for kind, query in (("symbol", "parse"), ("text", "Option"), ("refs", "parse")):
            assert code_index.search(kind, query, max_results) == code_index.search(
                kind, query, 1000
            )
        args = {"name": "parse", "max_results": max_results}
        answer = registry.dispatch(AgentRole.RSH, ToolRequest("find_symbol", args))
        wanted = registry.dispatch(
            AgentRole.RSH, ToolRequest("find_symbol", {**args, "max_results": 1000})
        )
        assert answer.ok and answer == wanted


PROBE_SOURCE = """\
package fix;

public class Probe {
    public Map<String, List<Integer>> get(int a) {
        log("foo is quoted");
        // foo in a comment line
        trace(a); // foo after code
        foo_bar(xfoo);
        return null;
    }

    public void header(int a)
    {
        foo(a);
        a.b(1);
        c = a"q"b;
        run(a);
    }

    public int größe(int n) {
        return größe(n - 1);
    }

    enum Kind { A, B }
    interface Shape { }
}
"""


@pytest.fixture()
def probe_index(tmp_path) -> CodeIndex:
    (tmp_path / "Probe.java").write_text(PROBE_SOURCE, encoding="utf-8")
    return CodeIndex.build(tmp_path)


def ref_lines(index: CodeIndex, query: str) -> list[int]:
    return [h.line for h in index.search("refs", query, 50).hits]


class TestScanAndRefsExactness:
    """Hand-counted expectations over PROBE_SOURCE (line numbers from 1)."""

    def test_symbols(self, probe_index):
        actual = {(s.name, s.kind, s.line_start, s.line_end) for s in probe_index.symbols}
        assert actual == {
            ("Probe", "class", 3, 26),
            # a generic return type with a nested type argument is still a method
            ("get(int)", "method", 4, 10),
            # header(int) is absent: its `{` is on the next line
            ("größe(int)", "method", 20, 22),
            ("Kind", "class", 24, 24),
            ("Shape", "class", 25, 25),
        }

    def test_token_only_in_string_or_comment_is_no_hit(self, probe_index):
        # lines 5-7 name foo only in a literal, a comment line and a // tail;
        # line 8 has foo_bar and xfoo; line 14 is the one real use
        assert ref_lines(probe_index, "foo") == [14]

    def test_word_boundaries(self, probe_index):
        assert ref_lines(probe_index, "xfoo") == [8]
        assert ref_lines(probe_index, "foo_bar") == [8]
        assert ref_lines(probe_index, "oo") == []

    def test_non_ascii_identifier(self, probe_index):
        # the declaration on line 20 is excluded; \w and \b are Unicode, so
        # `gr` is not a word of its own inside größe
        assert ref_lines(probe_index, "größe") == [21]
        assert ref_lines(probe_index, "gr") == []

    def test_non_word_tokens_scan_cleaned_lines(self, probe_index):
        assert ref_lines(probe_index, "a.b") == [15]
        # `a""b` occurs only once line 16's literal is emptied, never in the raw text
        assert ref_lines(probe_index, 'a""b') == [16]
        # the part from `(` on is cut before matching
        assert ref_lines(probe_index, "run(") == [17]


GREP_UNITS = {
    # \x0c, \u2028 and \r\n end lines for splitlines as \n does
    "A.java": "ab(a)\x0cA.b\u2028a|b\nx [ab] {2}\r\nab*?$^\nAB ba",
    "B.java": "a.b\\a\u2028(?i)aB\x0cb+ab\nbbb {a}\n$a^ a?b",
    "C.java": "cc\n  a b \naa b2 x{2}y\nB(ab) 2a",
}


def full_scan(index: CodeIndex, pattern: str, max_results: int) -> str:
    """`render_search("text", ...)` as a per-line scan of every unit."""
    compiled = re.compile(pattern)
    hits = sorted(
        (u.path, i, line.strip())
        for u in index.units.values()
        for i, line in enumerate(u.text.splitlines(), 1)
        if compiled.search(line)
    )
    lines = [f"{path}:{i}: {excerpt}" for path, i, excerpt in hits[:max_results]]
    if len(hits) > max_results:
        lines.append(f"... results truncated at {max_results}")
    return "\n".join(lines) if lines else "(no matches)"


# one atom, then maybe a quantifier: mostly well-formed patterns with groups,
# classes, counted repeats and escapes
GREP_ATOMS = [
    "a", "b", "A", "B", " ", "2", ".", "^", "$", "|", "{", "}", "[ab]", "(ab)", "(a|b)",
    "\\.", "\\(", "\\b", "\\w", "\\d", "\\x61",
]
GREP_PATTERNS = st.one_of(
    st.text(alphabet="abAB .\\()[]|?*+{}^$", max_size=8),
    st.lists(
        st.tuples(st.sampled_from(GREP_ATOMS), st.sampled_from(["", "", "?", "*", "+", "{2}"])),
        max_size=5,
    ).map(lambda parts: "".join(atom + quantifier for atom, quantifier in parts)),
)


class TestGrepPrefilter:
    @pytest.mark.parametrize(
        "pattern, literal",
        [
            (r"Cls\.name\(", "Cls.name("),
            (r"class Root\b", "class Root"),
            (r"^int\s+total", "total"),
            ("ab*cd", "cd"),
            (r"\(?xy", "xy"),
            ("x(abc)yz", "yz"),
            ("a|b", ""),
            ("(?i)abc", ""),
            ("a[bc]d", ""),
            ("ab{2}", ""),
            (r"\x41bc", ""),
        ],
    )
    def test_required_literal(self, pattern, literal):
        assert _required_literal(pattern) == literal

    @pytest.mark.filterwarnings("ignore::FutureWarning")
    @settings(deadline=None, max_examples=500)
    @given(
        pattern=st.one_of(GREP_PATTERNS, GREP_PATTERNS.map(lambda p: "(?i)" + p)),
        max_results=st.integers(1, 5),
    )
    def test_matches_full_scan(self, pattern, max_results):
        index = CodeIndex([SourceUnit(path, text) for path, text in GREP_UNITS.items()])
        try:
            expected = full_scan(index, pattern, max_results)
        except re.error:
            with pytest.raises(EngineError) as exc:
                index.render_search("text", pattern, max_results)
            assert exc.value.code == "BAD_ARGS"
            return
        assert index.render_search("text", pattern, max_results) == expected


def old_scan_file(path: str, text: str) -> list[SymbolEntry]:
    """`_scan_file` as it was before it made the container only per symbol,
    counted open method scopes and walked only the brace characters."""
    symbols: list[SymbolEntry] = []
    stack: list[tuple[SymbolEntry, int]] = []
    depth = 0
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), 1):
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
        container = next((sym.name for sym, _ in reversed(stack) if sym.kind == "class"), None)
        pending: SymbolEntry | None = None
        m = (
            _CLASS_RE.match(clean)
            if "class" in clean or "interface" in clean or "enum" in clean
            else None
        )
        if m:
            pending = SymbolEntry(m.group(1), "class", path, lineno, lineno, container)
            symbols.append(pending)
        else:
            m = _METHOD_RE.match(clean) if "(" in clean and "{" in clean else None
            if m and m.group(1) not in _CONTROL_KEYWORDS:
                pending = SymbolEntry(
                    _signature(m.group(1), m.group(2)), "method", path, lineno, lineno, container
                )
                symbols.append(pending)
            else:
                m = _FIELD_RE.match(clean) if ";" in clean else None
                if m and container is not None and not any(
                    sym.kind == "method" for sym, _ in stack
                ):
                    symbols.append(
                        SymbolEntry(m.group(1), "field", path, lineno, lineno, container)
                    )
        if "{" not in clean and "}" not in clean:
            continue
        for ch in clean:
            if ch == "{":
                if pending is not None:
                    stack.append((pending, depth))
                    pending = None
                depth += 1
            elif ch == "}":
                depth -= 1
                if stack and depth == stack[-1][1]:
                    sym, _ = stack.pop()
                    sym.line_end = lineno
    total_lines = text.count("\n") + 1
    for sym, _ in stack:
        sym.line_end = total_lines
    return symbols


JAVA_LINES = (
    "public class Outer {",
    "final class Leaf { }",
    "interface Shape {",
    "enum Kind { A, B }",
    "static class Inner {",
    "  public int size(String s, int n) {",
    "  void run() { go(); }",
    "  private static <T> List<T> all(Map<K, V> m) {",
    "  public void header(int a)",
    "  {",
    "  int count = 0;",
    "  private final String name;",
    "  static int[] table = new int[3];",
    "    int local = 1;",
    "    if (a > 0) {",
    "    for (int i = 0; i < n; i++) {",
    "    } else {",
    "    return size(s, n);",
    "  }",
    "}",
    "}}",
    "{",
    "{ {",
    "/* a block comment opens { here",
    "   and closes } here */ int after = 2;",
    "int x; /* inline { */ int y;",
    "  */",
    "/** docs */",
    " * the size of a run, in a block-comment body",
    'String s = "a { brace";',
    'String t = "// not a comment";',
    'log("}"); // } tail',
    "x = 1; // class Hidden {",
    "",
)


class TestScanEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.lists(st.sampled_from(JAVA_LINES), min_size=1, max_size=2).map(" ".join),
            max_size=40,
        )
    )
    def test_matches_old_scanner(self, lines):
        """Java-like line mixes, some lines two fragments joined: headers with
        `{` on the same or the next line, fields in and out of methods, block
        comments opening and closing mid-line, braces and `//` in strings,
        unbalanced braces."""
        text = "\n".join(lines)
        assert _scan_file("F.java", text) == old_scan_file("F.java", text)


# Lines inside a method body that reach each path of the scanner: inert
# statements, `/` in division and in `//` tails, control headers with and
# without spaces, names that start or end like a keyword, one or two
# closing braces, braces in strings, block comments across lines, and
# local types.
BODY_LINES = (
    "int inert = 1;",
    "acc = acc + Helper.run(1, \"x\");",
    "return acc;",
    "throw new IllegalStateException(\"x\");",
    "half = total / 2;",
    "x = a /b; // {",
    "y = 1; // }",
    "// if (a) {",
    "if(x){",
    "if (acc > 1) {",
    "} else if (y) {",
    "} else {",
    "else {",
    "for (int i = 0; i < n; i++) {",
    "while (more()) {",
    "switch (k) {",
    "} catch (IOException e) {",
    "do {",
    "} while (x);",
    "return (a);",
    "new Runnable() {",
    "synchronized (lock) {",
    "format(x) {",
    "ifx(a) {",
    "doIt(a) {",
    "public int inner(int a, String b) {",
    "{",
    "}",
    "}}",
    "} }",
    "int local = 2;",
    "private int notAField;",
    's = "{";',
    't = "}" + "/*";',
    'u = "class X {";',
    "/* a comment opens {",
    "/* a comment opens",
    "   runs on } here",
    "   and ends */ x = 1;",
    "/* one line { } */",
    "/** docs */ int d = 3;",
    "class Local {",
    "enum Mode { A, B }",
    "interface Step {",
    "class Bare",
    "enum BareMode",
    "interface BareStep",
    "classify(x);",
    "",
)


class TestScanFastPaths:
    @settings(max_examples=500, deadline=None)
    @given(
        body=st.lists(
            st.tuples(st.sampled_from(("", "    ", "\t")), st.sampled_from(BODY_LINES)).map(
                "".join
            ),
            max_size=40,
        ),
        closers=st.integers(0, 3),
    )
    def test_method_bodies_match_old_scanner(self, body, closers):
        """Bodies of a method inside a class, where the inert-line skip, the
        control-line check and the brace counts apply."""
        lines = ["public class F {", "  int field = 0;", "  void m(int a) {", *body]
        lines += ["}"] * closers + ["  int after;", "  void n() {", "  }", "}"]
        text = "\n".join(lines)
        assert _scan_file("F.java", text) == old_scan_file("F.java", text)

    @given(
        params=st.lists(
            st.sampled_from(("int", "String[]", "a", "b", " ", "  ", "\t", ",", "Map<K,V>")),
            max_size=12,
        ).map("".join)
    )
    def test_signature_matches_old(self, params):
        assert _signature("f", params) == old_signature("f", params)


def old_signature(name: str, params: str) -> str:
    """`_signature` as it was before it was one comprehension."""
    types = []
    for part in params.split(","):
        part = part.strip()
        if not part:
            continue
        tokens = part.split()
        types.append(tokens[0] if len(tokens) > 1 else part)
    return f"{name}({','.join(types)})"


def old_candidates(symbols: list[SymbolEntry], kind: str, qualifier: str) -> list[SymbolEntry]:
    """`CodeIndex._candidates` as it was before it read the name table: an
    exact pass over every symbol, then a pass on the bare method name."""
    want_kind = "method" if kind == "method" else "class"
    container = None
    name = qualifier
    if kind == "method" and "." in qualifier.split("(")[0]:
        container, _, name = qualifier.rpartition(".")
        container = container.split(".")[-1]
    exact = [
        s
        for s in symbols
        if s.kind == want_kind
        and s.name == name
        and (container is None or s.container == container)
    ]
    if exact or kind != "method" or "(" in qualifier:
        return exact
    return [
        s
        for s in symbols
        if s.kind == "method"
        and s.name.split("(")[0] == name
        and (container is None or s.container == container)
    ]


def old_matching_symbols(symbols: list[SymbolEntry], name: str) -> list[SymbolEntry]:
    """The symbols a definition search for `name` finds, by a linear filter."""
    return [
        s
        for s in symbols
        if s.name == name or (s.kind == "method" and s.name.split("(")[0] == name)
    ]


# Names shared by classes, fields and methods (a constructor's name is its
# class's), and parameter lists with and without dots; a method's name, as
# the scanner makes it, always holds `(`.
LOOKUP_NAMES = st.sampled_from(("A", "B", "parse", "run", ""))
LOOKUP_CONTAINERS = st.sampled_from((None, "A", "B"))
LOOKUP_PARAMS = ("", "int", "int,String", "String[]")
LOOKUP_SYMBOLS = st.lists(
    st.one_of(
        st.builds(lambda n, c: SymbolEntry(n, "class", "F.java", 1, 1, c),
                  LOOKUP_NAMES, LOOKUP_CONTAINERS),
        st.builds(lambda n, c: SymbolEntry(n, "field", "F.java", 1, 1, c),
                  LOOKUP_NAMES, st.sampled_from(("A", "B"))),
        st.builds(lambda n, p, c: SymbolEntry(f"{n}({p})", "method", "F.java", 1, 1, c),
                  LOOKUP_NAMES, st.sampled_from((*LOOKUP_PARAMS, "java.lang.String")),
                  LOOKUP_CONTAINERS),
    ),
    max_size=30,
)
# with and without a class (and package) prefix, with and without `(`, and
# no dot inside the parentheses, where the old split cut the signature
LOOKUP_QUALIFIERS = st.tuples(
    st.sampled_from(("", "A.", "B.", "C.", "p.A.", "q.r.B.", ".")),
    LOOKUP_NAMES,
    st.one_of(st.just(""), st.sampled_from(LOOKUP_PARAMS).map(lambda p: f"({p})")),
).map("".join)


class TestNameTable:
    @settings(max_examples=500, deadline=None)
    @given(symbols=LOOKUP_SYMBOLS, split=st.integers(0, 30), qualifier=LOOKUP_QUALIFIERS)
    def test_lookups_match_linear_filters(self, symbols, split, qualifier):
        index = CodeIndex([
            SourceUnit("A.java", "", symbols[:split]), SourceUnit("B.java", "", symbols[split:])
        ])

        def ids(found: list[SymbolEntry]) -> list[int]:
            return [id(s) for s in found]

        for kind in ("method", "class"):
            assert ids(index._candidates(kind, qualifier)) == ids(
                old_candidates(index.symbols, kind, qualifier)
            )
        assert ids(index._by_name.get(qualifier, [])) == ids(
            old_matching_symbols(index.symbols, qualifier)
        )


# Paths whose string order differs from `sorted(Path)` order: as strings
# `a-b/` and `a.b/` sort before `a/`, as paths after it
TREE_PATHS = (
    "A.java", "a/B.java", "a-b/C.java", "a.b/D.tl", "a/b/E.java", "a/b-c/F.java", "Z.tl",
)
JAVA_FILES = st.lists(st.sampled_from(JAVA_LINES), max_size=30).map("\n".join)
TREES = st.dictionaries(st.sampled_from(TREE_PATHS), JAVA_FILES, min_size=1)


def write_tree(root: Path, tree: dict[str, str]) -> None:
    for rel, text in tree.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def contents(index: CodeIndex):
    """Everything a build decides: units, their symbols, and all in order."""
    return [(u.path, u.text, u.symbols) for u in index.units.values()], index.symbols


def counted_build(root: Path, cache: Path) -> tuple[CodeIndex, list]:
    """A cached build and the (path, text) of each file it scanned."""
    with mock.patch("harnessgen.code_index._scan_file", wraps=_scan_file) as scan:
        index = CodeIndex.build(root, cache_dir=cache)
    return index, [c.args for c in scan.call_args_list]


class TestSymbolCache:
    @settings(max_examples=100, deadline=None)
    @given(tree=TREES)
    def test_warm_build_equals_cold(self, tree):
        with tempfile.TemporaryDirectory() as tmp:
            root, cache = Path(tmp, "src"), Path(tmp, "cache")
            write_tree(root, tree)
            cold = CodeIndex.build(root)
            first, scanned = counted_build(root, cache)
            assert first.scan_counts == {"scanned": len(tree), "cached": 0}
            assert sorted(path for path, _ in scanned) == sorted(tree)
            assert contents(first) == contents(cold)
            assert not cache.exists()  # build reads; save_cache writes
            first.save_cache()
            warm, scanned = counted_build(root, cache)
            assert scanned == [] and warm.scan_counts == {"scanned": 0, "cached": len(tree)}
            assert contents(warm) == contents(cold)

    @settings(max_examples=100, deadline=None)
    @given(tree=TREES, data=st.data())
    def test_an_edited_file_alone_is_rescanned(self, tree, data):
        rel = data.draw(st.sampled_from(sorted(tree)))
        text = data.draw(JAVA_FILES.filter(lambda t: t != tree[rel]))
        with tempfile.TemporaryDirectory() as tmp:
            root, cache = Path(tmp, "src"), Path(tmp, "cache")
            write_tree(root, tree)
            CodeIndex.build(root, cache_dir=cache).save_cache()
            write_tree(root, {rel: text})
            edited, scanned = counted_build(root, cache)
            assert scanned == [(rel, text)]
            assert edited.scan_counts == {"scanned": 1, "cached": len(tree) - 1}
            assert contents(edited) == contents(CodeIndex.build(root))
            edited.save_cache()
            assert counted_build(root, cache)[1] == []

    def test_a_removed_file_leaves_the_cache(self, tmp_path):
        root, cache = tmp_path / "src", tmp_path / "cache"
        write_tree(root, {"A.java": NESTED_SOURCE, "B.java": HELPER_SOURCE})
        CodeIndex.build(root, cache_dir=cache).save_cache()
        (root / "B.java").unlink()
        index, scanned = counted_build(root, cache)
        assert scanned == [] and index.scan_counts == {"scanned": 0, "cached": 1}
        index.save_cache()
        (path,) = cache.iterdir()
        assert list(json.loads(path.read_text())["files"]) == ["A.java"]

    def test_an_unchanged_tree_rewrites_nothing(self, tmp_path):
        root, cache = tmp_path / "src", tmp_path / "cache"
        write_tree(root, {"A.java": NESTED_SOURCE})
        CodeIndex.build(root, cache_dir=cache).save_cache()
        (path,) = cache.iterdir()
        before = path.stat()
        CodeIndex.build(root, cache_dir=cache).save_cache()
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert list(cache.iterdir()) == [path]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw, text: text[: len(text) // 2],  # truncated
            lambda raw, text: "[]",
            lambda raw, text: json.dumps({**raw, "files": []}),
            lambda raw, text: json.dumps({**raw, "scanner": "0" * 64}),
            lambda raw, text: json.dumps({**raw, "files": {
                path: ["0" * 64, rows] for path, (_, rows) in raw["files"].items()}}),
            lambda raw, text: json.dumps({**raw, "files": {
                path: [digest] for path, (digest, _) in raw["files"].items()}}),
            lambda raw, text: json.dumps({**raw, "files": {
                path: [digest, {}] for path, (digest, _) in raw["files"].items()}}),
            *(
                lambda raw, text, i=i, bad=bad: json.dumps({**raw, "files": {
                    path: [digest, [row[:i] + [bad] + row[i + 1:] for row in rows]]
                    for path, (digest, rows) in raw["files"].items()}})
                for i, bad in ((0, 7), (1, "enum"), (1, ["class"]), (2, "3"), (3, True),
                               (4, 1), (5, None))
            ),
            lambda raw, text: json.dumps({**raw, "files": {
                path: [digest, [row[:4] for row in rows]]
                for path, (digest, rows) in raw["files"].items()}}),
            lambda raw, text: "[" * 100_000 + "]" * 100_000,
            lambda raw, text: b"\xff".decode("latin-1"),
        ],
        ids=["truncated", "not-an-object", "files-not-an-object", "foreign-scanner",
             "file-digest", "entry-without-rows", "rows-not-a-list", "name-not-a-string",
             "unknown-kind", "kind-unhashable", "line-not-an-int", "line-a-bool",
             "container-not-a-string", "row-too-long", "row-too-short", "nested-too-deep",
             "not-utf-8"],
    )
    def test_a_bad_cache_gives_the_cold_index(self, tmp_path, corrupt):
        root, cache = tmp_path / "src", tmp_path / "cache"
        write_tree(root, {"A.java": NESTED_SOURCE, "b/B.java": HELPER_SOURCE,
                          "b/P.java": PROBE_SOURCE})
        CodeIndex.build(root, cache_dir=cache).save_cache()
        (path,) = cache.iterdir()
        text = path.read_text(encoding="utf-8")
        path.write_text(corrupt(json.loads(text), text), encoding="latin-1")
        index, scanned = counted_build(root, cache)
        assert len(scanned) == 3 and index.scan_counts == {"scanned": 3, "cached": 0}
        assert contents(index) == contents(CodeIndex.build(root))
        index.save_cache()  # the next build reads what this one scanned
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize(
        "start, end", [(40, 41), (0, 3), (5, 5), (3, 2), (2, 6)],
        ids=["past-the-file", "line-zero", "start-past-the-last-line", "end-before-start",
             "end-past-eof"],
    )
    def test_a_row_outside_its_file_is_a_miss(self, tmp_path, start, end):
        root, cache = tmp_path / "src", tmp_path / "cache"
        write_tree(root, {"A.java": "class A {\n    void run() {\n    }\n}\n"})
        CodeIndex.build(root, cache_dir=cache).save_cache()
        (path,) = cache.iterdir()
        raw = json.loads(path.read_text(encoding="utf-8"))
        rows = raw["files"]["A.java"][1]
        assert rows[1][:4] == ["run()", "method", 2, 3]
        rows[1][2:4] = [start, end]
        path.write_text(json.dumps(raw), encoding="utf-8")
        index, scanned = counted_build(root, cache)
        assert len(scanned) == 1 and index.scan_counts == {"scanned": 1, "cached": 0}
        assert contents(index) == contents(CodeIndex.build(root))
        assert index.render_search("definition", "run", 5) == "A.java:2: void run() {"
        assert index.get_code("method", "run") == "// A.java:2-3\n    void run() {\n    }"

    def test_an_unwritable_cache_is_a_miss(self, tmp_path):
        root, cache = tmp_path / "src", tmp_path / "cache"
        write_tree(root, {"A.java": NESTED_SOURCE})
        cache.write_text("a file where the cache directory would be")
        index = CodeIndex.build(root, cache_dir=cache)
        index.save_cache()
        assert index.scan_counts == {"scanned": 1, "cached": 0}
        assert contents(index) == contents(CodeIndex.build(root))
        assert cache.read_text() == "a file where the cache directory would be"

    def test_roots_have_their_own_caches(self, tmp_path):
        cache = tmp_path / "cache"
        for name in ("one", "two"):
            write_tree(tmp_path / name, {"A.java": NESTED_SOURCE})
            CodeIndex.build(tmp_path / name, cache_dir=cache).save_cache()
        assert len(list(cache.iterdir())) == 2


def old_search(index: CodeIndex, kind: str, query: str, max_results: int) -> str:
    """`render_search` as it was before each search stopped at its answer and
    the hits went unsorted: every line and symbol tried, every hit made,
    sorted, then cut. `refs` keeps a line whose cleaned text holds the name
    before `(` as a word, unless it looks like a block-comment body or a
    definition of `query` starts on it."""
    if kind == "refs":
        word = re.compile(rf"\b{re.escape(query.split('(')[0])}\b")
        decls = {(s.file, s.line_start) for s in old_matching_symbols(index.symbols, query)}
        found = [
            (u.path, i, line.strip())
            for u in index.units.values()
            for i, line in enumerate(u.text.splitlines(), 1)
            if not _strip_line_noise(line).strip().startswith("*")
            and word.search(_strip_line_noise(line))
            and (u.path, i) not in decls
        ]
    elif kind == "text":
        found = [
            (u.path, i, line.strip())
            for u in index.units.values()
            for i, line in enumerate(u.text.splitlines(), 1)
            if re.search(query, line)
        ]
    else:
        if kind == "definition":
            symbols = old_matching_symbols(index.symbols, query)
        else:
            symbols = [s for s in index.symbols if query.lower() in s.name.lower()]
        found = [
            (s.file, s.line_start, index.units[s.file].text.splitlines()[s.line_start - 1].strip())
            for s in symbols
        ]
    hits = sorted(found, key=lambda h: h[:2])
    lines = [f"{path}:{line}: {excerpt}" for path, line, excerpt in hits[:max_results]]
    if len(hits) > max_results:
        lines.append(f"... results truncated at {max_results}")
    return "\n".join(lines) if lines else "(no matches)"


class TestSearchStopsAtItsAnswer:
    @settings(max_examples=200, deadline=None)
    @given(
        tree=TREES,
        kind=st.sampled_from(("definition", "symbol", "refs", "text")),
        query=st.sampled_from(("", "e", "a", "size", "run", "Outer", "Inner", "count", "x",
                               "size(String,int)", "run()", "NOPE")),
        max_results=st.integers(1, 6),
    )
    def test_matches_build_all_sort_truncate(self, tree, kind, query, max_results):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(Path(tmp), tree)
            index = CodeIndex.build(tmp)
        if kind == "refs" and not query:
            with pytest.raises(EngineError) as exc:
                index.render_search(kind, query, max_results)
            assert exc.value.code == "BAD_ARGS"
            return
        assert index.render_search(kind, query, max_results) == old_search(
            index, kind, query, max_results
        )


class Unreadable(str):
    """Source text that fails the test if a search reads it."""

    def splitlines(self, *args, **kwargs):
        raise AssertionError("the search read a unit past its answer")

    def __contains__(self, item):
        raise AssertionError("the search read a unit past its answer")


class TestSearchIsLazy:
    @pytest.mark.parametrize("kind, query", [("refs", "run"), ("text", "run"), ("text", "r.n")])
    def test_a_full_answer_reads_no_further_unit(self, kind, query):
        index = CodeIndex([
            SourceUnit("A.java", "run();\nrun();\n"), SourceUnit("B.java", Unreadable("run();\n"))
        ])
        assert index.search(kind, query, 1) == SearchResult(
            hits=(SearchHit("A.java", 1, "run();"),), truncated=True
        )
