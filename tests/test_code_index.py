from __future__ import annotations

import re

import pytest

from harnessgen.code_index import CodeIndex
from harnessgen.errors import EngineError

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
