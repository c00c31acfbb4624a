from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnessgen.docs_index import ClassDoc, DocsIndex, MethodDoc, PackageDoc, load_bundle
from harnessgen.errors import EngineError


def write_bundle(tmp_path, payload) -> str:
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_BUNDLE = {
    "packages": [
        {
            "name": "pkg",
            "doc": "a package",
            "classes": [
                {
                    "name": "Alpha",
                    "doc": "alpha class",
                    "methods": [
                        {"signature": "parse(String)", "doc": "one-arg"},
                        {"signature": "parse(String,String)", "doc": "two-arg"},
                    ],
                },
                {"name": "Beta", "methods": [{"signature": "run()"}]},
            ],
        }
    ]
}


class TestLoadBundle:
    def test_counts(self, tmp_path):
        index = DocsIndex(load_bundle(write_bundle(tmp_path, SMALL_BUNDLE)))
        assert index.counts() == {"packages": 1, "classes": 2, "methods": 3}

    def test_empty_bundle_is_valid(self, tmp_path):
        index = DocsIndex(load_bundle(write_bundle(tmp_path, {"packages": []})))
        assert index.counts()["packages"] == 0
        with pytest.raises(EngineError) as exc:
            index.query_doc("class", "Anything")
        assert exc.value.code == "NOT_FOUND"

    def test_duplicate_class_rejected(self, tmp_path):
        bad = {
            "packages": [
                {"name": "p", "classes": [{"name": "C"}, {"name": "C"}]}
            ]
        }
        with pytest.raises(EngineError) as exc:
            load_bundle(write_bundle(tmp_path, bad))
        assert exc.value.code == "PARSE"
        assert "C" in exc.value.message

    def test_missing_file(self, tmp_path):
        with pytest.raises(EngineError) as exc:
            load_bundle(tmp_path / "nope.json")
        assert exc.value.code == "IO"

    def test_throws_requires_exception_name(self, tmp_path):
        bad = {
            "packages": [
                {
                    "name": "p",
                    "classes": [
                        {"name": "C", "methods": [{"signature": "m()", "throws": [{"condition": "x"}]}]}
                    ],
                }
            ]
        }
        with pytest.raises(EngineError) as exc:
            load_bundle(write_bundle(tmp_path, bad))
        assert exc.value.code == "PARSE"


class TestQueryDoc:
    def test_method_doc_contains_signature_and_throws(self, docs_index):
        text = docs_index.query_doc("method", "ArgParser.parse(String[])")
        assert "toylib.ArgParser.parse(String[])" in text
        assert "Throws:" in text
        assert "ParseException" in text

    def test_package_qualified_method(self, docs_index):
        text = docs_index.query_doc("method", "toylib.ArgParser.parse(String[])")
        assert "parse(String[])" in text

    def test_unknown_class_suggestions(self, docs_index):
        with pytest.raises(EngineError) as exc:
            docs_index.query_doc("class", "Arg")
        assert exc.value.code == "NOT_FOUND"
        suggestions = exc.value.message.split("did you mean:")[-1].split(",")
        assert 1 <= len(suggestions) <= 5

    def test_package_summary_lists_classes(self, docs_index):
        text = docs_index.query_doc("package", "toylib")
        for name in ("ArgParser", "OptionSet", "Token"):
            assert name in text

    def test_ambiguous_class_across_packages(self, tmp_path):
        payload = {
            "packages": [
                {"name": "a", "classes": [{"name": "Dup"}]},
                {"name": "b", "classes": [{"name": "Dup"}]},
            ]
        }
        index = DocsIndex(load_bundle(write_bundle(tmp_path, payload)))
        with pytest.raises(EngineError) as exc:
            index.query_doc("class", "Dup")
        assert exc.value.code == "AMBIGUOUS"
        assert "a.Dup" in exc.value.message and "b.Dup" in exc.value.message


class TestListEntities:
    def test_packages_sorted(self, tmp_path):
        payload = {"packages": [{"name": n} for n in ("zeta", "alpha", "mid")]}
        index = DocsIndex(load_bundle(write_bundle(tmp_path, payload)))
        assert index.list_entities("packages") == ["alpha", "mid", "zeta"]

    def test_overloads_listed_separately(self, tmp_path):
        index = DocsIndex(load_bundle(write_bundle(tmp_path, SMALL_BUNDLE)))
        assert index.list_entities("methods", "Alpha") == [
            "parse(String)",
            "parse(String,String)",
        ]

    def test_unknown_parent(self, docs_index):
        with pytest.raises(EngineError) as exc:
            docs_index.list_entities("classes", "nosuch")
        assert exc.value.code == "NOT_FOUND"

    def test_missing_parent_is_bad_args(self, docs_index):
        with pytest.raises(EngineError) as exc:
            docs_index.list_entities("classes")
        assert exc.value.code == "BAD_ARGS"


def test_round_trip_every_method_reachable(docs_index):
    for pkg in docs_index.list_entities("packages"):
        for cls in docs_index.list_entities("classes", pkg):
            for sig in docs_index.list_entities("methods", f"{pkg}.{cls}"):
                text = docs_index.query_doc("method", f"{cls}.{sig}")
                assert sig.split("(")[0] in text


NESTED_BUNDLE = {
    "packages": [
        {
            "name": "java.util",
            "classes": [
                {"name": "Map", "methods": [{"signature": "size()"}]},
                {"name": "Map.Entry", "methods": [{"signature": "getKey()"}]},
            ],
        }
    ]
}


class TestPackageQualifiedNames:
    def test_nested_class_named_with_its_package(self, tmp_path):
        index = DocsIndex(load_bundle(write_bundle(tmp_path, NESTED_BUNDLE)))
        assert index.query_doc("class", "java.util.Map.Entry").splitlines()[0] == (
            "java.util.Map.Entry"
        )
        assert index.list_entities("methods", "java.util.Map.Entry") == ["getKey()"]
        assert index.query_doc("method", "java.util.Map.Entry.getKey()").startswith(
            "java.util.Map.Entry.getKey()"
        )
        assert index.list_entities("methods", "java.util.Map") == ["size()"]

    def test_two_classes_with_one_qualifier_are_ambiguous(self, tmp_path):
        payload = {
            "packages": [
                {"name": "a", "classes": [{"name": "b.C"}]},
                {"name": "a.b", "classes": [{"name": "C"}]},
            ]
        }
        index = DocsIndex(load_bundle(write_bundle(tmp_path, payload)))
        for ask in (lambda: index.query_doc("class", "a.b.C"),
                    lambda: index.list_entities("methods", "a.b.C")):
            with pytest.raises(EngineError) as exc:
                ask()
            assert exc.value.code == "AMBIGUOUS"
        assert index.query_doc("class", "b.C").startswith("a.b.C")

    def test_hint_token_is_the_method_name_before_the_parenthesis(self, tmp_path):
        payload = {
            "packages": [
                {
                    "name": "p",
                    "classes": [
                        {"name": "A", "methods": [{"signature": "emit(java.lang.String)"}]},
                        {"name": "B", "methods": [{"signature": "parse(java.lang.String)"}]},
                    ],
                }
            ]
        }
        index = DocsIndex(load_bundle(write_bundle(tmp_path, payload)))
        with pytest.raises(EngineError) as exc:
            index.query_doc("method", "B.pars(java.lang.String)")
        assert exc.value.code == "NOT_FOUND"
        assert exc.value.message == (
            "unknown method: B.pars(java.lang.String); did you mean: B.parse(java.lang.String)"
        )


class ParentResolvers(DocsIndex):
    """The resolvers as they were before a package-qualified name was read
    through the package table: a suffix scan over every method, one split of
    a class qualifier at its last dot, and a hint token cut at the last dot
    of the whole query. The reference for the equivalence test."""

    @staticmethod
    def token(prefix: str) -> str:
        return prefix.split(".")[-1].split("(")[0]

    def _suggest(self, pool: list[str], query: str) -> list[str]:
        prefix = query.lower()
        hits = sorted(name for name in pool if name.lower().startswith(prefix))
        if not hits:
            token = self.token(prefix)
            hits = sorted(name for name in pool if token and token in name.lower())
        return hits[:5]

    def _resolve_package(self, qualifier, pool):
        """The package lookup; `pool()` gives the names its caller suggests."""
        pkg = self._packages.get(qualifier)
        if pkg is None:
            suggestions = self._suggest(list(pool()), qualifier)
            hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
            raise EngineError("NOT_FOUND", f"unknown package: {qualifier}{hint}")
        return pkg

    def _resolve_class(self, qualifier):
        if "." in qualifier:
            pkg_name, _, cls_name = qualifier.rpartition(".")
            for pkg, cls in self._classes.get(cls_name, []):
                if pkg == pkg_name:
                    return pkg, cls
        candidates = self._classes.get(qualifier, [])
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            names = sorted(f"{pkg}.{cls.name}" for pkg, cls in candidates)
            raise EngineError("AMBIGUOUS", f"class {qualifier} matches: {', '.join(names)}")
        pool = [f"{pkg}.{cls.name}" for lst in self._classes.values() for pkg, cls in lst]
        pool += list(self._classes)
        suggestions = self._suggest(pool, qualifier)
        hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
        raise EngineError("NOT_FOUND", f"unknown class: {qualifier}{hint}")

    def _resolve_method(self, qualifier):
        candidates = list(self._methods.get(qualifier, []))
        if not candidates:
            for key, hits in self._methods.items():
                if qualifier.endswith("." + key):
                    pkg_prefix = qualifier[: -(len(key) + 1)]
                    candidates.extend(h for h in hits if h[0] == pkg_prefix)
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            names = sorted(f"{pkg}.{cls}.{m.signature}" for pkg, cls, m in candidates)
            raise EngineError("AMBIGUOUS", f"method {qualifier} matches: {', '.join(names)}")
        suggestions = self._suggest(list(self._methods), qualifier)
        hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
        raise EngineError("NOT_FOUND", f"unknown method: {qualifier}{hint}")


class MethodTokenResolvers(ParentResolvers):
    """The reference with the hint token cut as the method name before `(`."""

    @staticmethod
    def token(prefix: str) -> str:
        return prefix.split("(")[0].rpartition(".")[2]


ASKS = {
    "class": lambda index, q: index.query_doc("class", q),
    "method": lambda index, q: index.query_doc("method", q),
    "package": lambda index, q: index.query_doc("package", q),
    "list_classes": lambda index, q: index.list_entities("classes", q),
    "list_methods": lambda index, q: index.list_entities("methods", q),
}


def outcome(ask, index, qualifier):
    try:
        return "ok", ask(index, qualifier)
    except EngineError as exc:
        return exc.code, exc.message


def dotted(segments, most):
    return st.lists(st.sampled_from(segments), min_size=1, max_size=most).map(".".join)


@st.composite
def bundles(draw):
    """Packages and classes with dotted names from small alphabets, overloads,
    dotted signatures, one class name in several packages, and often package
    `a` with class `b.C` beside package `a.b` with class `C`: two classes
    named `a.b.C`."""
    shared = draw(dotted(("C", "b"), 2))
    signatures = st.lists(
        st.sampled_from(("m()", "m(int)", "m(a.b.C)", "mb()", "n(java.lang.String)")),
        unique=True, max_size=3,
    )
    names = draw(st.lists(dotted(("a", "b", "ab"), 3), min_size=1, max_size=4, unique=True))
    class_names = st.lists(dotted(("C", "D", "b"), 2), unique=True, max_size=3)
    classes = {name: draw(class_names) for name in names}
    if draw(st.booleans()):
        classes.setdefault("a", []).append("b.C")
        classes.setdefault("a.b", []).append("C")
    packages = []
    for name, in_package in classes.items():
        if draw(st.booleans()):
            in_package.append(shared)
        docs = tuple(
            ClassDoc(c, methods=tuple(MethodDoc(sig) for sig in draw(signatures)))
            for c in dict.fromkeys(in_package)
        )
        packages.append(PackageDoc(name, classes=docs))
    return tuple(packages)


class TestResolversMatchTheParent:
    @settings(max_examples=300, deadline=None)
    @given(packages=bundles(), data=st.data())
    def test_only_nested_classes_and_the_hint_token_change(self, packages, data):
        index = DocsIndex(packages)
        parent, method_token = ParentResolvers(packages), MethodTokenResolvers(packages)
        known = [p.name for p in packages]
        for p in packages:
            for c in p.classes:
                known += [c.name, f"{p.name}.{c.name}"]
                for m in c.methods:
                    known += [f"{c.name}.{m.signature}", f"{p.name}.{c.name}.{m.signature}"]
        unknown = st.one_of(
            st.text(alphabet="abCDmn.()", max_size=12),
            st.tuples(dotted(("a", "b", "C", "m"), 3), dotted(("a", "b", "x"), 2)).map(
                lambda parts: "{}({})".format(*parts)
            ),
        )
        queries = known + data.draw(st.lists(unknown, max_size=10))
        for kind, ask in ASKS.items():
            for q in queries:
                new, old = outcome(ask, index, q), outcome(ask, parent, q)
                if new == old:
                    continue
                named = [
                    (q[:i], cls)
                    for i, ch in enumerate(q) if ch == "." and q[:i] in index._packages
                    for cls in index._packages[q[:i]].classes if cls.name == q[i + 1 :]
                ]
                if kind in ("class", "list_methods") and any("." in c.name for _, c in named):
                    # a class whose name holds a dot, named with its package
                    if len(named) > 1:
                        assert new[0] == "AMBIGUOUS"
                    elif kind == "class":
                        assert new[0] == "ok"
                        assert new[1].splitlines()[0] == f"{named[0][0]}.{named[0][1].name}"
                    else:
                        assert new == ("ok", sorted(m.signature for m in named[0][1].methods))
                else:
                    # the hint token: it differs only when a dot follows `(`
                    assert old[0] == "NOT_FOUND" and "." in q.partition("(")[2]
                    assert new == outcome(ask, method_token, q)
