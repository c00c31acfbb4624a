"""Documentation bundle ingestion and the six docs tools.

The bundle is a JSON file describing packages, classes, and methods of
the library under test. Once loaded, the index is immutable and all
lookups are pure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .errors import EngineError, json_input

MAX_SUGGESTIONS = 5


class MethodDoc(NamedTuple):
    signature: str
    doc: str = ""
    params: tuple[tuple[str, str], ...] = ()  # (name, description)
    returns: str = ""
    throws: tuple[tuple[str, str], ...] = ()  # (exception, condition)


class ClassDoc(NamedTuple):
    name: str
    doc: str = ""
    methods: tuple[MethodDoc, ...] = ()


class PackageDoc(NamedTuple):
    name: str
    doc: str = ""
    classes: tuple[ClassDoc, ...] = ()


def _text(raw: dict, key: str, where: str, required: bool = False) -> str:
    """`raw[key]`, or "" when absent; PARSE when it is not a string, or
    when it is empty and `required`."""
    value = raw.get(key, "")
    if not isinstance(value, str):
        raise EngineError("PARSE", f"{where}: {key} must be a string: {value!r}")
    if required and not value:
        raise EngineError("PARSE", f"{where}: {key} missing")
    return value


def _parse_method(raw: dict, where: str) -> MethodDoc:
    signature = _text(raw, "signature", f"{where}: method", required=True)
    where = f"{where}.{signature}"
    throws = []
    for entry in raw.get("throws", []):
        exc = _text(entry, "exception", f"{where}: throws entry", required=True)
        throws.append((exc, _text(entry, "condition", f"{where}: throws {exc}")))
    param = f"{where}: param"
    params = tuple(
        [(_text(p, "name", param), _text(p, "doc", param)) for p in raw.get("params", [])]
    )
    return MethodDoc(
        signature, _text(raw, "doc", where), params, _text(raw, "returns", where), tuple(throws)
    )


def load_bundle(path: str | Path) -> tuple[PackageDoc, ...]:
    with json_input(path, "docs bundle") as raw:
        if not isinstance(raw, dict) or not isinstance(raw.get("packages", []), list):
            raise EngineError("PARSE", f"{path}: top level must be an object with 'packages'")
        packages = []
        seen_pkgs: set[str] = set()
        for p in raw.get("packages", []):
            pname = _text(p, "name", f"{path}: package", required=True)
            if pname in seen_pkgs:
                raise EngineError("PARSE", f"{path}: duplicate package {pname}")
            seen_pkgs.add(pname)
            classes = []
            seen_classes: set[str] = set()
            for c in p.get("classes", []):
                cname = _text(c, "name", f"{path}: class in {pname}", required=True)
                where = f"{path}: {pname}.{cname}"
                if cname in seen_classes:
                    raise EngineError("PARSE", f"{path}: duplicate class {pname}.{cname}")
                seen_classes.add(cname)
                methods = []
                seen_sigs: set[str] = set()
                for m in c.get("methods", []):
                    method = _parse_method(m, where)
                    if method.signature in seen_sigs:
                        raise EngineError(
                            "PARSE", f"{where}: duplicate method {method.signature}"
                        )
                    seen_sigs.add(method.signature)
                    methods.append(method)
                classes.append(ClassDoc(cname, _text(c, "doc", where), tuple(methods)))
            packages.append(PackageDoc(pname, _text(p, "doc", f"{path}: {pname}"), tuple(classes)))
        return tuple(packages)


def _pick(kind: str, qualifier: str, found: list, fmt: str, pool: Callable[[], Iterable[str]]):
    """The one entry of `found`. AMBIGUOUS if there are several, each named by
    `fmt`; NOT_FOUND if none, with up to MAX_SUGGESTIONS names of `pool()` that
    start with `qualifier`, else that hold its name before `(`, case aside."""
    if len(found) == 1:
        return found[0]
    if found:
        names = ", ".join(sorted(fmt.format(*entry) for entry in found))
        raise EngineError("AMBIGUOUS", f"{kind} {qualifier} matches: {names}")
    prefix = qualifier.lower()
    token = prefix.split("(")[0].rpartition(".")[2]  # as code_index._split_qualifier
    lowered = [(n.lower(), n) for n in pool()]
    hits = [n for low, n in lowered if low.startswith(prefix)]
    hits = hits or [n for low, n in lowered if token and token in low]
    suggestions = sorted(hits)[:MAX_SUGGESTIONS]
    hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
    raise EngineError("NOT_FOUND", f"unknown {kind}: {qualifier}{hint}")


class DocsIndex:
    """Query surface over a loaded bundle's packages."""

    def __init__(self, packages: tuple[PackageDoc, ...]) -> None:
        self._packages: dict[str, PackageDoc] = {}
        self._classes: dict[str, list[tuple[str, ClassDoc]]] = {}  # Class -> [(pkg, doc)]
        self._methods: dict[str, list[tuple[str, str, MethodDoc]]] = {}  # Class.sig -> [...]
        for pkg in packages:
            self._packages[pkg.name] = pkg
            for cls in pkg.classes:
                self._classes.setdefault(cls.name, []).append((pkg.name, cls))
                for m in cls.methods:
                    key = f"{cls.name}.{m.signature}"
                    self._methods.setdefault(key, []).append((pkg.name, cls.name, m))

    @classmethod
    def from_file(cls, path: str | Path) -> "DocsIndex":
        return cls(load_bundle(path))

    # -- statistics -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        packages = self._packages.values()
        n_classes = sum(len(p.classes) for p in packages)
        n_methods = sum(len(c.methods) for p in packages for c in p.classes)
        return {"packages": len(packages), "classes": n_classes, "methods": n_methods}

    # -- lookup helpers ---------------------------------------------------

    def _in_packages(self, table: dict[str, list], qualifier: str) -> list:
        """`table`'s entries `qualifier` names as `package.key`: it is split at each
        dot whose left side is a package, and the rest is read as that package's key."""
        found = []
        dot = qualifier.find(".")
        while dot != -1:
            pkg = qualifier[:dot]
            if pkg in self._packages:
                for entry in table.get(qualifier[dot + 1 :], ()):
                    if entry[0] == pkg:
                        found.append(entry)
            dot = qualifier.find(".", dot + 1)
        return found

    def _resolve_package(self, qualifier: str, pool: Callable[[], Iterable[str]]) -> PackageDoc:
        found = [self._packages[qualifier]] if qualifier in self._packages else []
        return _pick("package", qualifier, found, "{0}", pool)

    def _resolve_class(self, qualifier: str) -> tuple[str, ClassDoc]:
        found = self._in_packages(self._classes, qualifier) or self._classes.get(qualifier, [])
        return _pick("class", qualifier, found, "{0}.{1.name}", lambda: chain(
            self._classes, (f"{p}.{c.name}" for v in self._classes.values() for p, c in v)))

    def _resolve_method(self, qualifier: str) -> tuple[str, str, MethodDoc]:
        # Class.method(Types) first, then package.Class.method(Types)
        found = self._methods.get(qualifier) or self._in_packages(self._methods, qualifier)
        return _pick("method", qualifier, found, "{0}.{1}.{2.signature}", self._methods.keys)

    # -- tools ------------------------------------------------------------

    def query_doc(self, kind: str, qualifier: str) -> str:
        if kind == "method":
            pkg, cls, m = self._resolve_method(qualifier)
            lines = [f"{pkg}.{cls}.{m.signature}"]
            if m.doc:
                lines += ["", m.doc]
            if m.params:
                lines += ["", "Parameters:"]
                lines += [f"  {name}: {doc}" for name, doc in m.params]
            if m.returns:
                lines += ["", f"Returns: {m.returns}"]
            if m.throws:
                lines += ["", "Throws:"]
                lines += [f"  {exc}: {cond}" for exc, cond in m.throws]
            return "\n".join(lines)
        if kind == "class":
            pkg, cls = self._resolve_class(qualifier)
            lines = [f"{pkg}.{cls.name}"]
            if cls.doc:
                lines += ["", cls.doc]
            if cls.methods:
                lines += ["", "Methods:"]
                lines += [f"  {m.signature}" for m in cls.methods]
            return "\n".join(lines)
        if kind == "package":
            pkg = self._resolve_package(qualifier, self._packages.keys)
            lines = [pkg.name]
            if pkg.doc:
                lines += ["", pkg.doc]
            if pkg.classes:
                lines += ["", "Classes:"]
                lines += [f"  {c.name}" for c in pkg.classes]
            return "\n".join(lines)
        raise EngineError("BAD_ARGS", f"unknown doc kind: {kind}")

    def list_entities(self, kind: str, parent: str | None = None) -> list[str]:
        if kind == "packages":
            return sorted(self._packages)
        if kind == "classes":
            if parent is None:
                raise EngineError("BAD_ARGS", "listing classes requires a package name")
            pkg = self._resolve_package(parent, lambda: ())  # a listing suggests no names
            return sorted(c.name for c in pkg.classes)
        if kind == "methods":
            if parent is None:
                raise EngineError("BAD_ARGS", "listing methods requires a class name")
            _, cls = self._resolve_class(parent)
            return sorted(m.signature for m in cls.methods)
        raise EngineError("BAD_ARGS", f"unknown listing kind: {kind}")
