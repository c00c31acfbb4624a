"""Seeded synthetic library for the `synth-workflow` and `synth-tools` workloads.

Writes, in the demo's formats, everything a run needs: a docs bundle,
`.tl` sources, call facts, a sandbox spec, a model script and a config.
It also writes what the benchmark checks outputs against: the expected
run (`expect.json`) and the `synth-tools` call stream with the result
each call must give (`calls.json`). Every expectation is derived here,
from what the generator wrote, never from the engine's output. The same
seed gives byte-identical files.

    python3 bench/synthlib.py --seed 7 --out lib
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

LIBRARY = "synlib"
PACKAGE_WORDS = ("codec", "io", "net", "text", "time", "util", "crypto", "image", "sql", "xml")
ADJECTIVES = (
    "Abstract", "Basic", "Buffered", "Cached", "Chunked", "Compact", "Default", "Delta",
    "Direct", "Fixed", "Framed", "Indexed", "Lazy", "Linked", "Mapped", "Native",
    "Ordered", "Packed", "Pooled", "Raw", "Safe", "Sparse", "Strict", "Typed", "Wrapped",
)
NOUNS = (
    "Buffer", "Builder", "Cache", "Channel", "Codec", "Cursor", "Decoder", "Encoder",
    "Filter", "Frame", "Handler", "Header", "Index", "Lexer", "Loader", "Map", "Parser",
    "Reader", "Record", "Registry", "Scanner", "Session", "Stream", "Table", "Writer",
)
VERBS = (
    "read", "write", "parse", "decode", "encode", "load", "store", "flush", "reset",
    "check", "apply", "merge", "split", "scan", "open", "close", "seek", "mark", "copy",
    "fill", "drain", "resolve", "index", "emit",
)
OBJECTS = (
    "Header", "Frame", "Chunk", "Block", "Entry", "Field", "Token", "Value", "Record",
    "Range", "Offset", "Length", "Name", "Key", "Bytes", "Line", "State", "Limit", "Mode",
    "Table", "Slot", "Page", "Node", "Tag", "Word",
)
PARAM_TYPES = ("String", "int", "long", "byte[]", "boolean")
LITERALS = {"String": '"x"', "int": "1", "long": "1L", "byte[]": "null", "boolean": "true"}
EXCEPTIONS = ("IllegalStateException", "IllegalArgumentException", "IOException")

ROLES = ("RSH", "GEN", "PAT", "CVA", "REF")
# The paper's access matrix for the non-uniform tools: docs and code tools
# are open to every role; anything not listed here is denied.
ALLOWED = {"path_to_method": {"CVA"}}
STATIC_ONLY = {"reach_methods": {"CVA"}, "compile": {"PAT"}, "fuzz": {"CVA"}}

DEPTH_LIMIT = 10
CRASH_MARK = "CRASH_PROBE"


# The library's shape: 10 x 50 classes of 10 methods, each calling three
# random methods besides its spanning-tree callees; the run has four fuzz
# rounds and a crash in round 2; calls.json holds 400 sessions.
PACKAGES = 10
CLASSES_PER_PACKAGE = 50
METHODS_PER_CLASS = 10
EXTRA_CALLS = 3
ROUNDS = 4
CRASH_ROUND = 2
SESSIONS = 400


@dataclass
class Method:
    package: str  # synlib.codec
    cls: str  # BufferedReader, unique across the library
    name: str  # readHeader, unique within its class
    params: tuple[str, ...]
    throws: str | None
    callees: list[int] = field(default_factory=list)
    lines_total: int = 0
    branches_total: int = 0

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(self.params)})"

    @property
    def qualified(self) -> str:
        """Class.sig, the qualifier form the docs and code tools take."""
        return f"{self.cls}.{self.signature}"

    @property
    def id(self) -> str:
        """Call-facts id, package.Class.sig."""
        return f"{self.package}.{self.cls}.{self.signature}"

    @property
    def doc(self) -> str:
        return f"{self.name[0].upper()}{self.name[1:]} step of the {self.cls} pipeline."


# -- library ------------------------------------------------------------------


def build_methods(rng: random.Random) -> list[Method]:
    """Methods in call order: index 0 is the root (the run's target)."""
    packages = [f"{LIBRARY}.{w}" for w in PACKAGE_WORDS[:PACKAGES]]
    class_names = rng.sample([a + n for a in ADJECTIVES for n in NOUNS],
                             PACKAGES * CLASSES_PER_PACKAGE)
    method_names = [v + o for v in VERBS for o in OBJECTS]
    methods = [
        Method(
            package=packages[ci // CLASSES_PER_PACKAGE],
            cls=cls,
            name=name,
            params=tuple(rng.choice(PARAM_TYPES) for _ in range(rng.randint(0, 3))),
            throws=rng.choice(EXCEPTIONS) if rng.random() < 0.3 else None,
        )
        for ci, cls in enumerate(class_names)
        for name in rng.sample(method_names, METHODS_PER_CLASS)
    ]
    # A seeded call order, so call structure does not follow names.
    rng.shuffle(methods)
    # Spanning tree: method k is called by one of the first k/3, so every
    # method is within log3(n) + 1 < DEPTH_LIMIT calls of the root and the
    # callgraph holds the whole library.
    for k in range(1, len(methods)):
        methods[rng.randint(0, k // 3)].callees.append(k)
    for i, m in enumerate(methods):
        extra: set[int] = set()
        while len(extra) < EXTRA_CALLS:
            j = rng.randrange(len(methods))
            if j != i and j not in m.callees:
                extra.add(j)
        m.callees = sorted(m.callees + list(extra))
    return methods


def _method_lines(m: Method, methods: list[Method]) -> list[str]:
    args = ", ".join(f"{t} a{i}" for i, t in enumerate(m.params))
    body = ["        int acc = 0;"]
    branches = 0
    for k, j in enumerate(m.callees):
        callee = methods[j]
        call = (
            f"acc = acc + {callee.cls}.{callee.name}"
            f"({', '.join(LITERALS[t] for t in callee.params)});"
        )
        if k % 2:
            branches += 2
            body += [f"        if (acc > {k}) {{", f"            {call}", "        }"]
        else:
            body.append(f"        {call}")
    if m.throws:
        branches += 2
        body += [
            "        if (acc < 0) {",
            f'            throw new {m.throws}("negative accumulator");',
            "        }",
        ]
    body.append("        return acc;")
    m.lines_total = len(body)
    m.branches_total = branches
    return [f"    /* {m.doc} */", f"    public int {m.name}({args}) {{", *body, "    }", ""]


def sources(methods: list[Method]) -> dict[str, str]:
    """One `.tl` file per class; also sets each method's line and branch totals."""
    by_class: dict[tuple[str, str], list[Method]] = {}
    for m in methods:
        by_class.setdefault((m.package, m.cls), []).append(m)
    files = {}
    for (package, cls), members in sorted(by_class.items()):
        lines = [
            f"package {package};",
            "",
            f"/* {cls} of the {package} package. */",
            f"public class {cls} {{",
            "    private int state;",
            "",
        ]
        for m in sorted(members, key=lambda m: m.signature):
            lines += _method_lines(m, methods)
        lines.append("}")
        files[f"{package.replace('.', '/')}/{cls}.tl"] = "\n".join(lines) + "\n"
    return files


def docs_bundle(methods: list[Method]) -> dict:
    tree: dict[str, dict[str, list[Method]]] = {}
    for m in methods:
        tree.setdefault(m.package, {}).setdefault(m.cls, []).append(m)
    return {
        "packages": [
            {
                "name": package,
                "doc": f"The {package.rpartition('.')[2]} layer of the synthetic library.",
                "classes": [
                    {
                        "name": cls,
                        "doc": f"{cls} of the {package} package.",
                        "methods": [
                            _method_doc(m) for m in sorted(members, key=lambda m: m.signature)
                        ],
                    }
                    for cls, members in sorted(classes.items())
                ],
            }
            for package, classes in sorted(tree.items())
        ]
    }


def _method_doc(m: Method) -> dict:
    entry: dict = {
        "signature": m.signature,
        "doc": m.doc,
        "params": [{"name": f"a{i}", "doc": f"{t} argument"} for i, t in enumerate(m.params)],
        "returns": "accumulated status",
    }
    if m.throws:
        entry["throws"] = [{"exception": m.throws, "condition": "the accumulator goes negative"}]
    return entry


def call_facts(methods: list[Method]) -> dict:
    return {
        "methods": [
            {"id": m.id, "class": f"{m.package}.{m.cls}"} for m in sorted(methods, key=lambda m: m.id)
        ],
        "calls": [[m.id, methods[j].id] for m in methods for j in m.callees],
    }


# -- sandbox, script and the expected run ------------------------------------------


def coverage_rules(rng: random.Random, methods: list[Method]) -> list[dict]:
    """Rule `COV_R<r>` covers a slice of the library; round r's harness
    carries the markers of rounds 0..r, so coverage grows every round.
    Slices follow call order, shallow methods first. The warm-up rule
    fires outside the recording window, so its events must not count."""
    chunk = len(methods) // (2 * ROUNDS)

    def fractions(picked, full=False):
        return {
            m.id: {
                "line_fraction": 1.0 if full else round(rng.uniform(0.3, 1.0), 3),
                "branch_fraction": 1.0 if full else round(rng.uniform(0.0, 1.0), 3),
            }
            for m in picked
        }

    rules = [
        {"pattern": f"COV_R{r}", "methods": fractions(methods[r * chunk : (r + 1) * chunk])}
        for r in range(ROUNDS)
    ]
    rules.append(
        {"pattern": "WARMUP", "in_window": False, "methods": fractions(methods[-chunk:], True)}
    )
    return rules


def expected_percent(methods: list[Method], rules: list[dict], markers: set[str], kind: str) -> float:
    """Coverage the sandbox must report for a harness carrying `markers`."""
    totals = {
        m.id: m.lines_total if kind == "line" else m.branches_total for m in methods
    }
    hit: dict[str, int] = {}
    for rule in rules:
        if rule["pattern"] in markers and rule.get("in_window", True):
            for mid, fr in rule["methods"].items():
                sites = math.ceil(fr[f"{kind}_fraction"] * totals[mid])
                hit[mid] = max(hit.get(mid, 0), min(totals[mid], sites))
    return 100.0 * sum(hit.values()) / sum(totals.values())


def _markers(r: int) -> list[str]:
    marks = [f"COV_R{i}" for i in range(r + 1)] + ["WARMUP"]
    return marks + [CRASH_MARK] if r == CRASH_ROUND else marks


def _harness(version: int, markers: list[str], broken: bool = False) -> str:
    head = ["import synlib.Missing; // BROKEN_IMPORT"] if broken else []
    return "\n".join(
        [
            "```",
            f"// harness v{version}: {' '.join(markers)}",
            *head,
            "void fuzzTarget(byte[] data) {",
            "    Inputs in = Inputs.of(data);",
            *(f"    Drivers.exercise(in, \"{mark}\");" for mark in markers),
            "}",
            "```",
            "DEPENDENCIES:",
            f"{LIBRARY}:{LIBRARY}:1.0",
        ]
    )


REPORT = """## Target Overview
{target} drives the {cls} pipeline.

## Initialization Requirements
{cls} needs no set-up beyond its defaults.

## Input Construction
Derive every argument from the fuzzer bytes.

## Exception Contract
{exc} signals a rejected input and is expected.

## API Paths Of Interest
{callee} is called directly from the target.

## Open Risks
Deep helpers are reached only through chained calls."""


def script_and_expectation(methods: list[Method], rules: list[dict]) -> tuple[list, dict]:
    root = methods[0]
    callee = methods[root.callees[0]]
    probes = [methods[i] for i in range(len(methods) - ROUNDS, len(methods))]
    turns: list[dict] = [
        {
            "expect_contains": root.qualified,
            "text": "Reading the class contract and the target's source.",
            "tool_calls": [
                {"tool": "class_doc", "args": {"qualifier": f"{root.package}.{root.cls}"}},
                {"tool": "get_method_code", "args": {"qualifier": root.qualified}},
            ],
        },
        {
            "expect_contains": f"public int {root.name}(",
            "text": "Finding where the first callee is declared and used.",
            "tool_calls": [
                {"tool": "find_definition", "args": {"symbol": callee.name}},
                {"tool": "find_refs", "args": {"symbol": callee.name}},
            ],
        },
        {
            "expect_contains": callee.name,
            "text": "Locating the class declaration.",
            "tool_calls": [
                {"tool": "grep", "args": {"pattern": rf"class {root.cls}\b"}},
                {"tool": "find_symbol", "args": {"name": root.cls}},
            ],
        },
        {
            "expect_contains": f"class {root.cls}",
            "text": REPORT.format(
                target=root.qualified, cls=root.cls, callee=callee.qualified,
                exc=root.throws or "IllegalArgumentException",
            ),
        },
        {"expect_contains": "research report",
         "text": _harness(1, _markers(0), broken=True)},
        {"expect_contains": "cannot resolve import", "text": _harness(2, _markers(0))},
    ]
    transitions = ["research", "generate", "compile", "patch", "compile"]
    rounds = []
    for r in range(ROUNDS):
        last = r == ROUNDS - 1
        if r == 0:
            expect = "## depth"
        elif r == CRASH_ROUND:
            expect = "1 crashes, 1 unique"
        else:
            expect = "line coverage delta"
        probe = probes[r]
        turns.append(
            {
                "expect_contains": expect,
                "text": "Checking how the root reaches an uncovered method.",
                "tool_calls": [{"tool": "path_to_method", "args": {"target": probe.id}}],
            }
        )
        priority = [] if last else sorted(rules[r + 1]["methods"])[:3]
        decision = {
            "decision": "stop" if last else "continue",
            "rationale": "coverage plateaued" if last else "the next slice is uncovered",
            "priority_methods": priority,
            "strategy": "" if last else f"exercise the COV_R{r + 1} drivers",
        }
        turns.append(
            {"expect_contains": probe.id, "text": "```json\n" + json.dumps(decision) + "\n```"}
        )
        markers = set(_markers(r))
        rounds.append(
            {
                "decision": decision["decision"],
                "crash_count": int(r == CRASH_ROUND),
                "line_percent": expected_percent(methods, rules, markers, "line"),
                "branch_percent": expected_percent(methods, rules, markers, "branch"),
            }
        )
        transitions += ["fuzz", "analyze"]
        if not last:
            turns.append(
                {"expect_contains": priority[0], "text": _harness(3 + r, _markers(r + 1))}
            )
            transitions += ["refine", "compile"]
    transitions.append("done")
    expect = {
        "outcome": "success",
        "transitions": transitions,
        "rounds": rounds,
        "harness_versions": 2 + ROUNDS - 1,
        "methods": len(methods),
    }
    return turns, expect


def sandbox_spec(methods: list[Method], rules: list[dict]) -> dict:
    return {
        "docs_bundle": "docs.json",
        "source_root": "src",
        "facts": "facts.json",
        "entrypoint": "fuzzTarget",
        "scope": "method_targeted",
        "method_totals": {
            m.id: {"lines_total": m.lines_total, "branches_total": m.branches_total}
            for m in sorted(methods, key=lambda m: m.id)
        },
        "compile_rules": [
            {"pattern": "fuzzTarget", "when": "absent",
             "diagnostic": {"file": "Harness.tl", "line": 1,
                            "message": "missing entrypoint fuzzTarget", "severity": "error"}},
            {"pattern": "BROKEN_IMPORT", "when": "present",
             "diagnostic": {"file": "Harness.tl", "line": 2,
                            "message": "cannot resolve import synlib.Missing", "severity": "error"}},
        ],
        "coverage_rules": rules,
        "crash_rules": [
            {"pattern": CRASH_MARK, "summary": f"NullPointerException in {methods[1].id}"},
            {"pattern": "NEVER_EMITTED", "summary": "unreachable crash rule"},
        ],
    }


def config(root: Method) -> dict:
    return {
        "target": {
            "library_name": LIBRARY,
            "library_version": "1.0",
            "target_class": root.cls,
            "target_method": root.signature,
        },
        "model": {"backend": "scripted", "script": "script.json",
                  "rate_in": 3e-06, "rate_out": 1.5e-05},
        "budgets": {"depth_limit": DEPTH_LIMIT, "max_rounds": ROUNDS + 1,
                    "max_patch_rounds": 3, "fuzz_seconds": 5, "wall_seconds": 3600},
        "adapter": {"sandbox_spec": "sandbox.json"},
        "output_dir": "runs",
    }


# -- synth-tools call stream ----------------------------------------------------------

# One session: 25 dispatches that touch all 16 tools, in a fixed mix, so
# every session does the same kinds of work and only the targets differ.
# The mix is an assumption: no record of agent traffic exists to draw it
# from. Docs lookups take 10 slots, so the p50 of dispatch latency lands
# among them; code snippets and the four searches (a full scan each for
# refs and grep) take 8, and CVA's path query 1. Six of 25 calls must
# fail: the three orchestrator-only tools, path_to_method from a role
# other than CVA, one unknown symbol and one malformed call.
SESSION_MIX = (
    ["method_doc"] * 3 + ["class_doc"] * 2
    + ["package_doc", "list_packages", "list_classes"] + ["list_methods"] * 2
    + ["get_method_code"] * 3
    + ["get_class_code", "find_definition", "find_refs", "grep", "find_symbol"]
    + ["path_to_method", "path_denied", "reach_methods", "compile", "fuzz",
       "unknown_symbol", "bad_args"]
)


def _expected_code(tool: str, role: str) -> str:
    if role in STATIC_ONLY.get(tool, ()):
        return "NOT_QUERYABLE"
    if tool in STATIC_ONLY or (tool in ALLOWED and role not in ALLOWED[tool]):
        return "ACCESS_DENIED"
    return "ok"


def _call(rng: random.Random, kind: str, m: Method, root: Method, serial: int) -> dict:
    """One dispatch: role, tool, args, and the ok/error code it must give,
    plus a string an ok response must contain."""
    role = rng.choice(ROLES)
    contains = None
    if kind == "method_doc":
        tool, args, contains = kind, {"qualifier": m.qualified}, m.id
    elif kind == "class_doc":
        tool, args, contains = kind, {"qualifier": f"{m.package}.{m.cls}"}, f"{m.package}.{m.cls}"
    elif kind == "package_doc":
        tool, args, contains = kind, {"qualifier": m.package}, m.cls
    elif kind == "list_packages":
        tool, args, contains = kind, {}, m.package
    elif kind == "list_classes":
        tool, args, contains = kind, {"package": m.package}, m.cls
    elif kind == "list_methods":
        tool, args, contains = kind, {"class_name": m.cls}, m.signature
    elif kind == "get_method_code":
        tool, args, contains = kind, {"qualifier": m.qualified}, f"public int {m.name}("
    elif kind == "get_class_code":
        tool, args, contains = kind, {"qualifier": m.cls}, f"public class {m.cls} {{"
    elif kind == "find_definition":
        tool, args, contains = kind, {"symbol": m.name}, f"public int {m.name}("
    elif kind == "find_refs":
        tool, args, contains = kind, {"symbol": m.name}, f".{m.name}("
    elif kind == "grep":
        tool, args, contains = kind, {"pattern": rf"{m.cls}\.{m.name}\("}, f"{m.cls}.{m.name}("
    elif kind == "find_symbol":
        tool, args, contains = kind, {"name": m.name}, m.name
    elif kind == "path_to_method":
        tool, args, role, contains = kind, {"target": m.id}, "CVA", m.id
    elif kind == "path_denied":
        tool, args, role = "path_to_method", {"target": m.id}, rng.choice(("RSH", "GEN", "PAT", "REF"))
    elif kind == "reach_methods":
        tool, args = kind, {"from_id": root.id}
    elif kind == "compile":
        tool, args = kind, {"harness": "void fuzzTarget(byte[] data) {}"}
    elif kind == "fuzz":
        tool, args = kind, {"harness": "void fuzzTarget(byte[] data) {}", "duration_seconds": 1}
    elif kind == "unknown_symbol":
        missing = f"{m.cls}.missing{serial}()"
        tool, args = [
            ("method_doc", {"qualifier": missing}),
            ("get_method_code", {"qualifier": missing}),
            ("class_doc", {"qualifier": f"Missing{serial}"}),
        ][serial % 3]
        return {"role": role, "tool": tool, "args": args, "expect": "NOT_FOUND", "contains": None}
    elif kind == "bad_args":
        tool, args = [
            ("grep", {"pattern": "(["}),
            ("find_definition", {"symbol": m.name, "max_results": 0}),
            ("list_classes", {}),
            ("method_doc", {"qualifier": m.qualified, "depth": 2}),
        ][serial % 4]
        return {"role": role, "tool": tool, "args": args, "expect": "BAD_ARGS", "contains": None}
    else:
        raise ValueError(kind)
    expect = _expected_code(tool, role)
    return {"role": role, "tool": tool, "args": args, "expect": expect,
            "contains": contains if expect == "ok" else None}


def tool_sessions(rng: random.Random, methods: list[Method]) -> list[list[dict]]:
    """Targets follow a Zipf law over a seeded ranking of the methods, so
    a few are queried again and again, as agents re-query across rounds.
    The root is never a target: it has no callers for find_refs to list."""
    ranked = methods[1:]
    rng.shuffle(ranked)
    weights = list(itertools.accumulate(1.0 / (k + 1) for k in range(len(ranked))))
    sessions = []
    serial = 0
    for _ in range(SESSIONS):
        kinds = list(SESSION_MIX)
        rng.shuffle(kinds)
        session = []
        for kind in kinds:
            target = rng.choices(ranked, cum_weights=weights)[0]
            session.append(_call(rng, kind, target, methods[0], serial))
            serial += 1
        sessions.append(session)
    return sessions


# -- entry point -------------------------------------------------------------------------


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def generate(seed: int, out: str | Path) -> Path:
    """Write the library for `seed` under `out` and return the config path."""
    rng = random.Random(seed)
    out = Path(out)
    methods = build_methods(rng)
    for rel, text in sources(methods).items():
        path = out / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    rules = coverage_rules(rng, methods)
    turns, expect = script_and_expectation(methods, rules)
    _dump(out / "docs.json", docs_bundle(methods))
    _dump(out / "facts.json", call_facts(methods))
    _dump(out / "sandbox.json", sandbox_spec(methods, rules))
    _dump(out / "script.json", {"turns": turns})
    _dump(out / "expect.json", expect)
    _dump(out / "calls.json", tool_sessions(rng, methods))
    _dump(out / "config.json", config(methods[0]))
    return out / "config.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
