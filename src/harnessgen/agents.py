"""Generic ReAct loop plus the five agent profiles and their output parsers."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from importlib import resources

from .errors import EngineError
from .model_backend import Message, ModelBackend
from .toolbus import AgentRole, ToolRegistry

REPORT_SECTIONS = (
    "Target Overview",
    "Initialization Requirements",
    "Input Construction",
    "Exception Contract",
    "API Paths Of Interest",
    "Open Risks",
)

CORRECTIVE_PROMPT = "Your last message was not in the required format. Respond in the required format."


def load_prompt(role: AgentRole) -> str:
    name = f"{role.value.lower()}.md"
    return resources.files("harnessgen.prompts").joinpath(name).read_text(encoding="utf-8")


# -- parsed outputs ----------------------------------------------------------


@dataclass(frozen=True)
class HarnessArtifact:
    source: str
    dependencies: tuple[str, ...]
    normalized_hash: str


@dataclass(frozen=True)
class TerminationDecision:
    decision: str  # stop | continue
    rationale: str = ""
    priority_methods: tuple[str, ...] = ()
    strategy: str = ""


def parse_research_report(text: str) -> str:
    """The report's text, once it holds every section of `REPORT_SECTIONS`."""
    for section in REPORT_SECTIONS:
        pattern = rf"^#{{1,6}}\s*{re.escape(section)}\s*$"
        if not re.search(pattern, text, flags=re.MULTILINE | re.IGNORECASE):
            raise EngineError("PARSE", f"research report missing section: {section}")
    return text


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_+-]*\n(.*?)```", re.DOTALL)


def parse_harness_output(text: str) -> HarnessArtifact:
    match = _FENCE_RE.search(text)
    if match is None:
        raise EngineError("PARSE_NO_CODE", "no fenced code block in model output")
    source = match.group(1).strip("\n")
    if not source.strip():
        raise EngineError("PARSE_EMPTY", "fenced code block is empty")
    dependencies: list[str] = []
    tail = text[match.end() :]
    lines = iter(tail.splitlines())
    for line in lines:
        if line.strip() == "DEPENDENCIES:":
            for dep in lines:
                dep = dep.strip()
                if not dep:
                    break
                dependencies.append(dep)
            break
    return HarnessArtifact(
        source=source,
        dependencies=tuple(dependencies),
        normalized_hash=normalize_and_hash(source),
    )


def parse_termination_decision(text: str) -> TerminationDecision:
    payload = None
    for candidate in _FENCE_RE.findall(text):
        try:
            payload = json.loads(candidate)
            break
        except ValueError:
            continue
    if payload is None:
        decoder = json.JSONDecoder()
        for start in (m.start() for m in re.finditer(r"\{", text)):
            try:
                payload, _ = decoder.raw_decode(text, start)
                break
            except ValueError:
                continue
    if not isinstance(payload, dict):
        raise EngineError("PARSE", "no JSON decision object in model output")
    decision = payload.get("decision")
    if decision not in ("stop", "continue"):
        raise EngineError("PARSE", f"decision must be stop or continue, got {decision!r}")
    priority = payload.get("priority_methods")
    if priority is None:  # absent or null: no priorities
        priority = []
    if not isinstance(priority, list) or not all(isinstance(m, str) and m for m in priority):
        raise EngineError(
            "PARSE", f"priority_methods must be a list of non-empty strings, got {priority!r}"
        )
    if decision == "continue" and not priority:
        raise EngineError("PARSE", "continue decision requires non-empty priority_methods")
    return TerminationDecision(
        decision=decision,
        rationale=str(payload.get("rationale", "")),
        priority_methods=tuple(priority),
        strategy=str(payload.get("strategy", "")),
    )


_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")


def normalize_and_hash(source: str) -> str:
    """Digest of the source with comments stripped and whitespace collapsed."""
    stripped = _BLOCK_COMMENT_RE.sub(" ", source)
    stripped = _LINE_COMMENT_RE.sub(" ", stripped)
    normalized = " ".join(stripped.split())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


# -- profiles ----------------------------------------------------------------

OUTPUT_PARSERS = {
    AgentRole.RSH: parse_research_report,
    AgentRole.GEN: parse_harness_output,
    AgentRole.PAT: parse_harness_output,
    AgentRole.CVA: parse_termination_decision,
    AgentRole.REF: parse_harness_output,
}


@dataclass(frozen=True)
class AgentProfile:
    role: AgentRole
    system_prompt: str
    max_iterations: int
    output_parser: object  # callable(str) -> parsed output

    @classmethod
    def default(cls, role: AgentRole, max_iterations: int) -> "AgentProfile":
        return cls(
            role=role,
            system_prompt=load_prompt(role),
            max_iterations=max_iterations,
            output_parser=OUTPUT_PARSERS[role],
        )


# -- ReAct loop ----------------------------------------------------------------


@dataclass
class TranscriptStep:
    text: str | None = None
    tool_calls: list[dict] = field(default_factory=list)
    tool_results: list[dict] = field(default_factory=list)
    tokens_in: int = 0
    tokens_out: int = 0


@dataclass
class AgentTranscript:
    """One agent run, a step per model turn: the run's record of model usage."""

    role: str
    steps: list[TranscriptStep] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def tool_call_count(self) -> int:
        return sum(len(s.tool_calls) for s in self.steps)

    def to_json(self) -> dict:
        return {
            "role": self.role,
            "iterations": self.iterations,
            "tool_call_count": self.tool_call_count,
            "steps": [asdict(s) for s in self.steps],
        }


@dataclass
class AgentRunResult:
    transcript: AgentTranscript
    parsed_output: object


def run_react(
    profile: AgentProfile,
    seed_context: list[tuple[str, str]],
    registry: ToolRegistry,
    backend: ModelBackend,
    transcript: AgentTranscript | None = None,
) -> AgentRunResult:
    """Drive one agent to a parseable final answer.

    Tool calls returned by the model are dispatched through the registry;
    errors (including access denials) come back as observations so the
    model can adjust. An agent that exhausts its iterations, or fails to
    parse twice, raises MODEL_PROTOCOL naming its role. Each turn is
    appended to `transcript`, filled in place, as soon as the model
    returns it, so a run that raises midway still holds every turn it was
    charged for.
    """
    seed_text = "\n\n".join(f"[{label}]\n{text}" for label, text in seed_context)
    messages = [
        Message(role="system", content=profile.system_prompt),
        Message(role="user", content=seed_text),
    ]
    tools = registry.list_tools(profile.role)
    if transcript is None:
        transcript = AgentTranscript(role=profile.role.value)
    corrective_used = False

    while transcript.iterations < profile.max_iterations:
        turn = backend.complete(messages, tools)
        step = TranscriptStep(
            text=turn.text,
            tool_calls=[call.to_wire() for call in turn.tool_calls],
            tokens_in=turn.usage.tokens_in,
            tokens_out=turn.usage.tokens_out,
        )
        transcript.steps.append(step)
        messages.append(Message(role="assistant", content=turn.text or "", tool_calls=turn.tool_calls))
        if turn.tool_calls:
            for i, call in enumerate(turn.tool_calls):
                response = registry.dispatch(profile.role, call)
                step.tool_results.append(response.to_wire())
                observation = (
                    response.content
                    if response.ok
                    else f"ERROR {response.error_code}: {response.error_message}"
                )
                messages.append(
                    Message(role="tool", content=observation, tool_call_id=f"call_{i}")
                )
            continue
        try:
            parsed = profile.output_parser(turn.text or "")
        except EngineError as exc:
            if not corrective_used and transcript.iterations < profile.max_iterations:
                corrective_used = True
                messages.append(Message(role="user", content=CORRECTIVE_PROMPT))
                continue
            raise _no_answer(profile, transcript, f"; last turn: {exc}") from exc
        return AgentRunResult(transcript=transcript, parsed_output=parsed)
    raise _no_answer(profile, transcript)


def _no_answer(profile: AgentProfile, transcript: AgentTranscript, detail: str = "") -> EngineError:
    return EngineError(
        "MODEL_PROTOCOL",
        f"{profile.role.value} gave no parseable answer in {transcript.iterations} turns{detail}",
    )


def build_research_context(target, docs_index, code_index) -> list[tuple[str, str]]:
    """Seed blocks for the research agent: signature, docs, source."""
    qualifier = f"{target.target_class}.{target.target_method}"
    blocks: list[tuple[str, str]] = [("target signature", qualifier)]
    try:
        doc_text = docs_index.query_doc("method", qualifier)
    except EngineError:
        doc_text = None
    try:
        code_text = code_index.get_code("method", qualifier)
    except EngineError:
        code_text = None
    if doc_text is None and code_text is None:
        raise EngineError(
            "TARGET_NOT_FOUND", f"target method not found in docs or code index: {qualifier}"
        )
    if doc_text is not None:
        blocks.append(("target documentation", doc_text))
    else:
        blocks.append(("note", "no documentation found for the target method"))
    if code_text is not None:
        blocks.append(("target source", code_text))
    else:
        blocks.append(("note", "no source snippet found for the target method"))
    return blocks
