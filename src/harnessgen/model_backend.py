"""Chat-with-tools backends plus token and cost accounting.

Two backends share one interface: a deterministic scripted backend that
replays canned turns for tests, and an HTTP backend speaking a generic
chat-completions-with-tools JSON layout. Each turn reports its token
usage; `summarize_usage` turns per-agent, per-round sums of those turns,
as the run's transcripts record them, into the manifest's accounting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EngineError, json_input
from .toolbus import AgentRole, ToolDescriptor, ToolRequest

# Table row labels; the research role renders as RES in reports.
ROLE_LABELS = {
    AgentRole.RSH: "RES",
    AgentRole.GEN: "GEN",
    AgentRole.PAT: "PAT",
    AgentRole.CVA: "CVA",
    AgentRole.REF: "REF",
}


@dataclass
class Message:
    role: str  # system | user | assistant | tool
    content: str = ""
    tool_calls: list[ToolRequest] = field(default_factory=list)
    tool_call_id: str | None = None


@dataclass
class Conversation:
    messages: list[Message] = field(default_factory=list)

    def add(self, message: Message) -> None:
        self.messages.append(message)

    def last_observable_text(self) -> str:
        """Content of the most recent user or tool message."""
        for message in reversed(self.messages):
            if message.role in ("user", "tool"):
                return message.content
        return ""


@dataclass(frozen=True)
class Usage:
    tokens_in: int = 0
    tokens_out: int = 0


@dataclass
class ModelTurn:
    text: str | None = None
    tool_calls: list[ToolRequest] = field(default_factory=list)
    usage: Usage = field(default_factory=Usage)


def count_tokens(text: str) -> int:
    return len(text.split())


def summarize_usage(
    usage: dict[tuple[AgentRole, int], list[int]], rate_in: float = 0.0, rate_out: float = 0.0
) -> dict:
    """Accounting table rows, one per agent, with per-round values joined by '/'.

    `usage` maps (role, round) to [iterations, tool_calls, tokens_in, tokens_out].
    """

    def cost(entry: list[int]) -> float:
        return entry[2] * rate_in + entry[3] * rate_out

    rows = []
    for role in AgentRole:
        per_round = sorted(
            ((rnd, entry) for (r, rnd), entry in usage.items() if r == role),
            key=lambda kv: kv[0],
        )
        if per_round:
            iterations = "/".join(str(e[0]) for _, e in per_round)
            tool_calls = "/".join(str(e[1]) for _, e in per_round)
            tokens = sum(e[2] + e[3] for _, e in per_round)
            row_cost = sum(cost(e) for _, e in per_round)
        else:
            iterations, tool_calls, tokens, row_cost = "--", "--", 0, 0.0
        rows.append(
            {
                "agent": ROLE_LABELS[role],
                "iterations": iterations,
                "tool_calls": tool_calls,
                "tokens": tokens,
                "cost": round(row_cost, 6),
            }
        )
    totals = [0, 0, 0, 0]
    total_cost = 0.0
    for entry in usage.values():
        totals = [t + n for t, n in zip(totals, entry)]
        total_cost += cost(entry)
    return {
        "rows": rows,
        "totals": {
            "iterations": totals[0],
            "tool_calls": totals[1],
            "tokens": totals[2] + totals[3],
            "cost": round(total_cost, 6),
        },
    }


class ModelBackend:
    def complete(self, conversation: Conversation, available_tools: list[ToolDescriptor]) -> ModelTurn:
        raise NotImplementedError


@dataclass
class ScriptTurn:
    text: str | None = None
    tool_calls: list[ToolRequest] = field(default_factory=list)
    expect_contains: str | None = None


class ScriptedBackend(ModelBackend):
    """Replays an ordered list of canned turns.

    When a turn declares expect_contains and the latest user/tool message
    does not contain that string, completion fails with SCRIPT_MISMATCH so
    end-to-end tests explain themselves.
    """

    def __init__(self, turns: list[ScriptTurn]) -> None:
        self.turns = turns
        self.cursor = 0

    def complete(self, conversation: Conversation, available_tools: list[ToolDescriptor]) -> ModelTurn:
        if not conversation.messages or conversation.messages[0].role != "system":
            raise EngineError("BAD_ARGS", "conversation must start with a system message")
        if self.cursor >= len(self.turns):
            raise EngineError("SCRIPT_EXHAUSTED", f"script has only {len(self.turns)} turns")
        turn = self.turns[self.cursor]
        if turn.expect_contains is not None:
            observed = conversation.last_observable_text()
            if turn.expect_contains not in observed:
                raise EngineError(
                    "SCRIPT_MISMATCH",
                    f"turn {self.cursor}: expected context containing "
                    f"{turn.expect_contains!r}, got {observed[:200]!r}",
                )
        self.cursor += 1
        tokens_in = sum(count_tokens(m.content) for m in conversation.messages)
        out_text = turn.text or ""
        tokens_out = count_tokens(out_text) + sum(
            count_tokens(json.dumps(tc.to_wire())) for tc in turn.tool_calls
        )
        return ModelTurn(
            text=turn.text,
            tool_calls=list(turn.tool_calls),
            usage=Usage(tokens_in=tokens_in, tokens_out=tokens_out),
        )


def load_script(path: str | Path) -> ScriptedBackend:
    """A script file: an object whose `turns` list holds at least one turn."""
    turns = []
    with json_input(path, "script file") as raw:
        if not isinstance(raw, dict) or not isinstance(raw.get("turns"), list) or not raw["turns"]:
            raise EngineError(
                "PARSE", f"{path}: a script must be an object with a non-empty 'turns' list"
            )
        for i, entry in enumerate(raw["turns"]):
            calls = [ToolRequest.from_wire(c) for c in entry.get("tool_calls", [])]
            if entry.get("text") is None and not calls:
                raise EngineError("PARSE", f"{path}: turn {i} has neither text nor tool_calls")
            for key in ("text", "expect_contains"):
                if entry.get(key) is not None and not isinstance(entry[key], str):
                    raise EngineError("PARSE", f"{path}: turn {i}: {key} must be a string")
            turns.append(
                ScriptTurn(
                    text=entry.get("text"),
                    tool_calls=calls,
                    expect_contains=entry.get("expect_contains"),
                )
            )
    return ScriptedBackend(turns)


MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 1.0  # before the first retry; doubled before each later one
REQUEST_TIMEOUT = 120.0
# request timeout and rate limit: the only client errors worth a retry
_RETRYABLE_4XX = (408, 429)


class HttpBackend(ModelBackend):
    """Generic chat-completions-with-tools client.

    The request/response translation is confined to this class so other
    providers only need a different translation layer.
    """

    def __init__(
        self, endpoint: str, model: str, api_key: str | None = None, sleep=time.sleep
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.sleep = sleep

    def _payload(self, conversation: Conversation, tools: list[ToolDescriptor]) -> dict:
        messages = []
        for m in conversation.messages:
            entry: dict = {"role": m.role, "content": m.content}
            if m.tool_calls:
                entry["tool_calls"] = [
                    {
                        "id": f"call_{i}",
                        "function": {"name": tc.tool, "arguments": json.dumps(dict(tc.args))},
                    }
                    for i, tc in enumerate(m.tool_calls)
                ]
            if m.tool_call_id is not None:
                entry["tool_call_id"] = m.tool_call_id
            messages.append(entry)
        return {
            "model": self.model,
            "messages": messages,
            "tools": [{"type": "function", "function": d.json_schema()} for d in tools],
        }

    def _parse(self, body: dict) -> ModelTurn:
        try:
            choice = body["choices"][0]["message"]
            usage = {} if body.get("usage") is None else body["usage"]  # null reads as absent
            calls = []
            for tc in choice.get("tool_calls") or []:
                fn = tc["function"]
                args = json.loads(fn.get("arguments") or "{}")
                calls.append(ToolRequest.from_wire({"tool": fn["name"], "args": args}))
            text = choice.get("content")
            if text is None and not calls:
                raise KeyError("empty completion")
            return ModelTurn(
                text=text,
                tool_calls=calls,
                usage=Usage(
                    tokens_in=int(usage.get("prompt_tokens", 0)),
                    tokens_out=int(usage.get("completion_tokens", 0)),
                ),
            )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            # a body of the wrong shape: the request succeeded, so it is not retried
            raise EngineError("MODEL_PROTOCOL", f"malformed model response: {exc}") from exc

    def complete(self, conversation: Conversation, available_tools: list[ToolDescriptor]) -> ModelTurn:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = self._payload(conversation, available_tools)
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                response = requests.post(
                    self.endpoint, json=payload, headers=headers, timeout=REQUEST_TIMEOUT
                )
                status = response.status_code
                if 400 <= status < 500 and status not in _RETRYABLE_4XX:
                    # the same request would be rejected again: do not retry
                    raise EngineError(
                        "MODEL_UNAVAILABLE",
                        f"model endpoint rejected the request: HTTP {status}: {response.text[:200]}",
                    )
                response.raise_for_status()
                return self._parse(response.json())
            except EngineError:
                raise
            except Exception as exc:
                last_error = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    self.sleep(BACKOFF_SECONDS * (2**attempt))
        raise EngineError("MODEL_UNAVAILABLE", f"transport failed after retries: {last_error}")
