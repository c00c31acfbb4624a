"""The model client: chat messages, model turns and two backends.

Two backends share one interface: a deterministic scripted backend that
replays canned turns for tests, and an HTTP backend speaking a generic
chat-completions-with-tools JSON layout. Each turn reports the tokens it
used; keeping count is the caller's business.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EngineError, json_input
from .toolbus import ToolDescriptor, ToolRequest

@dataclass
class Message:
    role: str  # system | user | assistant | tool
    content: str = ""
    tool_calls: list[ToolRequest] = field(default_factory=list)
    tool_call_id: str | None = None


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


class ModelBackend:
    def complete(self, messages: list[Message], available_tools: list[ToolDescriptor]) -> ModelTurn:
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

    def complete(self, messages: list[Message], available_tools: list[ToolDescriptor]) -> ModelTurn:
        if not messages or messages[0].role != "system":
            raise EngineError("BAD_ARGS", "conversation must start with a system message")
        if self.cursor >= len(self.turns):
            raise EngineError("SCRIPT_EXHAUSTED", f"script has only {len(self.turns)} turns")
        turn = self.turns[self.cursor]
        if turn.expect_contains is not None:
            observed = next(
                (m.content for m in reversed(messages) if m.role in ("user", "tool")), ""
            )
            if turn.expect_contains not in observed:
                raise EngineError(
                    "SCRIPT_MISMATCH",
                    f"turn {self.cursor}: expected context containing "
                    f"{turn.expect_contains!r}, got {observed[:200]!r}",
                )
        self.cursor += 1
        tokens_in = sum(count_tokens(m.content) for m in messages)
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

    def _payload(self, messages: list[Message], tools: list[ToolDescriptor]) -> dict:
        entries = []
        for m in messages:
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
            entries.append(entry)
        return {
            "model": self.model,
            "messages": entries,
            "tools": [{"type": "function", "function": d.json_schema()} for d in tools],
        }

    def _parse(self, raw: bytes) -> ModelTurn:
        """The turn in a response body; any body of the wrong shape, from
        bytes that are not JSON to a bad token count, is MODEL_PROTOCOL."""
        try:
            body = json.loads(raw)
            choice = body["choices"][0]["message"]
            usage = {} if body.get("usage") is None else body["usage"]  # null reads as absent
            calls = []
            for tc in choice.get("tool_calls") or []:
                fn = tc["function"]
                args = json.loads(fn.get("arguments") or "{}")
                calls.append(ToolRequest.from_wire({"tool": fn["name"], "args": args}))
            text = choice.get("content")
            if not (text is None or isinstance(text, str)):
                raise TypeError(f"content must be a string or null, got {text!r}")
            if text is None and not calls:
                raise KeyError("empty completion")
            return ModelTurn(
                text=text,
                tool_calls=calls,
                usage=Usage(
                    tokens_in=_token_count(usage, "prompt_tokens"),
                    tokens_out=_token_count(usage, "completion_tokens"),
                ),
            )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, RecursionError) as exc:
            # the request succeeded, so it is not retried; the decoder raises
            # RecursionError on a body nested too deep
            raise EngineError("MODEL_PROTOCOL", f"malformed model response: {exc}") from exc

    def complete(self, messages: list[Message], available_tools: list[ToolDescriptor]) -> ModelTurn:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = self._payload(messages, available_tools)
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                response = requests.post(
                    self.endpoint, json=payload, headers=headers, timeout=REQUEST_TIMEOUT
                )
                status = response.status_code
                if status >= 500 or status in _RETRYABLE_4XX:
                    response.raise_for_status()
            except Exception as exc:  # a transport failure or a status worth a retry
                last_error = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    self.sleep(BACKOFF_SECONDS * (2**attempt))
                continue
            if status >= 400:
                # the same request would be rejected again: do not retry
                raise EngineError(
                    "MODEL_UNAVAILABLE",
                    f"model endpoint rejected the request: HTTP {status}: {response.text[:200]}",
                )
            return self._parse(response.content)
        raise EngineError("MODEL_UNAVAILABLE", f"transport failed after retries: {last_error}")


def _token_count(usage: dict, key: str) -> int:
    """A usage count: absent reads as 0, else a JSON integer >= 0 and below
    2**63, so that with `config.MAX_RATE` a run's cost stays finite."""
    count = usage.get(key, 0)
    if type(count) is not int or not 0 <= count < 2**63:  # a bool is an int to isinstance
        raise ValueError(f"{key} must be an integer >= 0 and < 2**63, got {count!r}")
    return count
