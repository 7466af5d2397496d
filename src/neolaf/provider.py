"""Completion and embedding providers.

The agent never talks to a model directly; it builds a ``ProviderRequest``
(its messages) and hands it to a provider, which returns a ``Completion``
(the reply text and its prompt and completion token counts). Two
completion providers ship in-tree:

* ``ScriptedProvider``: a fingerprint-keyed response table. A script file
  is a JSON object mapping each fingerprint to its reply text. Keying by
  content fingerprint (roles and contents only) means a script survives
  prompt-template refactors that do not change content.
* ``RemoteProvider``: a chat-completion style HTTP client. Built by
  ``provider_from_config``, each of its settings falls back to the
  ``NEOLAF_PROVIDER_URL`` / ``NEOLAF_PROVIDER_KEY`` /
  ``NEOLAF_PROVIDER_MODEL`` environment variable. Each call posts the
  messages with ``TEMPERATURE`` and ``MAX_TOKENS`` and no stop sequence.
  One retry with backoff on rate limiting. Its capture maps the
  fingerprint of each prompt answered to its last reply; written by
  ``save_script``, it is a script that replays the session offline. No
  command captures one.

A provider that cannot answer raises a ``ProviderError``, which the agent
encodes as a failed encounter that makes no further call (see cognition).

Embeddings: an embedding is a plain ``tuple[float, ...]``, its dimension
its length. ``DeterministicEmbedder`` hashes a bag of tokens into a fixed
number of signed buckets and L2-normalizes, so retrieval is fully testable
offline. A remote embedder could implement the same ``embed``; none ships.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import NeolafError, read_json


class ProviderError(NeolafError):
    """Base class for completion/embedding failures."""


class UnscriptedPrompt(ProviderError):
    def __init__(self, fingerprint: str):
        super().__init__(f"no scripted response for prompt fingerprint {fingerprint}")
        self.fingerprint = fingerprint


class TransportError(ProviderError):
    pass


class AuthError(ProviderError):
    pass


class RateLimited(ProviderError):
    pass


class Timeout(ProviderError):
    pass


class Role(str, Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class Message:
    role: Role
    content: str


@dataclass(frozen=True)
class ProviderRequest:
    messages: tuple[Message, ...]


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int


def validate_request(request: ProviderRequest) -> None:
    if not request.messages:
        raise ValueError("request must contain at least one message")
    if any(not m.content for m in request.messages):
        raise ValueError("message contents must be non-empty")


def fingerprint(request: ProviderRequest) -> str:
    """Stable short hash of the role/content pairs of a request."""
    validate_request(request)
    payload = json.dumps(
        [[m.role.value, m.content] for m in request.messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _counted(request: ProviderRequest, text: str) -> Completion:
    """``text`` as the completion of ``request``, counting whitespace-separated
    words as tokens, for the providers that have no tokenizer."""
    prompt_tokens = sum(len(m.content.split()) for m in request.messages)
    return Completion(text, prompt_tokens, len(text.split()))


class CompletionProvider:
    """Interface: ``complete(request) -> Completion``."""

    def complete(self, request: ProviderRequest) -> Completion:
        raise NotImplementedError


class ScriptedProvider(CompletionProvider):
    """Responses looked up by prompt fingerprint. No I/O."""

    def __init__(self, script: dict[str, str]):
        self._script = dict(script)

    def complete(self, request: ProviderRequest) -> Completion:
        key = fingerprint(request)
        if key not in self._script:
            raise UnscriptedPrompt(key)
        return _counted(request, self._script[key])


def _script_from_value(data) -> dict[str, str]:
    if not isinstance(data, dict):
        raise ValueError("must hold a JSON object")
    for key, text in data.items():
        if not isinstance(text, str):
            raise ValueError(f"key {key!r} must map to text, not {text!r}")
    return data


def load_script(path) -> dict[str, str]:
    """Load a script file: a JSON object mapping fingerprint to text."""
    return read_json(path, _script_from_value)


def save_script(script: dict[str, str], path) -> None:
    Path(path).write_text(
        json.dumps(script, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


ENV_URL = "NEOLAF_PROVIDER_URL"
ENV_KEY = "NEOLAF_PROVIDER_KEY"
ENV_MODEL = "NEOLAF_PROVIDER_MODEL"

# The sampling settings of every remote call: the agent never varies them.
TEMPERATURE = 0.0
MAX_TOKENS = 1024


class RemoteProvider(CompletionProvider):
    """Chat-completion style HTTP client."""

    def __init__(
        self,
        url: str,
        model: str,
        api_key: str = "",
        timeout: float = 30.0,
        retry_delay: float = 1.0,
        capture: Optional[dict[str, str]] = None,
    ):
        if not url:
            raise ValueError("remote provider needs an endpoint URL")
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retry_delay = retry_delay
        self.capture = capture

    def _post(self, request: ProviderRequest) -> tuple[str, int, int]:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": self.model,
            "messages": [
                {"role": m.role.value, "content": m.content} for m in request.messages
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        try:
            response = requests.post(self.url, json=body, headers=headers, timeout=self.timeout)
        except requests.Timeout as exc:
            raise Timeout(f"remote provider timed out after {self.timeout}s") from exc
        except requests.RequestException as exc:
            raise TransportError(f"remote provider unreachable: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthError(f"remote provider rejected credentials ({response.status_code})")
        if response.status_code == 429:
            raise RateLimited("remote provider rate limited the request")
        if response.status_code >= 400:
            raise TransportError(f"remote provider returned HTTP {response.status_code}")
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage")
            if usage is None:  # absent or null: no token counts
                usage = {}
            if not isinstance(text, str):
                raise TypeError(f"reply content must be text, not {text!r}")
            if not isinstance(usage, dict):
                raise TypeError(f"usage must be an object, not {usage!r}")
            counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
            # a count that is not a whole number of 0 or more (bool is no number) reads 0
            return (text, *(n if type(n) is int and n >= 0 else 0 for n in counts))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"remote provider returned an unexpected payload: {exc}") from exc

    def complete(self, request: ProviderRequest) -> Completion:
        validate_request(request)
        try:
            text, p_tokens, c_tokens = self._post(request)
        except RateLimited:
            time.sleep(self.retry_delay)
            text, p_tokens, c_tokens = self._post(request)
        if self.capture is not None:
            self.capture[fingerprint(request)] = text
        return Completion(text=text, prompt_tokens=p_tokens, completion_tokens=c_tokens)


def provider_from_config(config: dict) -> CompletionProvider:
    """Build a provider from a config mapping with a ``type`` field.

    Types: ``scripted`` (field ``script``: path) and ``remote`` (fields
    ``url``, ``model`` and ``api_key``, each falling back to its
    environment variable when absent). A missing or misshapen field
    raises ValueError naming it.
    """
    kind = config.get("type")
    if kind == "scripted":
        if not isinstance(config.get("script"), str):
            raise ValueError("scripted provider config needs a path in field 'script'")
        return ScriptedProvider(load_script(config["script"]))
    if kind == "remote":
        settings = {}
        for name, env in (("url", ENV_URL), ("model", ENV_MODEL), ("api_key", ENV_KEY)):
            settings[name] = config.get(name, os.environ.get(env, ""))
            if not isinstance(settings[name], str):
                raise ValueError(f"remote provider config field {name!r} must be text")
        if not settings["url"]:
            raise ValueError(f"remote provider config has no 'url' and {ENV_URL} is not set")
        return RemoteProvider(**settings)
    raise ValueError(f"unknown provider type {kind!r}")


# --------------------------------------------------------------------------
# Embeddings
# --------------------------------------------------------------------------


def cosine(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    if len(a) != len(b):
        raise ValueError("cannot compare embeddings of different dimensions")
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


class DeterministicEmbedder:
    """Hashed bag-of-tokens embedding, L2-normalized.

    Each token lands in a hash-chosen bucket with a hash-chosen sign, so
    the embedding is a pure function of the text, identical across
    processes and platforms.
    """

    def __init__(self, dimension: int = 64):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        return h % self.dimension, sign

    def embed(self, text: str) -> tuple[float, ...]:
        if not text:
            raise ValueError("cannot embed empty text")
        tokens = _TOKEN_PATTERN.findall(text.lower()) or [text]
        values = [0.0] * self.dimension
        for token in tokens:
            index, sign = self._bucket(token)
            values[index] += sign
        norm = math.sqrt(sum(v * v for v in values))
        if norm == 0.0:
            # opposite-sign bucket collisions cancelled everything out;
            # fall back to the whole text as a single token
            index, sign = self._bucket(text)
            values[index] = sign
            norm = 1.0
        return tuple(v / norm for v in values)
