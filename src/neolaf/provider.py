"""Completion and embedding providers.

The agent never talks to a model directly; it builds a ``ProviderRequest``
and hands it to a provider. Three completion providers ship in-tree:

* ``ScriptedProvider``: a fingerprint-keyed response table. Keying by
  content fingerprint (roles and contents only) means a script survives
  prompt-template refactors that do not change content, and sampling
  parameters never affect the key.
* ``ReplayProvider``: plays back a captured transcript strictly in call
  order, for re-running live sessions offline.
* ``RemoteProvider``: a chat-completion style HTTP client. Built by
  ``provider_from_config``, each of its settings falls back to the
  ``NEOLAF_PROVIDER_URL`` / ``NEOLAF_PROVIDER_KEY`` /
  ``NEOLAF_PROVIDER_MODEL`` environment variable. One retry with
  backoff on rate limiting. When given a capture list it records each
  exchange so the session can be replayed later.

Embeddings: ``DeterministicEmbedder`` hashes a bag of tokens into a
fixed number of signed buckets and L2-normalizes, so retrieval is fully
testable offline. A remote embedder could implement the same ``embed``
surface; none ships here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .errors import NeolafError


class ProviderError(NeolafError):
    """Base class for completion/embedding failures."""


class UnscriptedPrompt(ProviderError):
    def __init__(self, fingerprint: str):
        super().__init__(f"no scripted response for prompt fingerprint {fingerprint}")
        self.fingerprint = fingerprint


class TranscriptExhausted(ProviderError):
    def __init__(self, length: int):
        super().__init__(f"transcript exhausted after {length} completions")
        self.length = length


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
    temperature: float = 0.0
    max_tokens: int = 1024
    stop_sequences: tuple[str, ...] = ()


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: int
    provider_name: str


def validate_request(request: ProviderRequest) -> None:
    if not request.messages:
        raise ValueError("request must contain at least one message")
    if any(not m.content for m in request.messages):
        raise ValueError("message contents must be non-empty")
    if request.temperature < 0:
        raise ValueError("temperature must be >= 0")
    if request.max_tokens <= 0:
        raise ValueError("max_tokens must be > 0")


def fingerprint(request: ProviderRequest) -> str:
    """Stable short hash of the role/content pairs of a request.

    Sampling parameters (temperature, limits, stops) are deliberately
    excluded so they never invalidate a script.
    """
    validate_request(request)
    payload = json.dumps(
        [[m.role.value, m.content] for m in request.messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _count_tokens(text: str) -> int:
    return len(text.split())


def _prompt_tokens(request: ProviderRequest) -> int:
    return sum(_count_tokens(m.content) for m in request.messages)


class CompletionProvider:
    """Interface: ``complete(request) -> Completion``."""

    name = "provider"

    def complete(self, request: ProviderRequest) -> Completion:
        raise NotImplementedError


class ScriptedProvider(CompletionProvider):
    """Responses looked up by prompt fingerprint. No I/O, no latency."""

    name = "scripted"

    def __init__(self, script: dict[str, str]):
        self._script = dict(script)

    def complete(self, request: ProviderRequest) -> Completion:
        key = fingerprint(request)
        if key not in self._script:
            raise UnscriptedPrompt(key)
        text = self._script[key]
        return Completion(
            text=text,
            prompt_tokens=_prompt_tokens(request),
            completion_tokens=_count_tokens(text),
            latency_ms=0,
            provider_name=self.name,
        )


def load_script(path) -> dict[str, str]:
    """Load a script file: a JSON object mapping fingerprint to text."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("must hold a JSON object")
    except ValueError as exc:
        raise ValueError(f"script file {path}: {exc}") from exc
    return data


def save_script(script: dict[str, str], path) -> None:
    Path(path).write_text(
        json.dumps(script, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@dataclass(frozen=True)
class TranscriptEntry:
    request: ProviderRequest
    text: str


def request_from_dict(obj: dict) -> ProviderRequest:
    return ProviderRequest(
        messages=tuple(
            Message(role=Role(m["role"]), content=m["content"]) for m in obj["messages"]
        ),
        temperature=obj.get("temperature", 0.0),
        max_tokens=obj.get("max_tokens", 1024),
        stop_sequences=tuple(obj.get("stop_sequences", ())),
    )


def load_transcript(path) -> list[TranscriptEntry]:
    """Load a transcript file: a JSON array of {request, text} in call order."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("must hold a JSON array")
    except ValueError as exc:
        raise ValueError(f"transcript file {path}: {exc}") from exc
    entries = []
    for number, entry in enumerate(data):
        try:
            entries.append(TranscriptEntry(request_from_dict(entry["request"]), entry["text"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"transcript file {path} corrupt at entry {number}: {exc}") from exc
    return entries


def save_transcript(entries: Sequence[TranscriptEntry], path) -> None:
    Path(path).write_text(
        json.dumps([asdict(e) for e in entries], ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


class ReplayProvider(CompletionProvider):
    """Plays a captured transcript back strictly in call order."""

    name = "replay"

    def __init__(self, transcript: Sequence[TranscriptEntry]):
        self._transcript = list(transcript)
        self._cursor = 0
        self._lock = threading.Lock()

    def complete(self, request: ProviderRequest) -> Completion:
        validate_request(request)
        with self._lock:
            if self._cursor >= len(self._transcript):
                raise TranscriptExhausted(len(self._transcript))
            entry = self._transcript[self._cursor]
            self._cursor += 1
        return Completion(
            text=entry.text,
            prompt_tokens=_prompt_tokens(request),
            completion_tokens=_count_tokens(entry.text),
            latency_ms=0,
            provider_name=self.name,
        )


ENV_URL = "NEOLAF_PROVIDER_URL"
ENV_KEY = "NEOLAF_PROVIDER_KEY"
ENV_MODEL = "NEOLAF_PROVIDER_MODEL"


class RemoteProvider(CompletionProvider):
    """Chat-completion style HTTP client."""

    name = "remote"

    def __init__(
        self,
        url: str,
        model: str,
        api_key: str = "",
        timeout: float = 30.0,
        retry_delay: float = 1.0,
        capture: Optional[list[TranscriptEntry]] = None,
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
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
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
            usage = data.get("usage", {})
            return (
                text,
                int(usage.get("prompt_tokens", 0)),
                int(usage.get("completion_tokens", 0)),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"remote provider returned an unexpected payload: {exc}") from exc

    def complete(self, request: ProviderRequest) -> Completion:
        validate_request(request)
        started = time.monotonic()
        try:
            text, p_tokens, c_tokens = self._post(request)
        except RateLimited:
            time.sleep(self.retry_delay)
            text, p_tokens, c_tokens = self._post(request)
        latency_ms = int((time.monotonic() - started) * 1000)
        completion = Completion(
            text=text,
            prompt_tokens=p_tokens,
            completion_tokens=c_tokens,
            latency_ms=latency_ms,
            provider_name=self.name,
        )
        if self.capture is not None:
            self.capture.append(TranscriptEntry(request=request, text=text))
        return completion


def _config_path(config: dict, name: str) -> str:
    if not isinstance(config.get(name), str):
        raise ValueError(f"{config['type']} provider config needs a path in field {name!r}")
    return config[name]


def provider_from_config(config: dict) -> CompletionProvider:
    """Build a provider from a config mapping with a ``type`` field.

    Types: ``scripted`` (field ``script``: path), ``replay`` (field
    ``transcript``: path), ``remote`` (fields ``url``, ``model`` and
    ``api_key``, each falling back to its environment variable when
    absent). A missing or misshapen field raises ValueError naming it.
    """
    kind = config.get("type")
    if kind == "scripted":
        return ScriptedProvider(load_script(_config_path(config, "script")))
    if kind == "replay":
        return ReplayProvider(load_transcript(_config_path(config, "transcript")))
    if kind == "remote":
        url = config.get("url", os.environ.get(ENV_URL, ""))
        if not url:
            raise ValueError(f"remote provider config has no 'url' and {ENV_URL} is not set")
        return RemoteProvider(
            url=url,
            model=config.get("model", os.environ.get(ENV_MODEL, "")),
            api_key=config.get("api_key", os.environ.get(ENV_KEY, "")),
        )
    raise ValueError(f"unknown provider type {kind!r}")


# --------------------------------------------------------------------------
# Embeddings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]
    dimension: int = field(default=0)

    def __post_init__(self):
        if self.dimension == 0:
            object.__setattr__(self, "dimension", len(self.values))
        if len(self.values) != self.dimension:
            raise ValueError("embedding length must equal its dimension")
        if not all(map(math.isfinite, self.values)):
            raise ValueError("embedding values must be finite")


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    if a.dimension != b.dimension:
        raise ValueError("cannot compare embeddings of different dimensions")
    dot = sum(x * y for x, y in zip(a.values, b.values))
    na = math.sqrt(sum(x * x for x in a.values))
    nb = math.sqrt(sum(y * y for y in b.values))
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

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise ValueError("cannot embed empty text")
        tokens = _TOKEN_PATTERN.findall(text.lower())
        if not tokens:
            tokens = [text]
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
        return EmbeddingVector(values=tuple(v / norm for v in values))
