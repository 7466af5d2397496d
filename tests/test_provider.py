"""Provider boundary tests: fingerprinting, the scripted provider, the
remote HTTP client against a local server, and the embedder."""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from neolaf.cli import main
from neolaf.cognition import Route, default_kit, solve, system1_request
from neolaf.kstar import serialize_record
from neolaf.memory import EpisodicStore
from neolaf.provider import (
    AuthError,
    Completion,
    DeterministicEmbedder,
    Message,
    ProviderRequest,
    RemoteProvider,
    Role,
    ScriptedProvider,
    Timeout,
    TransportError,
    UnscriptedPrompt,
    cosine,
    fingerprint,
    load_script,
    provider_from_config,
    save_script,
)
from neolaf.toolkit import default_registry


def req(content: str) -> ProviderRequest:
    return ProviderRequest(
        messages=(Message(Role.SYSTEM, "be brief"), Message(Role.USER, content)),
    )


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def test_fingerprint_sensitive_to_single_character_edits():
    base = "solve the quadratic equation x^2 - 4 = 0"
    seen = {fingerprint(req(base))}
    for i in range(len(base)):
        edited = base[:i] + ("#" if base[i] != "#" else "@") + base[i + 1 :]
        seen.add(fingerprint(req(edited)))
    # every edit produced a distinct fingerprint: no collisions
    assert len(seen) == len(base) + 1


def test_fingerprint_sensitive_to_role():
    a = ProviderRequest(messages=(Message(Role.USER, "hi"),))
    b = ProviderRequest(messages=(Message(Role.ASSISTANT, "hi"),))
    assert fingerprint(a) != fingerprint(b)


def test_fingerprint_rejects_empty_request():
    with pytest.raises(ValueError):
        fingerprint(ProviderRequest(messages=()))
    with pytest.raises(ValueError):
        fingerprint(ProviderRequest(messages=(Message(Role.USER, ""),)))


def test_fingerprint_is_lowercase_hex():
    fp = fingerprint(req("x"))
    assert fp == fp.lower()
    assert all(c in "0123456789abcdef" for c in fp)


# ---------------------------------------------------------------------------
# Scripted provider
# ---------------------------------------------------------------------------


def test_scripted_lookup_and_token_counts(no_network):
    request = req("what is 2+2")
    provider = ScriptedProvider({fingerprint(request): "4"})
    assert provider.complete(request) == Completion("4", 5, 1)


def test_scripted_miss_names_fingerprint(no_network):
    provider = ScriptedProvider({})
    request = req("unseen")
    with pytest.raises(UnscriptedPrompt) as excinfo:
        provider.complete(request)
    assert excinfo.value.fingerprint == fingerprint(request)


def test_script_file_round_trip(tmp_path):
    script = {fingerprint(req("a")): "1", fingerprint(req("b")): "2"}
    path = tmp_path / "script.json"
    save_script(script, path)
    assert load_script(path) == script


# ---------------------------------------------------------------------------
# Remote provider against a local server
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    behavior = ["ok"]  # mutated per test
    bodies = []  # every body answered, in order; emptied per test
    # replies of the wrong shape: each mode overrides a field of the reply
    shapes = {
        "null-content": {"content": None},
        "list-content": {"content": ["x"]},
        "null-usage": {"usage": None},
        "null-count": {"usage": {"prompt_tokens": None, "completion_tokens": 3}},
        "negative-count": {"usage": {"prompt_tokens": -5, "completion_tokens": 3}},
        "bool-count": {"usage": {"prompt_tokens": 7, "completion_tokens": True}},
        "list-usage": {"usage": [7, 3]},
    }

    def do_POST(self):
        mode = self.behavior[0]
        if mode == "rate-limit-once":
            self.behavior[0] = "ok"
            self.send_response(429)
            self.end_headers()
            return
        if mode == "auth":
            self.send_response(401)
            self.end_headers()
            return
        if mode == "boom":
            self.send_response(500)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        self.bodies.append(body)
        reply = {
            "content": "echo: " + body["messages"][-1]["content"],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
            **self.shapes.get(mode, {}),
        }
        payload = json.dumps(
            {"choices": [{"message": {"content": reply["content"]}}], "usage": reply["usage"]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _Handler.behavior[0] = "ok"
    _Handler.bodies.clear()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_remote_provider_completes(local_server):
    capture = {}
    provider = RemoteProvider(url=local_server, model="m", api_key="k", capture=capture)
    completion = provider.complete(req("ping"))
    assert completion.text == "echo: ping"
    assert completion == Completion("echo: ping", 7, 3)
    assert capture == {fingerprint(req("ping")): "echo: ping"}


def test_a_captured_session_replays_offline_as_a_script(local_server, tmp_path, capsys):
    def masked(store_dir):
        [record] = EpisodicStore.open(store_dir).records
        obj = json.loads(serialize_record(record))
        obj["timestamp"] = obj["metrics"]["latency_ms"] = None
        return obj

    query, capture = "What is 2+2?", {}
    provider = RemoteProvider(url=local_server, model="m", capture=capture)
    solve(query, default_kit(), provider, default_registry(),
          EpisodicStore.open(tmp_path / "live"))
    script = tmp_path / "script.json"
    save_script(capture, script)
    prompts = {json.dumps(body["messages"]) for body in _Handler.bodies}
    assert len(capture) == len(prompts) > 1

    replayed = tmp_path / "replayed"
    assert main(["solve", query, "--script", str(script), "--store", str(replayed)]) == 0
    capsys.readouterr()
    assert masked(replayed) == masked(tmp_path / "live")


@pytest.mark.parametrize("mode", ["null-content", "list-content", "list-usage"])
def test_a_reply_of_the_wrong_shape_is_a_failed_encounter(local_server, tmp_path, mode):
    # a reply whose content is not text is kept out of a capture, so a
    # saved capture always loads as a script
    _Handler.behavior[0] = mode
    capture, store = {}, EpisodicStore.open(tmp_path / "store")
    provider = RemoteProvider(url=local_server, model="m", capture=capture)
    solution = solve("What is 2+2?", default_kit(), provider, default_registry(), store)
    [record] = store.records
    assert (solution.route, solution.provider_calls) == (Route.SYSTEM2, 1)
    assert not record.outcome.success
    assert "unexpected payload" in record.outcome.actual_result
    assert len(_Handler.bodies) == 1 and capture == {}


# a token count that is not a whole number of 0 or more reads 0, and the
# reply text is kept
_TOKENS = {"null-usage": (0, 0), "null-count": (0, 3), "negative-count": (0, 3),
           "bool-count": (7, 0)}


@pytest.mark.parametrize("mode", _TOKENS)
def test_remote_provider_null_usage_counts_no_tokens(local_server, mode):
    _Handler.behavior[0] = mode
    provider = RemoteProvider(url=local_server, model="m")
    assert provider.complete(req("ping")) == Completion("echo: ping", *_TOKENS[mode])


def test_remote_provider_posts_the_agent_request(local_server):
    request = system1_request(default_kit(), "What is 2+2?")
    RemoteProvider(url=local_server, model="m").complete(request)
    assert _Handler.bodies == [{
        "model": "m",
        "messages": [{"role": m.role.value, "content": m.content} for m in request.messages],
        "temperature": 0.0,
        "max_tokens": 1024,
    }]


def test_remote_provider_retries_rate_limit_once(local_server):
    _Handler.behavior[0] = "rate-limit-once"
    provider = RemoteProvider(url=local_server, model="m", retry_delay=0.01)
    assert provider.complete(req("ping")).text == "echo: ping"


def test_remote_provider_auth_error(local_server):
    _Handler.behavior[0] = "auth"
    provider = RemoteProvider(url=local_server, model="m")
    with pytest.raises(AuthError):
        provider.complete(req("ping"))


def test_remote_provider_http_error(local_server):
    _Handler.behavior[0] = "boom"
    provider = RemoteProvider(url=local_server, model="m")
    with pytest.raises(TransportError):
        provider.complete(req("ping"))


def test_remote_provider_unreachable_is_transport_error():
    provider = RemoteProvider(url="http://127.0.0.1:1/nothing", model="m", timeout=0.5)
    with pytest.raises((TransportError, Timeout)):
        provider.complete(req("ping"))


def test_remote_provider_from_env(monkeypatch):
    monkeypatch.setenv("NEOLAF_PROVIDER_URL", "http://example.invalid/api")
    monkeypatch.setenv("NEOLAF_PROVIDER_KEY", "secret")
    monkeypatch.setenv("NEOLAF_PROVIDER_MODEL", "model-x")
    provider = provider_from_config({"type": "remote"})
    assert isinstance(provider, RemoteProvider)
    assert provider.url == "http://example.invalid/api"
    assert provider.api_key == "secret"
    assert provider.model == "model-x"
    monkeypatch.delenv("NEOLAF_PROVIDER_URL")
    with pytest.raises(ValueError):
        provider_from_config({"type": "remote"})


def test_remote_provider_config_falls_back_per_field(monkeypatch):
    monkeypatch.setenv("NEOLAF_PROVIDER_URL", "http://env.invalid/api")
    monkeypatch.setenv("NEOLAF_PROVIDER_KEY", "env-key")
    monkeypatch.setenv("NEOLAF_PROVIDER_MODEL", "env-model")
    provider = provider_from_config({"type": "remote", "url": "http://config.invalid/api"})
    assert (provider.url, provider.model, provider.api_key) == (
        "http://config.invalid/api", "env-model", "env-key")
    provider = provider_from_config({"type": "remote", "model": "m", "api_key": "k"})
    assert (provider.url, provider.model, provider.api_key) == (
        "http://env.invalid/api", "m", "k")


@pytest.mark.parametrize("field", ["url", "model", "api_key"])
def test_remote_provider_config_fields_must_be_text(field):
    config = {"type": "remote", "url": "http://config.invalid/api", "model": "m", field: 5}
    with pytest.raises(ValueError, match=f"field '{field}' must be text"):
        provider_from_config(config)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


def test_embed_deterministic():
    embedder = DeterministicEmbedder()
    a = embedder.embed("fractions with unlike denominators")
    b = embedder.embed("fractions with unlike denominators")
    assert a == b
    assert type(a) is tuple and len(a) == 64 and all(type(v) is float for v in a)


def test_embed_unit_norm():
    embedder = DeterministicEmbedder()
    for text in ("quadratic", "a b c d", "!!!", "  x  ", "123 123 123"):
        vector = embedder.embed(text)
        norm = math.sqrt(sum(v * v for v in vector))
        assert abs(norm - 1.0) <= 1e-9


def test_embed_rejects_empty():
    with pytest.raises(ValueError):
        DeterministicEmbedder().embed("")


def test_embedding_similarity_ordering():
    # computed with the deterministic embedder itself: related texts must
    # score above unrelated ones
    embedder = DeterministicEmbedder()
    anchor = embedder.embed("quadratic equation")
    related = embedder.embed("quadratic equation roots")
    unrelated = embedder.embed("ocean tides")
    assert cosine(anchor, related) > cosine(anchor, unrelated)

