from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import memsearch

FIXTURES = Path(memsearch.__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def demo_config_path() -> Path:
    return FIXTURES / "demo_config.json"


def write_mini_config(tmp_path: Path, cells: list[dict], benchmarks: dict | None = None) -> Path:
    """Write a small experiment config into tmp_path, pointing at the
    shipped fixture scripts by absolute path."""
    if benchmarks is None:
        benchmarks = {
            "toy_sql_demo": {
                "fixtures": str(FIXTURES / "tasks" / "toy_sql_demo.json"),
                "policy_script": str(FIXTURES / "scripts" / "toy_sql_policy.json"),
                "reward_script": str(FIXTURES / "scripts" / "toy_sql_reward.json"),
                "augmentor_script": str(FIXTURES / "scripts" / "toy_sql_augmentor.json"),
                "discovery_tool": "LIST_TABLES",
            }
        }
    cfg = {"embedder_dim": 64, "benchmarks": benchmarks, "cells": cells}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def same_bundle(got, want) -> None:
    """Assert two bundles agree in all a prompt reads: units, text, fingerprint and tokens."""
    assert (got.units, got.rendered, got.fingerprint, got.tokens) == (
        want.units, want.rendered, want.fingerprint, want.tokens
    )


class ChatStub(BaseHTTPRequestHandler):
    """A chat endpoint on localhost: the n-th request gets the n-th (status,
    body) of `script`, or its last one; `hits` keeps each request's body and
    `headers_seen` its headers."""

    script: list[tuple[int, bytes]] = []
    hits: list[bytes] = []
    headers_seen: list[dict[str, str]] = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).hits.append(body)
        type(self).headers_seen.append(dict(self.headers))
        status, payload = self.script[min(len(self.hits) - 1, len(self.script) - 1)]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    """The URL of a `ChatStub` serving for one test, its script and records empty."""
    server = HTTPServer(("127.0.0.1", 0), ChatStub)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    ChatStub.script = []
    ChatStub.hits = []
    ChatStub.headers_seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join(timeout=2)
    server.server_close()
    assert not thread.is_alive()


def chat_reply(content, prompt_tokens=12, completion_tokens=3) -> bytes:
    """A chat completion body answering `content` with the given usage."""
    return json.dumps(
        {
            "choices": [{"message": {"content": content}}],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
        }
    ).encode()
