"""Completion-endpoint client against a local stub HTTP server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from lexchain.client import CompletionClient
from lexchain.errors import ContractError, EvaluationError


class _StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted response and records the request it received."""

    script = {"status": 200, "body": json.dumps({"text": "ok"}), "content_type": "application/json"}
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length).decode("utf-8")
        type(self).seen.append({
            "path": self.path,
            "body": body,
            "authorization": self.headers.get("Authorization"),
            "content_type": self.headers.get("Content-Type"),
        })
        spec = type(self).script
        payload = spec["body"].encode("utf-8")
        self.send_response(spec["status"])
        self.send_header("Content-Type", spec["content_type"])
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    _StubHandler.seen = []
    _StubHandler.script = {"status": 200, "body": json.dumps({"text": "ok"}),
                           "content_type": "application/json"}
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()


class TestConstruction:
    """Endpoint validation happens before any network traffic."""

    @pytest.mark.parametrize("bad", ["", "ftp://host", "host:8000/path", "file:///tmp/x"])
    def test_non_http_endpoint_rejected(self, bad):
        with pytest.raises(ContractError):
            CompletionClient(bad)

    def test_http_and_https_accepted(self):
        assert CompletionClient("http://h/x").endpoint == "http://h/x"
        assert CompletionClient("https://h/x").api_key is None

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, float("nan"), float("inf")])
    def test_timeout_not_positive_and_finite_rejected(self, timeout):
        with pytest.raises(ContractError, match="timeout must be a positive, finite number"):
            CompletionClient("http://127.0.0.1:9/closed", timeout=timeout)

    def test_empty_prompt_rejected_without_request(self):
        client = CompletionClient("http://127.0.0.1:1/unreachable")
        with pytest.raises(ContractError):
            client.complete("")


class TestWireFormat:
    """The request body is {"prompt": ...} and the reply field is "text"."""

    def test_success_round_trip(self, stub_server):
        _StubHandler.script["body"] = json.dumps({"text": "the completion"})
        client = CompletionClient(stub_server)
        assert client.complete("structure this provision") == "the completion"
        request = _StubHandler.seen[0]
        assert json.loads(request["body"]) == {"prompt": "structure this provision"}
        assert request["content_type"] == "application/json"
        assert request["authorization"] is None

    def test_api_key_sent_as_bearer(self, stub_server):
        client = CompletionClient(stub_server, api_key="sk-test-123")
        client.complete("hello")
        assert _StubHandler.seen[0]["authorization"] == "Bearer sk-test-123"

    def test_unicode_prompt_survives(self, stub_server):
        _StubHandler.script["body"] = json.dumps({"text": "判处有期徒刑36个月"}, ensure_ascii=False)
        client = CompletionClient(stub_server)
        assert client.complete("刑法第二百六十三条") == "判处有期徒刑36个月"
        assert json.loads(_StubHandler.seen[0]["body"])["prompt"] == "刑法第二百六十三条"


class TestFailureModes:
    """Every endpoint failure surfaces as a single error type."""

    def test_non_2xx_status(self, stub_server):
        _StubHandler.script = {"status": 500, "body": "boom", "content_type": "text/plain"}
        with pytest.raises(EvaluationError, match="HTTP 500"):
            CompletionClient(stub_server).complete("x")

    def test_not_found_status(self, stub_server):
        _StubHandler.script = {"status": 404, "body": "missing", "content_type": "text/plain"}
        with pytest.raises(EvaluationError, match="HTTP 404"):
            CompletionClient(stub_server).complete("x")

    def test_malformed_json(self, stub_server):
        _StubHandler.script = {"status": 200, "body": "{not json", "content_type": "application/json"}
        with pytest.raises(EvaluationError, match="not JSON"):
            CompletionClient(stub_server).complete("x")

    def test_json_nested_too_deeply(self, stub_server):
        _StubHandler.script = {"status": 200, "body": "[" * 100000 + "]" * 100000,
                               "content_type": "application/json"}
        with pytest.raises(EvaluationError, match="not JSON"):
            CompletionClient(stub_server).complete("x")

    def test_missing_text_field(self, stub_server):
        _StubHandler.script["body"] = json.dumps({"completion": "wrong key"})
        with pytest.raises(EvaluationError, match="'text'"):
            CompletionClient(stub_server).complete("x")

    def test_non_string_text_field(self, stub_server):
        _StubHandler.script["body"] = json.dumps({"text": 42})
        with pytest.raises(EvaluationError, match="'text'"):
            CompletionClient(stub_server).complete("x")

    def test_non_object_payload(self, stub_server):
        _StubHandler.script["body"] = json.dumps(["just", "a", "list"])
        with pytest.raises(EvaluationError, match="'text'"):
            CompletionClient(stub_server).complete("x")

    def test_connection_refused(self):
        client = CompletionClient("http://127.0.0.1:9/closed", timeout=0.5)
        with pytest.raises(EvaluationError, match="request failed"):
            client.complete("x")
