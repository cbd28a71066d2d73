"""Minimal HTTP client for text-completion endpoints, on the standard library.

Used by the extraction workflow (send a structuring prompt, get raw text back)
and by pairwise comparison scoring.  The wire format is deliberately simple:
POST a JSON object ``{"prompt": ...}`` and expect ``{"text": ...}`` in return.
An https endpoint's certificate is checked against the system's trust store.
"""

from __future__ import annotations

import json
import math

from .errors import ContractError, EvaluationError, parse_json


class CompletionClient:
    """Thin wrapper over one completion endpoint."""

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 30.0):
        if not endpoint or not endpoint.startswith(("http://", "https://")):
            raise ContractError(f"endpoint must be an http(s) URL, got {endpoint!r}")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ContractError(f"timeout must be a positive, finite number of seconds, "
                                f"got {timeout}")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        """POST the prompt, return the completion text.

        Transport failures, non-2xx statuses, bad JSON, and responses missing
        the ``text`` field all surface as :class:`EvaluationError` so callers
        can treat the endpoint as a single fallible dependency.  The HTTP and
        TLS modules load on the first call, so ``import lexchain`` needs none.
        """
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        if not prompt:
            raise ContractError("prompt must be non-empty")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = Request(self.endpoint, json.dumps({"prompt": prompt}).encode("utf-8"), headers)
        try:
            try:
                with urlopen(request, timeout=self.timeout) as response:
                    body = response.read()
            except HTTPError as exc:  # a non-2xx status; a failed body read lands below
                raise EvaluationError(f"completion endpoint returned HTTP {exc.code}: "
                                      f"{exc.read().decode('utf-8', 'replace')[:200]}") from exc
        except (OSError, HTTPException) as exc:
            raise EvaluationError(f"completion request failed: {exc}") from exc
        payload = parse_json(body, lambda reason, _: EvaluationError(
            f"completion response is not JSON: {reason}"))
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            raise EvaluationError("completion response must be an object with a 'text' string")
        return payload["text"]
