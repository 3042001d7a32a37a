"""Chat-completion transport.

The wire protocol is the ubiquitous JSON-over-HTTP chat format with
model/messages/temperature/top_p fields. Transport failures, 5xx
responses and 429 (too many requests) are retried with exponential
backoff; anything else fails fast. The API token comes from the
environment, never from config files.
"""

from __future__ import annotations

import logging
import os
import time
from functools import partial
from typing import Callable, Protocol, Sequence

from .messages import ChatMessage, to_wire

log = logging.getLogger(__name__)

API_KEY_ENV = "JSONDUEL_API_KEY"
ENDPOINT_ENV = "JSONDUEL_ENDPOINT"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"

MAX_ATTEMPTS = 3
BACKOFF_START_S = 0.5
REQUEST_TIMEOUT_S = 120.0


class ModelError(Exception):
    """A model request gave no usable reply, after retries if it was retryable."""


class LlmClient(Protocol):
    def complete(self, messages: Sequence[ChatMessage], params) -> str: ...


def prepare_request(
    client: LlmClient, messages: Sequence[ChatMessage], params
) -> Callable[[], str]:
    """The request for `messages`, as a function that a worker calls.

    A client with a `reserve` method (the offline clients) fixes its reply
    now, on the calling thread, so replies follow the order of these calls
    whatever order the workers run in. Any other client is asked when the
    worker calls the function. This is the one place that decides how a
    model request is sent.
    """
    reserve = getattr(client, "reserve", None)
    return reserve(messages) if reserve else partial(client.complete, messages, params)


class HttpChatClient:
    """Real transport, and the only code that loads `requests`. `session`
    and `sleep` are injectable for tests. A session built here keeps up to
    `open_requests` connections: the most its caller keeps open at once."""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        session=None,
        sleep=None,
        open_requests: int = 10,  # urllib3's default pool size
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV) or DEFAULT_ENDPOINT
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if session is None:
            from requests import Session
            from requests.adapters import HTTPAdapter
            session = Session()
            adapter = HTTPAdapter(pool_maxsize=open_requests)
            session.mount("https://", adapter)
            session.mount("http://", adapter)
        self.session = session
        self.sleep = sleep if sleep is not None else time.sleep

    def complete(self, messages: Sequence[ChatMessage], params) -> str:
        from requests import RequestException
        body = {
            "model": params.model,
            "messages": to_wire(messages),
            "temperature": params.temperature,
            "top_p": params.top_p,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        log.debug("request to %s: %s", self.endpoint, body)

        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                delay = BACKOFF_START_S * (2 ** (attempt - 1))
                log.warning(
                    "retrying request (attempt %d/%d) after %s: %s",
                    attempt + 1, MAX_ATTEMPTS, delay, last_error,
                )
                self.sleep(delay)
            try:
                response = self.session.post(
                    self.endpoint, json=body, headers=headers, timeout=REQUEST_TIMEOUT_S
                )
            except RequestException as exc:
                last_error = exc
                continue
            if response.status_code >= 500 or response.status_code == 429:
                last_error = ModelError(f"status {response.status_code}")
                continue
            if response.status_code >= 400:
                raise ModelError(
                    f"request rejected with status {response.status_code}: {response.text[:200]}"
                )
            return self._extract_content(response)
        raise ModelError(f"request failed after {MAX_ATTEMPTS} attempts: {last_error}")

    def _extract_content(self, response) -> str:
        try:
            payload = response.json()
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ModelError(f"malformed completion response: {exc}") from None
        log.debug("response: %s", content)
        if content is not None and not isinstance(content, str):
            raise ModelError(f"non-text completion response: {type(content).__name__}")
        if not content:
            raise ModelError("empty completion response")
        return content
