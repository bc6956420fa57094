"""The byte boundary of the HTTP front end: ``parse_request_head``.

The server takes a request head in one read and parses it with a pure
function, so the parser can be driven with arbitrary bytes here — no
sockets.  The line-by-line reader it replaced is kept below as the
oracle for heads both accept.
"""

import asyncio
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import GuardConfig, compile_snapshot, write_snapshot
from repro.serve.http import MAX_BODY_BYTES, RequestError, parse_request_head
from tests.test_serve_guard import _read_response, _with_server

SETTINGS = dict(max_examples=300, deadline=None)
MAX_HEADERS = 8


def reference_read_head(head: bytes, max_header_count: int):
    """The reader ``ModelServer._read_request`` used to be: one
    ``readline`` for the request line, one per header, the checks in
    the order it made them.  Returns ``(method, path, content_length)``
    or the ``(status, code)`` it answered."""
    stream = io.BytesIO(head)
    parts = stream.readline().decode("latin-1").split()
    if len(parts) != 3:
        return 400, "bad-request"
    content_length = 0
    count = 0
    while True:
        header = stream.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        count += 1
        if count > max_header_count:
            return 431, "too-many-headers"
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
    if content_length < 0 or content_length > MAX_BODY_BYTES:
        return 413, "payload-too-large"
    return parts[0], parts[1].split("?", 1)[0], content_length


def outcome(head: bytes):
    """``parse_request_head``'s answer in the oracle's terms; anything
    but a request or a ``RequestError`` propagates and fails the test."""
    try:
        return parse_request_head(head, MAX_HEADERS)
    except RequestError as exc:
        assert exc.doc["error"]["status"] == exc.status
        return exc.status, exc.doc["error"]["code"]


def assert_typed(result):
    if len(result) == 2:
        assert result[0] in (400, 413, 431) and isinstance(result[1], str)
    else:
        method, path, content_length = result
        assert isinstance(method, str) and isinstance(path, str)
        assert type(content_length) is int and 0 <= content_length <= MAX_BODY_BYTES


token = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
header_name = st.one_of(
    st.sampled_from(["Host", "Content-Length", "content-length", "CONTENT-LENGTH ", "X-A"]),
    token,
)
header_value = st.one_of(
    st.integers(-5, MAX_BODY_BYTES + 5).map(str),
    st.sampled_from(["", " 12 ", "1_0", "+7", "0x10", "twelve", "9" * 30]),
    token,
)


@st.composite
def heads(draw):
    """Heads as a client would frame them — well-formed more often than
    not, with the odd missing field, bare-LF line, repeated or absurd
    ``Content-Length`` and too many headers."""
    line = " ".join(draw(st.lists(token, min_size=draw(st.sampled_from([3, 3, 3, 2, 4])),
                                  max_size=4)))
    headers = draw(st.lists(st.tuples(header_name, header_value), max_size=MAX_HEADERS + 2))
    endings = st.sampled_from(["\r\n", "\r\n", "\r\n", "\n"])
    text = line + draw(endings)
    for name, value in headers:
        text += f"{name}:{draw(st.sampled_from(['', ' ']))}{value}" + draw(endings)
    return (text + "\r\n").encode("latin-1")


class TestParseRequestHead:
    def test_the_benchmark_shape(self):
        head = (b"POST /predict?x=1 HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\nContent-Length: 42\r\n\r\n")
        assert parse_request_head(head, 100) == ("POST", "/predict", 42)

    def test_no_headers_no_body(self):
        assert parse_request_head(b"GET /livez HTTP/1.1\r\n\r\n", 100) == ("GET", "/livez", 0)

    @pytest.mark.parametrize("head, status, code", [
        (b"GET /livez\r\n\r\n", 400, "bad-request"),
        (b"\r\n\r\n", 400, "bad-request"),
        (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 9 + b"\r\n", 431, "too-many-headers"),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413, "payload-too-large"),
        (b"POST / HTTP/1.1\r\nContent-Length: lots\r\n\r\n", 413, "payload-too-large"),
        (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
         413, "payload-too-large"),
    ])
    def test_typed_errors(self, head, status, code):
        assert outcome(head) == (status, code)

    @given(heads())
    @settings(**SETTINGS)
    def test_framed_heads_parse_as_the_line_reader_did(self, head):
        assert outcome(head) == reference_read_head(head, MAX_HEADERS)

    @given(heads(), st.data())
    @settings(**SETTINGS)
    def test_truncated_and_mutated_heads_fail_typed(self, head, data):
        """Cut anywhere, flip any bytes: a request or a RequestError."""
        mutated = bytearray(head[: data.draw(st.integers(0, len(head)))])
        for _ in range(data.draw(st.integers(0, 4))):
            if mutated:
                mutated[data.draw(st.integers(0, len(mutated) - 1))] = data.draw(
                    st.integers(0, 255)
                )
        assert_typed(outcome(bytes(mutated)))

    @given(st.binary(max_size=200))
    @settings(**SETTINGS)
    def test_arbitrary_bytes_fail_typed(self, head):
        assert_typed(outcome(head))


@pytest.fixture(scope="module")
def snapshot_path(anyopt_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("head") / "model.snap"
    write_snapshot(compile_snapshot(anyopt_model), str(path))
    return str(path)


class TestOneReadHead:
    """The reader around the parser, over real sockets (its deadline
    and limit answers are ``tests/test_serve_guard.py``'s)."""

    def test_head_in_pieces_and_pipelined_requests(self, snapshot_path):
        body = json.dumps({"sites": [1, 4], "clients": [10**9]}).encode()

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # A head that arrives byte by byte, blank line last ...
            for byte in b"GET /livez HTTP/1.1\r\nHost: t\r\n\r\n":
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0)
            first = await asyncio.wait_for(_read_response(reader), 5.0)
            # ... then three requests in one segment, a body among them.
            writer.write(
                b"GET /livez HTTP/1.1\r\n\r\n"
                b"POST /predict HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n" % (len(body), body)
            )
            rest = [await asyncio.wait_for(_read_response(reader), 5.0) for _ in range(3)]
            writer.close()
            return [first] + rest

        answers = asyncio.run(_with_server(snapshot_path, scenario))
        assert [status for status, _, _ in answers] == [200, 200, 422, 404]
        assert json.loads(answers[2][2])["error"]["reasons"] == {"unmapped": 1}

    def test_peer_closing_mid_head_ends_quietly(self, snapshot_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"POST /predict HTTP/1.1\r\nHost: t\r\n")
            await writer.drain()
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await asyncio.sleep(0.05)
            return data, server.open_connections

        assert asyncio.run(_with_server(snapshot_path, scenario)) == (b"", 0)

    def test_head_over_the_limit_with_short_lines_answers_431(self, snapshot_path):
        guard = GuardConfig(max_header_count=10**6)

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # 80 KB of head, no line near the limit, no blank line yet.
            writer.write(b"GET /livez HTTP/1.1\r\n" + (b"X-Pad: " + b"p" * 91 + b"\r\n") * 800)
            await writer.drain()
            status, _, payload = await asyncio.wait_for(_read_response(reader), 5.0)
            writer.close()
            return status, json.loads(payload)["error"]["code"]

        assert asyncio.run(_with_server(snapshot_path, scenario, guard=guard)) == (
            431, "header-too-large"
        )
