"""The request decoder answers exactly as ``json.loads`` does.

:func:`repro.service.server.decode_json` hands ``bytes`` bodies to
``orjson`` when it is installed and to the stdlib otherwise or where the
two can differ.  The equivalence tests run on both paths (``orjson``
present, and patched out) and compare against ``json.loads`` called directly:
the same value with the same types, floats equal bit for bit and dict
keys in the same order, or the same exception with the same message.
The last test posts one body to a live server on each path and checks
that the cache key and the result do not depend on the decoder.
"""

import codecs
import http.client
import json
import os
import struct
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import hierarchical_matrix
from repro.service import server as server_mod
from repro.service.cache import cache_key
from repro.service.scheduler import Scheduler
from repro.service.server import ServiceServer, decode_json


def _outcome(loads, raw):
    try:
        return "value", loads(raw)
    except (ValueError, RecursionError) as exc:
        return "error", (type(exc), str(exc))


def _assert_same(got, want, path="$"):
    """Equal values of equal types; floats bit for bit; same key order."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (path, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


def assert_decodes_like_stdlib(raw):
    got_kind, got = _outcome(decode_json, raw)
    want_kind, want = _outcome(json.loads, raw)
    assert got_kind == want_kind, (raw[:200], got, want)
    if want_kind == "error":
        assert got == want
    else:
        _assert_same(got, want)


# --- generated documents -------------------------------------------------

_text = st.text(st.characters(exclude_categories=()), max_size=12)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    _text,
)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(_text, children, max_size=6),
    ),
    max_leaves=40,
)
_separators = st.sampled_from(
    [None, (",", ":"), (", ", ": "), (" ,\t", " :\n"), ("\r\n,", ":\r")]
)
_encodings = st.sampled_from(
    ["utf-8"] * 6 + ["utf-8-sig", "utf-16-le", "utf-16-be", "utf-32",
                     "utf-32-le", "utf-32-be"]
)


@st.composite
def dumped(draw):
    """A generated document as request bytes, as a client might send it."""
    text = json.dumps(
        draw(_documents),
        separators=draw(_separators),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        ensure_ascii=draw(st.booleans()),
    )
    return text.encode(draw(_encodings), "surrogatepass")


@st.composite
def mutated(draw):
    """A dumped document with a few bytes flipped, inserted or removed."""
    raw = bytearray(draw(dumped()))
    interesting = st.sampled_from(
        list(b'0123456789-+.eE"\\[]{}:, \t\n') + [0, 0xEF, 0xED, 0xFF]
    )
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        at = draw(st.integers(0, len(raw)))
        if op == "insert" or not raw:
            raw[at:at] = bytes([draw(interesting)])
        elif op == "truncate":
            del raw[at:]
        elif at < len(raw):
            if op == "delete":
                del raw[at]
            else:
                raw[at] = draw(interesting)
    return bytes(raw)


_digits = st.text("0123456789", min_size=1, max_size=25)


@st.composite
def number_arrays(draw):
    """JSON arrays of arbitrary decimal literals, not only ``repr`` output."""
    numbers = []
    for _ in range(draw(st.integers(0, 8))):
        literal = draw(st.sampled_from(["", "-"])) + (draw(_digits).lstrip("0") or "0")
        if draw(st.booleans()):
            literal += "." + draw(_digits)
        if draw(st.booleans()):
            literal += draw(st.sampled_from(["e", "E", "e+", "E-", "e-"]))
            literal += draw(st.text("0123456789", min_size=1, max_size=3))
        numbers.append(literal)
    return ("[" + ",".join(numbers) + "]").encode("ascii")


_examples = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@_examples
@given(raw=dumped())
def test_generated_documents(decoder, raw):
    assert_decodes_like_stdlib(raw)


@_examples
@given(raw=mutated())
def test_mutated_documents(decoder, raw):
    assert_decodes_like_stdlib(raw)


@_examples
@given(raw=number_arrays())
def test_decimal_literals(decoder, raw):
    assert_decodes_like_stdlib(raw)


# --- pinned inputs -------------------------------------------------------

PINNED = {
    "nan": b"[NaN, -NaN]",
    "infinity": b'{"a": Infinity, "b": -Infinity}',
    "utf8-bom": codecs.BOM_UTF8 + b'{"a": 1}',
    "utf16": '{"a": [1.5, "é"]}'.encode("utf-16"),
    "utf16-be": '{"a": 1}'.encode("utf-16-be"),
    "utf32": '{"a": 1}'.encode("utf-32"),
    "utf32-le": '{"a": 1}'.encode("utf-32-le"),
    "escaped-lone-surrogate": b'{"a": "\\ud800"}',
    "encoded-lone-surrogate": b'{"a": "\xed\xa0\x80"}',
    "escaped-surrogate-pair": b'"\\ud83d\\ude00"',
    "overflow": b"[1e400, -1e400, 1.7976931348623159e308]",
    "underflow": b"[1e-400, -1e-400, 5e-324, 2.4703282292062328e-324]",
    "nested-5000": b"[" * 5000 + b"]" * 5000,
    "nested-600": b"[" * 600 + b"]" * 600,
    "objects-600": b'{"a":' * 600 + b"1" + b"}" * 600,
    "below-int64": b"-9223372036854775809",
    "int64-min": b"-9223372036854775808",
    "uint64-max": b"18446744073709551615",
    "above-uint64": b"18446744073709551616",
    "big-ints-in-object": b'{"n": [99999999999999999999999, -12345678901234567890]}',
    "long-fraction": b"0.00012345678901234567",
    "long-mantissa": b"[1234567890.1234567890123, 0.1000000000000000055511151231257827]",
    "exponent-digits": b"1e0000000000000000001",
    "negative-zero": b"[-0, -0.0, 0e5, -0E-5]",
    "duplicate-keys": b'{"b": 1, "a": 2, "b": 3}',
    "control-character": b'"a\x01b"',
    "nul-escape": b'"\\u0000"',
    "empty": b"",
    "whitespace": b" \t\r\n",
    "form-feed": b"\x0c[1]",
    "trailing-data": b"[1] [2]",
    "leading-zero": b"[01]",
    "bare-dot": b"[1.]",
    "plus-sign": b"[+1]",
    "single-quotes": b"{'a': 1}",
    "invalid-utf8": b'["\xff"]',
    "truncated-utf8": b'["\xe2\x82"]',
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_inputs(decoder, name):
    assert_decodes_like_stdlib(PINNED[name])


def test_nesting_that_crashes_orjson_never_reaches_it():
    """orjson 3.8.3 kills the process on 200,000 levels of nesting; the
    container guard must route such a body to the stdlib, which raises."""
    pytest.importorskip("orjson")
    script = (
        "from repro.service.server import decode_json\n"
        "try:\n"
        "    decode_json(b'[' * 200000 + b']' * 200000)\n"
        "except RecursionError:\n"
        "    print('RecursionError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "RecursionError\n"), done.stderr


def test_text_fields_decode_like_stdlib(decoder):
    for text in ['{"a": NaN}', "\ufeff{}", '{"a": "\\ud800"}', '"\ud800"',
                 "[" * 5000, "{}"]:
        assert_decodes_like_stdlib(text)


def test_matrix_bodies_take_the_orjson_path(monkeypatch):
    """The guard lets a typical ``/solve`` body through to orjson."""
    orjson = pytest.importorskip("orjson")
    calls = []

    def loads(raw):
        calls.append(len(raw))
        return orjson.loads(raw)

    monkeypatch.setattr(
        server_mod, "_orjson",
        types.SimpleNamespace(loads=loads, JSONDecodeError=orjson.JSONDecodeError),
    )
    matrix = hierarchical_matrix([[6, 6]] * 5, seed=np.random.default_rng(3), jitter=0.3)
    body = json.dumps({
        "matrix": {"values": matrix.values.tolist(), "labels": list(matrix.labels)},
        "method": "compact",
    }).encode()
    assert_decodes_like_stdlib(body)
    assert calls == [len(body)]


# --- cache keys and results ----------------------------------------------


def test_keys_and_results_do_not_depend_on_the_decoder(monkeypatch):
    if server_mod._orjson is None:
        pytest.skip("orjson is not installed")
    matrix = hierarchical_matrix([[6, 6]] * 5, seed=np.random.default_rng(11), jitter=0.3)
    body = json.dumps({
        "matrix": {"values": matrix.values.tolist(), "labels": list(matrix.labels)},
        "method": "compact",
    }).encode()

    def post():
        with ServiceServer(Scheduler(workers=1), port=0) as srv:
            connection = http.client.HTTPConnection(*srv.address, timeout=60.0)
            try:
                connection.request(
                    "POST", "/solve", body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                record = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 200
        assert record["state"] == "done"
        assert record["cache"] == "miss"
        return record["key"], json.dumps(record["result"], sort_keys=True)

    fast = post()
    monkeypatch.setattr(server_mod, "_orjson", None)
    stdlib = post()
    assert fast == stdlib
    assert fast[0] == cache_key(DistanceMatrix(**json.loads(body)["matrix"]))
