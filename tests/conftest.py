import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# CI runs with HYPOTHESIS_PROFILE=ci: the same example counts, drawn from a
# fixed seed, so a property test cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

sys.path.insert(0, str(Path(__file__).parent))

from rulelink.corpus import CandidateEntity, Dataset, LabeledInstance, Mention


def toy_instances():
    """Two co-mentions from one short text, with descriptions and types.

    Mention 1 "Cameron": the film director (indegree 30) vs a lesser-known
    person (indegree 10). Mention 2 "Titanic": the ship (44) vs the 1997
    film (52). Gold links: the director and the film.
    """
    m1 = Mention(id="m1", surface="Cameron", text_id="t1", context_ids=("m2",), mention_type="Person")
    m2 = Mention(id="m2", surface="Titanic", text_id="t1", context_ids=("m1",))
    c_james = CandidateEntity(
        id="James_Cameron",
        name="James_Cameron",
        description="Canadian filmmaker who directed the 1997 film about the Titanic disaster",
        domains=frozenset({"Person", "Agent"}),
        indegree=30,
        external_scores={"spacy": 0.85},
    )
    c_roderick = CandidateEntity(
        id="Roderick_Cameron",
        name="Roderick_Cameron",
        description="author born in Upper Canada",
        domains=frozenset({"Person"}),
        indegree=10,
        external_scores={"spacy": 0.45},
    )
    c_ship = CandidateEntity(
        id="Titanic",
        name="Titanic",
        description="British passenger liner that sank in the North Atlantic",
        domains=frozenset({"Ship"}),
        indegree=44,
        external_scores={"spacy": 0.6},
    )
    c_film = CandidateEntity(
        id="Titanic_(1997_film)",
        name="Titanic_(1997_film)",
        description="epic romance film directed by James Cameron",
        domains=frozenset({"Film", "Work"}),
        indegree=52,
        external_scores={"spacy": 0.8},
    )
    return (
        LabeledInstance(mention=m1, candidates=(c_james, c_roderick), labels=(1, 0)),
        LabeledInstance(mention=m2, candidates=(c_ship, c_film), labels=(0, 1)),
    )


@pytest.fixture
def toy_dataset():
    return Dataset(instances=toy_instances(), name="toy")


def instance_obj(mention_id="m1", surface="Cameron", candidates=None, labels=None, **mention_kw):
    """A raw JSONL-shaped instance dict for file-based tests."""
    if candidates is None:
        candidates = [
            {"id": "e1", "name": "Alpha", "description": None, "domains": [], "indegree": 3,
             "embedding": None, "external_scores": {}},
            {"id": "e2", "name": "Beta", "description": "a thing", "domains": ["Thing"],
             "indegree": 1, "embedding": None, "external_scores": {}},
        ]
    if labels is None:
        labels = [1, 0]
    return {
        "mention": {
            "id": mention_id,
            "surface": surface,
            "text_id": mention_kw.get("text_id", "t1"),
            "context_ids": mention_kw.get("context_ids", []),
            "type": mention_kw.get("type"),
        },
        "candidates": candidates,
        "labels": labels,
    }


def write_jsonl(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")
    return path


# JSON numbers no float can hold: 400 digits, or a literal that parses to inf;
# past 4300 digits json.loads refuses an integer outright.
_OVERSIZED = {
    "embedding": lambda obj: obj["candidates"][0].update(embedding=["BIG", 0.5]),
    "external_scores": lambda obj: obj["candidates"][0].update(external_scores={"spacy": "BIG"}),
    "indegree": lambda obj: obj["candidates"][0].update(indegree="BIG"),
    "indegree_inf": lambda obj: obj["candidates"][0].update(indegree="INF"),
    "labels": lambda obj: obj.update(labels=["INF", 0]),
    "mention_id": lambda obj: obj["mention"].update(id="HUGE"),
}


def write_oversized_number(path, field):
    """Two instances in JSONL; the second holds an oversized number in ``field``
    (a key of ``_OVERSIZED``)."""
    objs = [instance_obj("m1"), instance_obj("m2")]
    _OVERSIZED[field](objs[1])
    text = "".join(json.dumps(obj) + "\n" for obj in objs)
    for token, number in (("BIG", "9" * 400), ("INF", "1e400"), ("HUGE", "9" * 5000)):
        text = text.replace(f'"{token}"', number)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# One fuzzed JSON value: every JSON type, and the words a model file's kinds and modes use.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3), st.text(max_size=4),
    st.just([]), st.just({}), st.sampled_from(["and", "or", "not", "tl", "raw", "xor", "lnn", "tnorm"]),
)


def _json_paths(obj, prefix=()):
    """The key path of every value nested in a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def mutate_key_path(obj, data, values) -> tuple:
    """Drop one key path of the JSON tree ``obj`` in place, truncate the list
    there, or replace its value with a draw from ``values``; returns the path
    and the action."""
    path = data.draw(st.sampled_from(sorted(_json_paths(obj), key=repr)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["drop", "replace", "truncate"]))
    if action == "drop":
        del parent[key]
    elif action == "truncate" and isinstance(parent[key], list):
        parent[key] = parent[key][: data.draw(st.integers(0, max(0, len(parent[key]) - 1)))]
    else:
        parent[key] = data.draw(values)
    return path, action


def mutate_line(lines: list, data, junk) -> list:
    """``lines`` (a file's lines, or a CSV's rows) with one of them dropped,
    repeated, blanked or replaced by a draw from ``junk``."""
    lines = list(lines)
    at = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["drop", "repeat", "blank", "replace"]))
    if action == "drop":
        del lines[at]
    elif action == "repeat":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[at])
    else:
        lines[at] = type(lines[at])() if action == "blank" else data.draw(junk)
    return lines


def mutate_byte(raw: bytes, data) -> bytes:
    """``raw`` with one byte replaced, inserted or deleted; the byte is one
    that JSON, CSV or UTF-8 gives a meaning, or any other."""
    at = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.sampled_from(list(b'\n\r,"{}[]:0 \xff\xc3\x80')) | st.integers(0, 255))
    action = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    return raw[:at] + (b"" if action == "delete" else bytes([byte])) + raw[at + (action != "insert"):]


# JSON no decoder accepts: nesting too deep for the parser, and an integer
# past int()'s digit limit.
DEEP_JSON = "[" * 100_000
HUGE_JSON_INT = "9" * 5000


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


class StubHandler(BaseHTTPRequestHandler):
    """A lookup endpoint that answers every GET with ``payload`` as JSON (or
    as it is, if bytes), after ``fail_times`` HTTP 500 replies; ``calls``
    counts the requests."""

    payload: list = []
    fail_times: int = 0
    calls: int = 0

    def do_GET(self):
        cls = type(self)
        cls.calls += 1
        if cls.fail_times > 0:
            cls.fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        body = cls.payload if isinstance(cls.payload, bytes) else json.dumps(cls.payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    StubHandler.fail_times = 0
    StubHandler.calls = 0
    yield f"http://127.0.0.1:{server.server_address[1]}/lookup"
    server.shutdown()
