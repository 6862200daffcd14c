"""A seeded fuzz of the input readers.

Every fixture proof, model and algebra file is mutated by seeded byte and
JSON-token edits and read by ``plaus`` through ``cli.main``.  Input the
program refuses exits 2; a crash, which exits 3, is a defect, whatever the
input.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import FIXTURES
from plausible.cli import main

SEED = 20261020

# What each kind of file is read by; PATH stands for the mutated file.
COMMANDS = {
    "proofs": [
        ["checkproof", "PATH"],
        ["checkproof", "PATH", "--s5-re", "--pretty"],
        ["translate", "PATH", "--to", "box"],
        ["translate", "PATH", "--to", "nabla"],
    ],
    "models": [
        ["eval", "PATH", "0", "nabla p0 -> p1"],
        ["eval", "PATH", "1", "[]p0 | <>~p1", "--class", "km"],
        ["supplement", "PATH"],
        ["supplement", "PATH", "--pretty"],
    ],
    "algebras": [
        ["algebra", "PATH", "--pretty"],
        ["algebra", "PATH", "--formula", "nabla (p0 & p1) -> nabla p0"],
    ],
}

# Bytes an edit inserts: JSON punctuation, digits, signs, letters of the
# formula and key syntax, a blank, and bytes that are not UTF-8.
BYTES = b'{}[]",:-+.0123456789eEpS VRnabl~&|()<>\\\x00\xff\xfe'

# Characters a token edit puts in a string.
CHARACTERS = "p0123456789 ~&|()<>-[]nablAS"

# JSON values a token edit puts in place of another value.
VALUES = [None, True, False, 0, -1, 1, 2, 7, 1.5, 10**30, "", "p0", "p0 &", "nabla", "((p0)",
          "mp", "axiom", "premise", "LPBox", [], [0], [[0, 1]], [-1], {}, {"p0": [0]}, "x" * 300]


def byte_edit(data: bytes, rng: random.Random) -> bytes:
    i = rng.randrange(len(data) + 1)
    kind = rng.randrange(5)
    if kind == 0:  # delete a run of bytes
        return data[:i] + data[i + rng.randint(1, 4):]
    if kind == 1:  # insert a byte
        return data[:i] + bytes([rng.choice(BYTES)]) + data[i:]
    if kind == 2:  # replace a byte
        return data[:i] + bytes([rng.choice(BYTES)]) + data[i + 1:]
    if kind == 3:  # repeat a slice
        j = rng.randrange(i, len(data) + 1)
        return data[:j] + data[i:j] + data[j:]
    return data[:i]  # truncate


def places(node, path=()):
    """Every path to a value of a JSON document."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from places(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from places(value, path + (k,))


def token_edit(doc, rng: random.Random):
    """``doc`` with one value replaced or removed, or a key added."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(places(doc)))
    if not path:
        return rng.choice(VALUES)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    kind = rng.randrange(5)
    if kind == 0 and isinstance(parent, dict):
        del parent[path[-1]]
    elif kind == 0:
        parent.pop(path[-1])
    elif kind == 1 and isinstance(parent, dict):
        parent[rng.choice(["extra", "refs", "schema", "worlds", "V", "S", "R", "sharp"])] = rng.choice(VALUES)
    elif kind >= 2 and isinstance(parent[path[-1]], str) and parent[path[-1]]:
        text = parent[path[-1]]  # a formula or a name: cut, doubled or one character changed
        i = rng.randrange(len(text))
        parent[path[-1]] = rng.choice([text[:i], text[:i] + text, text[:i] + rng.choice(CHARACTERS) + text[i + 1:]])
    else:
        parent[path[-1]] = rng.choice(VALUES)
    return doc


def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        return main(argv), err.getvalue()


@pytest.mark.parametrize("kind, edits", [("proofs", 1500), ("models", 1500), ("algebras", 500)])
def test_mutated_files_never_crash_the_reader(kind, edits, tmp_path):
    rng = random.Random(f"{SEED}-{kind}")
    sources = sorted((FIXTURES / kind).glob("*.json"))
    path = tmp_path / "input.json"
    codes = set()
    for _ in range(edits):
        data = rng.choice(sources).read_bytes()
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 2)):
                data = byte_edit(data, rng)
        else:
            data = json.dumps(token_edit(json.loads(data), rng)).encode()
        path.write_bytes(data)
        argv = [str(path) if a == "PATH" else a for a in rng.choice(COMMANDS[kind])]
        code, err = run(argv)
        assert code in (0, 1, 2), (argv, data, err)
        codes.add(code)
    assert 2 in codes and codes - {2}
