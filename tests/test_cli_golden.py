"""Golden CLI transcript: argv -> (exit code, stdout, stderr), byte for byte.

`golden_cli.json` was recorded once and is not regenerated by refactors, so
any change to a command's text, JSON, exit code or error message fails here.
Group files live in a temporary directory that reads as `{dir}` in argv and
output; bench timings are masked.  To record a transcript for a deliberate
output change, run `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from amalgam.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

GROUPS = {
    "ex1": "# worst-case fixture\nA: a b d\nB: x y z\nC: a^2 = x\nC: b = y^2\n",
    "ex2": "A: a b\nB: x y\nC: a = y^-1 x y\nC: b^-1 a b = x^2\n",
    "malnormal": "A: a b d\nB: x y z\nC: b = y\n",
    # C = <a> is malnormal in A only, so singular C-elements collapse into B
    "half": "A: a b\nB: x y\nC: a = x^2\n",
    "bad-forward": "A: a b\nB: x y\nC: a = x\nC: a = y\n",
    "bad-reverse": "A: a b\nB: x y\nC: a = x\nC: b = x\n",
    "shared": "A: a b\nB: a y\nC: a = a\n",
    "trivial": "A: a b\nB: x y\nC: = x\n",
    "broken": "A a b\n",
}

WORDS = {
    "ex1": ["z d x", "d x d^-1", "a", "d", "a^2 b", "x y z d", "y^2 b^-1 d^2 x^2", ""],
    "ex2": ["a", "b y", "y^-1 b^-1 a b y", "x b^2 a", "b^-1 y^-1 x", "x^2 a^2"],
    "malnormal": ["b z^-1", "a^-1 y^2 x y^-1", "y", "d y d^-1"],
    "half": ["a", "b a b^-1", "x y"],
}

PAIRS = {
    "ex1": [
        ("a^2", "a^-1 a^2 a"),  # cyclic length 0, both singular: undecided
        ("d z", "z d"),
        ("d", "z"),
        ("x^2 y^2", "y^-1 x^2 y^3"),  # cyclic length 0, regular
        ("y^2 b^-1 d^2 x^2", "y b^-1 d^2 x^2 y"),  # cyclic length 1
        ("y d", "x y d x^-1"),
        ("z y d", "y a x"),
        ("y^2 b^2 x^-1", "y^3"),  # cyclic lengths differ
    ],
    "ex2": [
        ("x^2 a^2", "a b^2 x^2 a^2 b^-2 a^-1"),
        ("b x x", "b x^2"),
        ("x b^2 a", "b^2 a x"),
        ("b^-1 y^-1 x", "b^-1 y^-1 x"),  # every permutation singular: undecided
        ("x^-1", "b^2 x^-1 b^-2"),
        ("y", "b"),
    ],
    "malnormal": [
        ("b z^-1", "z^-1 b"),
        ("a^-1 y^2 x y^-1", "d a^-1 y^2 x y^-1 d^-1"),
        ("y", "y"),
        ("y^2", "b"),
    ],
    "half": [("a", "b a b^-1"), ("a", "a^2"), ("a", "x")],  # the malnormal-factor exit
}


def _corpus() -> list[list[str]]:
    corpus = []
    for name in ("ex1", "ex2", "malnormal", "half"):
        g = ["-g", "{dir}/%s.group" % name]
        queries = [["validate", *g], ["transversal", *g]]
        for w in WORDS[name]:
            queries += [[cmd, *g, "-w", w] for cmd in ("nf", "reduce", "cyclic", "classify")]
            queries.append(["nf", *g, "-w", w, "--trace"])
        queries += [["conj", *g, "-u", u, "-v", v] for u, v in PAIRS[name]]
        corpus += [argv + tail for argv in queries for tail in ([], ["--json"])]
    ex1, ex2 = "{dir}/ex1.group", "{dir}/ex2.group"
    for policy in ("paper-ex1:2", "paper-ex1:3"):
        for tail in ([], ["--json"]):
            corpus += [
                ["nf", "-g", ex1, "-w", "z d x", "--policy", policy, "--trace", *tail],
                ["nf", "-g", ex1, "-w", "z d z d x", "--policy", policy, *tail],
                ["cyclic", "-g", ex1, "-w", "d z d x d^-1", "--policy", policy, *tail],
                ["classify", "-g", ex1, "-w", "z d", "--policy", policy, *tail],
                ["conj", "-g", ex1, "-u", "d z", "-v", "z d", "--policy", policy, *tail],
            ]
    corpus.append(["nf", "-g", ex2, "-w", "a", "--policy", "paper-ex1:2"])
    for name in ("bad-forward", "bad-reverse", "shared", "trivial", "broken"):
        g = ["-g", "{dir}/%s.group" % name]
        corpus += [["validate", *g], ["validate", *g, "--json"], ["nf", *g, "-w", "a"]]
    corpus += [
        ["validate", "-g", "{dir}/missing.group"],
        ["nf", "-g", ex1, "-w", "q q"],
        ["nf", "-g", ex1, "-w", "a^"],
        ["nf", "-g", ex1, "-w", "a b^0"],
        ["nf", "-g", ex1, "-w", "a", "--policy", "bogus"],
        ["nf", "-g", ex1],
        [],
        ["frobnicate"],
        ["nf", "--help"],
        ["validate", "--help"],
        ["bench", "--help"],
    ]
    for tail in ([], ["--json"]):
        corpus += [
            ["bench", "paper-ex1", *tail],
            ["bench", "paper-ex1", "-p", "3", "-m", "2", *tail],
            ["bench", "paper-ex2", *tail],
            ["bench", "paper-ex2", "-p", "3", "-n", "2", *tail],
            ["bench", "random", *tail],
            ["bench", "random", "--length", "8", "--count", "5", "--seed", "3", *tail],
        ]
    corpus += [["bench", "paper-ex1", "-p", "1"], ["bench", "random", "--count", "0"]]
    return corpus


CORPUS = _corpus()

# bench timings differ between runs
_MASKS = ((re.compile(r'"elapsed": [0-9.e+-]+'), '"elapsed": "?"'),
          (re.compile(r"time=[0-9.]+s"), "time=?s"))


def transcript(directory: str) -> list[dict]:
    """Run every corpus call in this process, with group files in `directory`."""
    for name, text in GROUPS.items():
        Path(directory, f"{name}.group").write_text(text)
    entries = []
    for argv in CORPUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", directory) for arg in argv])
        streams = [s.getvalue().replace(directory, "{dir}") for s in (out, err)]
        for pattern, mask in _MASKS:
            streams = [pattern.sub(mask, s) for s in streams]
        entries.append({"argv": argv, "code": code, "stdout": streams[0], "stderr": streams[1]})
    return entries


def test_cli_matches_the_golden_transcript(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == CORPUS
    for got, want in zip(transcript(str(tmp_path)), golden):
        assert got == want, want["argv"]
    assert {entry["code"] for entry in golden} == {0, 2, 3, 4}


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        entries = transcript(tmp)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} calls to {GOLDEN}", file=sys.stderr)
