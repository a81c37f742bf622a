import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import cli
from amalgam.cli import (
    PresentationSyntaxError,
    bench_paper_ex1,
    bench_paper_ex2,
    bench_random,
    main,
    parse_presentation,
)
from amalgam.stallings import SubgroupGraph
from amalgam.words import Alphabet, Word, format_word, parse_word
from bruteforce import normal_form_unmemoised, parse_args_through_main
from test_cli_golden import GOLDEN, GROUPS

EX1 = """\
# worst-case fixture
A: a b d
B: x y z
C: a^2 = x
C: b = y^2
"""


@pytest.fixture()
def group_file(tmp_path):
    path = tmp_path / "ex1.group"
    path.write_text(EX1)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_presentation():
    pf = parse_presentation(EX1)
    assert pf.alphabet_a.names == ("a", "b", "d")
    assert pf.alphabet_b.names == ("x", "y", "z")
    assert [(format_word(u), format_word(v)) for u, v in pf.pairs] == [("a^2", "x"), ("b", "y^2")]
    ctx = pf.context()
    assert ctx.malnormal_a is False


def test_parse_presentation_errors_carry_lines():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("A: a b\nB: x\nC: a b\n")
    assert err.value.line == 3
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("A: a\nC: a = a\n")
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("A: a\nA: b\nB: x\nC: a = x\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("C: a = x\n", "line 1, column 1: missing A: line"),
        ("A: a\nC: a = x\n", "line 1, column 1: missing B: line"),
        ("A: a\nB: x\n", "line 1, column 1: missing C: lines"),
        ("A: a\nB: x\nB: y\nC: a = x\n", "line 3, column 1: duplicate B: line"),
        ("A:\nB: x\nC: a = x\n", "line 1, column 1: empty A: line"),
        ("B:\nA: a\nC: a = x\n", "line 1, column 1: empty B: line"),
        ("A: a b d\nB: x y z\nC: a = x = y\n", "line 3, column 10: bad token '='"),
        ("A: a\nB: x\n  C:  a^0 = x # c\n", "line 3, column 7: zero exponent in 'a^0'"),
        ("A: a\nB: x\nC: a = x\nC: a^2 = x q\n", "line 4, column 12: unknown generator 'q'"),
        ("A: a 1b\nB: x\nC: a = x\n", "line 1, column 6: bad generator name '1b'"),
        ("A: a\n B:  x y x\nC: a = x\n", "line 2, column 10: duplicate generator name 'x'"),
        # a long name or tag is quoted short
        pytest.param(
            f"A: a 1{'b' * 199_999}\nB: x\nC: a = x\n",
            f"line 1, column 6: bad generator name {'1' + 'b' * 39!r}... (200,000 characters)",
            id="long-bad-name",
        ),
        pytest.param(
            f"A: a\nB: {'x' * 100_000} {'x' * 100_000}\nC: a = x\n",
            f"line 2, column 100005: duplicate generator name {'x' * 40!r}... (100,000 characters)",
            id="long-repeated-name",
        ),
        pytest.param(
            f"A: a\nB: x\n{'T' * 100_000}: a = x\n",
            f"line 3, column 1: unknown tag {'T' * 40!r}... (100,000 characters)",
            id="long-tag",
        ),
    ],
)
def test_presentation_line_errors(text, message):
    # A's absence is reported before B's, and both before the pairs'; a word or
    # a name is reported at its own line and column in the file
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert str(err.value) == message


def test_validate_command(capsys, group_file, monkeypatch):
    # the rank is read off the C graph (edges - states + 1); no basis is spelled
    def no_basis(self):
        raise AssertionError("validate spelled the basis")

    monkeypatch.setattr(SubgroupGraph, "basis_loops", no_basis)
    code, out, _ = run(capsys, "validate", "-g", group_file)
    assert code == 0
    assert "valid presentation" in out and "rank of C: 2" in out


def test_validate_rejects_bad_pairing(capsys, tmp_path):
    path = tmp_path / "bad.group"
    path.write_text("A: a b\nB: x y\nC: a = x\nC: a = y\n")
    code, _, err = run(capsys, "validate", "-g", str(path))
    assert code == 3
    assert "invalid presentation" in err


def test_syntax_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.group"
    path.write_text("A a b\n")
    code, _, err = run(capsys, "validate", "-g", str(path))
    assert code == 2


def test_unknown_generator_is_syntax_error(capsys, group_file):
    code, _, err = run(capsys, "nf", "-g", group_file, "-w", "q q")
    assert code == 2
    assert "unknown generator" in err


def test_nf_command_json_golden(capsys, group_file):
    code, out, _ = run(
        capsys, "nf", "-g", group_file, "-w", "z d x", "--trace", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "conjugator": None,
        "head": {"side": "B", "word": ""},
        "normal_form": [
            {"side": "B", "word": "z"},
            {"side": "A", "word": "d a^2"},
        ],
        "reason": None,
        "trace": [1, 0, 0],
        "verdict": "ok",
    }


def test_nf_on_a_deep_c_graph(capsys, tmp_path):
    # C = <a^2000> is a circle whose tree is 1,000 levels deep, and a^1000 stops at its
    # deepest state: the split fills the tree paths in a loop, not one call per level
    path = tmp_path / "circle.group"
    path.write_text("A: a b\nB: x y\nC: a^2000 = x^2000\n")
    code, out, err = run(capsys, "nf", "-g", str(path), "-w", "a^1000 b", "--json")
    assert code == 0, err
    ctx = parse_presentation(path.read_text()).context()
    form = normal_form_unmemoised(ctx, parse_word("a^1000 b", ctx.union_alphabet))
    payload = json.loads(out)
    assert payload["head"] == {"side": form.head_side, "word": format_word(form.head)}
    assert payload["normal_form"] == [
        {"side": s.side, "word": format_word(s.word)} for s in form.syllables
    ]


def test_nf_adversarial_policy(capsys, group_file):
    code, out, _ = run(
        capsys, "nf", "-g", group_file, "-w", "z d x",
        "--policy", "paper-ex1:2", "--trace", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == [1, 2, 4]
    assert payload["head"] == {"side": "B", "word": "x^4"}


def test_reduce_command(capsys, group_file):
    code, out, _ = run(capsys, "reduce", "-g", group_file, "-w", "d x d", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == [{"side": "A", "word": "d a^2 d"}]


def test_cyclic_command(capsys, group_file):
    code, out, _ = run(capsys, "cyclic", "-g", group_file, "-w", "d x d^-1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["head"] == {"side": "A", "word": "a^2"}
    assert payload["conjugator"] == "d"
    assert payload["normal_form"] == []


def test_classify_command(capsys, group_file):
    code, out, _ = run(capsys, "classify", "-g", group_file, "-w", "a", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "singular"
    code, out, _ = run(capsys, "classify", "-g", group_file, "-w", "d")
    assert code == 0
    assert out.splitlines()[0] == "regular"


def test_transversal_command(capsys, group_file):
    code, out, _ = run(capsys, "transversal", "-g", group_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("N*_A(C): 1, ")
    assert lines[1].startswith("N*_B(C): 1, ")


def test_conj_command_exit_codes(capsys, group_file):
    code, out, _ = run(
        capsys, "conj", "-g", group_file, "-u", "a^2", "-v", "a^-1 a^2 a", "--json"
    )
    assert code == 4
    assert json.loads(out)["verdict"] == "undecided"
    code, out, _ = run(capsys, "conj", "-g", group_file, "-u", "d z", "-v", "z d")
    assert code == 0
    assert out.splitlines()[0] == "conjugate"
    code, out, _ = run(capsys, "conj", "-g", group_file, "-u", "d", "-v", "z")
    assert code == 0
    assert out.splitlines()[0] == "not-conjugate"


def test_bench_paper_ex1_reports():
    adversarial, canonical = bench_paper_ex1(2, 2)
    assert adversarial.head_lengths == [1, 2, 4, 8, 16]
    assert adversarial.final_head_length == 16
    assert adversarial.growth == [2.0, 2.0, 2.0, 2.0]
    assert canonical.final_head_length <= canonical.notes["head_bound"]


def test_bench_paper_ex1_other_base():
    adversarial, _ = bench_paper_ex1(3, 2)
    assert adversarial.head_lengths == [1, 3, 9, 27, 81]
    assert adversarial.final_head_length == 81


def test_bench_paper_ex2_reports():
    report = bench_paper_ex2(2, 3)
    assert report.notes["identity_holds"] is True
    assert report.notes["power"] == 8
    report3 = bench_paper_ex2(3, 2)
    assert report3.notes["identity_holds"] is True
    assert report3.notes["power"] == 9


def test_bench_random_reports():
    report = bench_random(10, 5, seed=1)
    assert report.notes["samples"] == 5
    assert report.final_head_length >= 0
    again = bench_random(10, 5, seed=1)
    assert again.head_lengths == report.head_lengths


def test_bench_cli(capsys):
    code, out, _ = run(capsys, "bench", "paper-ex1", "-p", "2", "-m", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["final_head_length"] == 4
    code, _, err = run(capsys, "bench", "paper-ex1", "-p", "1")
    assert code == 2


def test_huge_exponent_is_syntax_error(capsys, group_file):
    code, out, err = run(capsys, "nf", "-g", group_file, "-w", "d a^1000000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: column 3: 'a^1000000000000000' takes the word past ")


def test_exponent_too_long_to_convert_is_syntax_error(capsys, group_file):
    code, out, err = run(capsys, "nf", "-g", group_file, "-w", f"d a^{'9' * 5000}")
    assert (code, out) == (2, "")
    assert err.startswith("error: column 3: 'a^999")
    assert "letters" in err and "Traceback" not in err and "4300" not in err


@pytest.mark.parametrize("word, length", [
    (f"d a^{'9' * 100_000}", "100,002"),
    (f"d {'q' * 100_000}", "100,000"),
])
def test_syntax_error_quotes_a_long_token_in_short(capsys, group_file, word, length):
    # the message is one short line with the column, not an echo of the input
    code, out, err = run(capsys, "nf", "-g", group_file, "-w", word)
    assert (code, out) == (2, "")
    assert err.startswith("error: column 3: ") and f"... ({length} characters)" in err
    assert len(err) < 200 and err.count("\n") == 1


@pytest.mark.parametrize("argv, accepted", [
    (("paper-ex1", "-m", "11"), True),  # head 2^22
    (("paper-ex1", "-m", "12"), False),
    (("paper-ex1", "-p", "3", "-m", "7"), False),  # 3^14 = 4,782,969 > 2^22
    (("paper-ex1", "-p", "3", "-m", "6"), True),
    (("paper-ex1", "-m", "1000000000"), False),
    (("paper-ex1", "-p", "10" * 2000, "-m", "1000000000"), False),
    (("paper-ex2", "-n", "22"), True),
    (("paper-ex2", "-n", "23"), False),
    (("paper-ex2", "-p", "2049", "-n", "2"), False),
    (("paper-ex2", "-p", "2048", "-n", "2"), True),
    (("random", "--length", "2048", "--count", "2048"), True),
    (("random", "--length", "2048", "--count", "2049"), False),
    (("random", "--length", "1", "--count", "1000000000"), False),
])
def test_bench_budget_rejects_before_the_sweep(capsys, monkeypatch, argv, accepted):
    # the sweeps are replaced, so a budget that fails to reject runs nothing large
    class SweepStarted(Exception):
        pass

    def sweep(*args):
        raise SweepStarted

    for name in ("bench_paper_ex1", "bench_paper_ex2", "bench_random"):
        monkeypatch.setattr(cli, name, sweep)
    if accepted:
        with pytest.raises(SweepStarted):
            main(["bench", *argv])
    else:
        assert run(capsys, "bench", *argv) == (2, "", "bench parameters out of range\n")


def test_bad_policy_is_syntax_error(capsys, group_file):
    code, _, _ = run(capsys, "nf", "-g", group_file, "-w", "a", "--policy", "bogus")
    assert code == 2
    # a p below 2 is a bad policy too, named as such and not by the private parser
    for policy in ("paper-ex1:1", "paper-ex1:0", "paper-ex1:-3"):
        code, out, err = run(capsys, "nf", "-g", group_file, "-w", "a", "--policy", policy)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --policy: bad policy {policy!r}\n")


@pytest.mark.parametrize(
    "policy", ["p" * 100_000, "paper-ex1:" + "q" * 100_000], ids=["long", "long-paper-ex1-p"]
)
def test_long_bad_policy_is_quoted_short(capsys, group_file, policy):
    code, out, err = run(capsys, "nf", "-g", group_file, "-w", "a", "--policy", policy)
    assert (code, out) == (2, "")
    assert f"bad policy {policy[:40]!r}... ({len(policy):,} characters)" in err
    assert all(len(line.encode()) < 200 for line in err.splitlines())


def test_long_shared_names_are_quoted_short(capsys, tmp_path):
    path = tmp_path / "shared.group"
    names = " ".join(f"{c * 100_000}" for c in "pqrst")
    path.write_text(f"A: {names}\nB: {names}\nC: {'p' * 100_000} = {'p' * 100_000}\n")
    code, out, err = run(capsys, "validate", "-g", str(path))
    assert (code, out) == (3, "")
    shown = ", ".join(f"{c * 40!r}... (100,000 characters)" for c in "pqr")
    assert err == f"invalid presentation: factor alphabets share generator names [{shown}, ...]\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["bench", "paper-ex1", "-p", "9" * 5000],
         f"argument -p: invalid int value: {'9' * 40!r}... (5,000 characters)"),
        (["f" * 100_000], f"argument command: invalid choice: {'f' * 40!r}... (100,000 characters)"),
        (["validate", "-g", "x.group", "e" * 100_000],
         f"unrecognized arguments: {'e' * 40!r}... (100,000 characters)"),
    ],
    ids=["long-int", "long-command", "long-extra-argument"],
)
def test_argparse_errors_quote_a_long_argument_in_short(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert shown in err
    assert all(len(line.encode()) < 300 for line in err.splitlines())


def test_huge_adversarial_p_is_rejected_before_its_words_are_built(capsys, group_file):
    # the fixture check compares the pairs' lengths before it spells p-letter words
    cli._build_parser()
    tracemalloc.start()
    try:
        code = main(["nf", "-g", group_file, "-w", "a", "--policy", "paper-ex1:10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "only defined for the worst-case fixture" in capsys.readouterr().err
    assert peak < 2**20


def test_reduce_takes_no_policy(capsys, group_file):
    # a reduced form uses no coset representatives, so `reduce` has no --policy
    code, out, err = run(
        capsys, "reduce", "-g", group_file, "-w", "z d x", "--policy", "paper-ex1:2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage: amalgam")
    assert "error: unrecognized arguments: --policy paper-ex1:2" in err
    assert "Traceback" not in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "-g", "/nonexistent/nope.group")
    assert code == 2


@pytest.mark.parametrize("name", ["ex1", "ex2", "malnormal", "half"])
def test_loading_a_context_checks_each_word_and_name_once(tmp_path, name):
    # the file is read once: parse_word builds each C word from the alphabet's own index,
    # and the union alphabet trusts the names its factors checked, so only the A: and B:
    # lines run the checking constructors
    path = tmp_path / f"{name}.group"
    path.write_text(GROUPS[name])
    calls = {"Word": 0, "Alphabet": 0}

    def counted(cls):
        init = cls.__init__

        def counting_init(self, *args):
            calls[cls.__name__] += 1
            init(self, *args)
        return mock.patch.object(cls, "__init__", counting_init)

    with counted(Word), counted(Alphabet):
        ctx = cli._load_context(str(path))
    assert calls == {"Word": 0, "Alphabet": 2}
    assert ctx.union_alphabet.names == ctx.alphabet_a.names + ctx.alphabet_b.names


def _load_context_in_text_mode(path):
    """The context through a text-mode read with universal newlines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PresentationSyntaxError(str(exc), 0)
    return parse_presentation(text).context()


PADDING = "# padding\n" * (io.DEFAULT_BUFFER_SIZE // 10 + 1)  # past one buffer of the file


@pytest.mark.parametrize("data", [
    EX1.replace("\n", "\r\n").encode(),
    EX1.replace("\n", "\r").encode(),
    EX1.replace("\n", "\r\r\n").encode(),
    b"\xef\xbb\xbf" + EX1.encode(),
    b"\xef\xbb\xbf#\n" + EX1.encode(),
    EX1.encode() + b"# \xff\n",
    (PADDING + EX1).encode() + b"# \xff\n",
    (PADDING + EX1).encode() + b"# \xe2\x82",
    ("# \u00e9\u2028" + EX1).encode(),
], ids=["crlf", "cr", "cr-crlf", "bom", "bom-comment", "bad-byte", "bad-byte-past-buffer",
        "cut-sequence-past-buffer", "non-ascii"])
def test_presentation_file_reads_as_in_text_mode(capsys, tmp_path, monkeypatch, data):
    # reading the bytes and decoding them once gives what the text-mode read gave:
    # the same lines, and the same decode error
    path = tmp_path / "g.group"
    path.write_bytes(data)
    argvs = (["validate", "-g", str(path), "--json"], ["nf", "-g", str(path), "-w", "z d x"])
    read = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "_load_context", _load_context_in_text_mode)
    assert read == [run(capsys, *argv) for argv in argvs]


def cli_corpus(group_file, missing_file):
    return [
        ["validate", "-g", group_file],
        ["validate", "-g", group_file, "--json"],
        ["nf", "-g", group_file, "-w", "z d x", "--trace"],
        ["nf", "-g", group_file, "-w", "z d x", "--policy", "paper-ex1:2", "--trace", "--json"],
        ["reduce", "-g", group_file, "-w", "d x d", "--json"],
        ["cyclic", "-g", group_file, "-w", "d x d^-1"],
        ["classify", "-g", group_file, "-w", "a", "--json"],
        ["transversal", "-g", group_file, "--json"],
        ["conj", "-g", group_file, "-u", "a^2", "-v", "a^-1 a^2 a", "--json"],
        ["conj", "-g", group_file, "-u", "d z", "-v", "z d"],
        ["-h"],
        ["nf", "-h"],
        [],
        ["frobnicate", "-g", group_file],
        ["nf", "-g", group_file],
        ["validate", "-g", group_file, "extra"],
        ["nf", "-g", group_file, "-w", "a", "--policy", "weird"],
        ["nf", "-g", group_file, "-w", "q q"],
        ["validate", "-g", missing_file],
    ]


# runs main on every argv list of a JSON list in a fresh interpreter
FRESH_PROCESS = "\n".join((
    "import contextlib, io, json, sys",
    "from amalgam.cli import main",
    "results = []",
    "for argv in json.loads(sys.argv[1]):",
    "    out, err = io.StringIO(), io.StringIO()",
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
    "        code = main(argv)",
    "    results.append([code, out.getvalue(), err.getvalue()])",
    "print(json.dumps(results))",
))


def test_repeated_calls_in_one_process_match_a_fresh_process(
    capsys, monkeypatch, group_file, tmp_path
):
    # the parser is built once per process; every call must still behave as
    # the first call of a fresh interpreter, help and error paths included
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    corpus = cli_corpus(group_file, str(tmp_path / "missing.group"))
    passes = [[list(run(capsys, *argv)) for argv in corpus] for _ in range(2)]
    assert passes[0] == passes[1]
    assert {code for code, _, _ in passes[0]} == {0, 2, 4}
    src = os.path.dirname(os.path.dirname(amalgam.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, json.dumps(corpus)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == passes[0]


def test_main_builds_one_parser():
    assert cli._build_parser() is cli._build_parser()


def _parsed(parse, argv):
    """vars() of the namespace, or the exit code, stdout and stderr of a SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


DISPATCH_ERRORS = [
    [], ["-h"], ["--help"], ["frobnicate"], ["f" * 100_000],
    ["nf", "-h"], ["nf", "--h"], ["validate", "-g", "f", "--js"],
    ["validate", "-g", "f", "extra"], ["transversal", "-g", "f", "-x", "y"],
    ["nf", "-g", "f", "-w", "a", "e" * 100_000],
    ["reduce", "-g", "f", "-w", "a", "--policy=paper-ex1:2"],
    ["bench", "paper-ex1", "-p", "-3"], ["nf", "-g", "f", "-w", "a", "--", "b"],
]


def test_a_known_command_parses_as_through_the_main_parser(monkeypatch):
    # the subparser alone gives what the main parser and its subparsers action
    # give, on every golden command line and on the errors around the dispatch
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser()
    assert set(parser._option_string_actions) == {"-h", "--help"}  # what the dispatch relies on
    golden = [[arg.replace("{dir}", "d") for arg in entry["argv"]]
              for entry in json.loads(GOLDEN.read_text())]
    assert len(golden) == 329
    for argv in golden + DISPATCH_ERRORS:
        want = _parsed(lambda a: parse_args_through_main(parser, a), argv)
        assert _parsed(parser.parse_args, argv) == want, [arg[:40] for arg in argv]
    assert _parsed(parser.parse_args, ["nf", "-h"])[0] == 0
    assert _parsed(parser.parse_args, ["frobnicate"])[0] == 2


# --- fuzz net: main on grammar-built and raw inputs -------------------------------

# x and y may be shared by both sides; the last name is longer than a message shows
FUZZ_NAMES = ("a", "b", "x", "y", "t_1", "Q2", "n" * 300)
ODD_TOKENS = (
    "^", "a^", "^2", "a^0", "a^-0", "a^+2", "a^^2", "a^2^3", "a^1.5", "a^-", "a^ 2",
    "a^4194305", "a^" + "9" * 5000, "=", "#", ":", "\u00e9", "x\u00b2", "\u65e5\u672c", "1", "-a",
)


def _fuzz_token(names, exponents):
    name_power = st.builds(
        lambda name, k: name if k == 1 else f"{name}^{k}", st.sampled_from(names), exponents
    )
    return st.one_of(name_power, name_power, st.sampled_from(ODD_TOKENS))


@st.composite
def fuzz_calls(draw):
    """(presentation text, argv tail after -g FILE or None for bench) from a grammar or raw text."""
    def word(names, exponents=st.integers(-3, 3)):
        if draw(st.integers(0, 5)) == 0:
            return draw(st.text(max_size=30))
        return " ".join(draw(st.lists(_fuzz_token(names or FUZZ_NAMES, exponents), max_size=4)))

    names_a = draw(st.lists(st.sampled_from(FUZZ_NAMES), max_size=4))
    names_b = draw(st.lists(st.sampled_from(FUZZ_NAMES), max_size=4))
    # C words stay a few letters long: the presentation size has no bound yet (ROADMAP item 9)
    lines = [f"A: {' '.join(names_a)}", f"B: {' '.join(names_b)}"]
    lines += [f"C: {word(names_a)} = {word(names_b)}" for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.text(max_size=40)))
    text = draw(st.text(max_size=80)) if draw(st.integers(0, 9)) == 0 else "\n".join(lines)
    # words may reach the letter budget's edge
    exponents = st.one_of(st.integers(-3, 3), st.sampled_from((4096, -4096, 4194305, 10**30)))
    union = names_a + names_b
    policy = draw(st.sampled_from(("canonical", "paper-ex1:2", "paper-ex1:3", "paper-ex1:1",
                                   "paper-ex1:", "paper-ex1:x", "bogus", "", "p" * 300)))
    command = draw(st.sampled_from(
        ("validate", "transversal", "nf", "reduce", "cyclic", "classify", "conj", "bench")
    ))
    if command in ("validate", "transversal"):
        tail = []
    elif command == "conj":
        tail = [f"-u={word(union, exponents)}", f"-v={word(union, exponents)}"]
    else:
        tail = [f"--word={word(union, exponents)}"]
    if command in ("nf", "cyclic", "classify", "conj") and draw(st.booleans()):
        tail.append(f"--policy={policy}")
    if command == "nf" and draw(st.booleans()):
        tail.append("--trace")
    if command == "bench":
        text = None
        edges = st.sampled_from((-1, 0, 1, 2, 3, 6, 7, 11, 12, 22, 23, 2048, 2049, 10**40))
        tail = [draw(st.sampled_from(("paper-ex1", "paper-ex2", "random"))),
                "-p", str(draw(edges)), "-m", str(draw(edges)), "-n", str(draw(edges)),
                "--length", str(draw(edges)), "--count", str(draw(edges)), "--seed", "1"]
    if draw(st.booleans()):
        tail.append("--json")
    return text, command, tail


@settings(max_examples=300, deadline=None)
@given(fuzz_calls())
def test_main_survives_any_input(tmp_path_factory, call):
    # every call ends in a documented exit code with short, traceback-free
    # errors and parseable --json; the bench sweeps are replaced by tiny runs,
    # as in the budget test, so a budget that fails to reject runs nothing large
    text, command, tail = call
    argv = [command, *tail]
    if text is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz.group"
        path.write_text(text, encoding="utf-8")
        argv[1:1] = ["-g", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "bench_paper_ex1", lambda p, m: bench_paper_ex1(2, 1))
        mp.setattr(cli, "bench_paper_ex2", lambda p, n: bench_paper_ex2(2, 1))
        mp.setattr(cli, "bench_random", lambda length, count, seed: bench_random(4, 2, seed))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert all(len(line.encode()) < 300 for line in err.getvalue().splitlines()), err.getvalue()
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue())
