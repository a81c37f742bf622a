import json
import os
import subprocess
import sys

import pytest

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
    assert pf.names_a == ("a", "b", "d")
    assert pf.names_b == ("x", "y", "z")
    assert pf.pair_texts == (("a^2", "x"), ("b", "y^2"))
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


def test_validate_command(capsys, group_file):
    code, out, _ = run(capsys, "validate", "-g", group_file)
    assert code == 0
    assert "valid presentation" in out


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


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "-g", "/nonexistent/nope.group")
    assert code == 2


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
