"""The golden reports (golden.py): every command's exit code and report
bytes, apart from elapsed_seconds, equal the committed corpus."""

import json

import pytest

import golden


@pytest.fixture(scope="module")
def corpus():
    with open(golden.CORPUS) as handle:
        return json.load(handle)


def test_corpus_lists_every_command(corpus):
    assert list(corpus) == [" ".join(argv) for argv in golden.commands()]


def _id(argv):
    """A test id with no spaces or slashes: the flags after verify-cm, or
    every other subcommand with its flags."""
    words = argv[1:] if argv[0] == "verify-cm" else argv
    return "-".join(a.lstrip("-").replace("/", "_") for a in words)


@pytest.mark.parametrize("argv", golden.commands(), ids=_id)
def test_report_is_the_golden_one(corpus, argv):
    code, report = golden.run(argv)
    want = corpus[" ".join(argv)]
    assert code == want["exit"]
    assert json.dumps(report, indent=2) == json.dumps(want["report"], indent=2)
