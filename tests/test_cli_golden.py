"""Whole-stdout regression: every CLI command below must print exactly the
bytes recorded in ``golden_cli.json``.

The inputs are the recorded ``gen`` outputs themselves, so a change in a
generator and a change in a solver show up as separate failures.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from flexq.cli import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))

MARKETS = {
    "fig1": ["gen", "fig1"],
    "fig2": ["gen", "fig2", "--n", "6"],
    "ex1": ["gen", "ex1"],
    "ex2": ["gen", "ex2"],
    "fig1-hr": ["gen", "fig1", "--variant", "hr"],
}

SOLVES = {
    "minsum-exact": ["solve", "minsum", "--method=exact"],
    "minsum-promote": ["solve", "minsum", "--method=promote"],
    "minsum-restrict": ["solve", "minsum", "--method=restrict"],
    "minsum-minmax": ["solve", "minsum", "--method=minmax"],
    "minmax": ["solve", "minmax"],
    "oracle-minsum": ["oracle", "minsum"],
    "oracle-minmax": ["oracle", "minmax"],
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; ``{name}`` stands for the file of that name."""
    cases = {f"gen {m}": argv for m, argv in MARKETS.items()}
    for m in ("fig1", "fig2", "ex1", "ex2"):
        for s, argv in SOLVES.items():
            cases[f"{s} {m}"] = argv + ["{%s}" % m]
    cases["check fig1"] = ["check", "{fig1}", "--matching", "{fig1-minmax}"]
    for objective in ("deviation", "cost"):
        cases[f"extend-{objective} fig1-hr"] = ["extend", "{fig1-hr}", "--objective", objective]
    cases["bench small 20"] = ["bench", "--suite", "small", "--seeds", "20"]
    return cases


CASES = _cases()


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    """The recorded generator outputs, plus the recorded fig1 minmax matching."""
    d = tmp_path_factory.mktemp("golden")
    texts = {m: GOLDEN[f"gen {m}"] for m in MARKETS}
    texts["fig1-minmax"] = GOLDEN["minmax fig1"]
    paths = {}
    for name, text in texts.items():
        path = d / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_every_case_has_a_recording():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_is_byte_identical(name, files):
    argv = [arg.format(**files) for arg in CASES[name]]
    code, out = run_cli(argv)
    assert code == 0
    assert out == GOLDEN[name]
