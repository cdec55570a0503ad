"""README examples stay runnable: every python block executes, and every
`nonrep ...` line of the CLI block parses."""

import re
import shlex
from pathlib import Path

import pytest

from nonrep.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


@pytest.mark.parametrize("code", [pytest.param(c, id=f"block{i}") for i, c in enumerate(_blocks("python"))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    lines = [ln for block in _blocks("sh") for ln in block.splitlines() if ln.startswith("nonrep ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        # "[--json]" marks an optional flag: parse the line with it given
        argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
        assert args.command == argv[0] and args.action == argv[1]
