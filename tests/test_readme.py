"""The README's library example must run as written, and its command lines
must parse."""

import re
import shlex
from pathlib import Path

from convexlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL)


def test_readme_library_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


def test_readme_command_lines_parse():
    lines = [line.strip() for block in _blocks("sh") for line in block.splitlines()
             if line.strip().startswith("convexlab ")]
    assert len(lines) >= 8
    commands = set()
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"construct", "lemma1", "sections", "slabs", "projections",
                        "convergence", "certify", "all"}
