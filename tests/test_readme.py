"""The README's command-line examples and library snippets, run as shown.

Each `flucdet ...` example runs in process through cli.main, and every line
of the output block that follows it must appear verbatim in what the command
prints (stdout and stderr); a `...` line stands for omitted lines and `{...}`
for an omitted part of a line.  The Python snippets run in order in one
namespace, as a reader would paste them.
"""

import re
import shlex
from pathlib import Path

import pytest

from flucdet import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.S | re.M)
EXAMPLES = [
    (shlex.split(body.replace("\\\n", " "))[1:],
     BLOCKS[i + 1][1] if i + 1 < len(BLOCKS) and BLOCKS[i + 1][0] in ("", "json") else "")
    for i, (lang, body) in enumerate(BLOCKS)
    if lang == "sh" and body.startswith("flucdet ")]
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]


def _printed(shown: str, lines: list) -> bool:
    if "{...}" in shown:
        head, tail = shown.split("{...}")
        return any(line.startswith(head) and line.endswith(tail) for line in lines)
    return shown in lines


def test_examples_found():
    assert [argv[0] for argv, _ in EXAMPLES] == ["det", "green", "sweep", "verify"]
    assert len(SNIPPETS) == 2


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_command_example(capsys, argv, shown):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    missing = [line for line in shown.splitlines()
               if line != "..." and not _printed(line, lines)]
    assert not missing


def test_library_snippets(capsys):
    namespace = {}
    for snippet in SNIPPETS:
        exec(compile(snippet, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 5
