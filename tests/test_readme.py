"""The README's library example and CLI examples run as written.

This module imports only the standard library and the package, so that an
installed package can be checked without the test dependencies:
python -c 'from test_readme import run_library_block; run_library_block()'
with this directory on sys.path, and run_cli_block likewise.
"""

import os
import re
import shlex
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(readme: str, title: str) -> str:
    """The text of the README's "## title" section."""
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced_block(text: str, language: str) -> str:
    """The first fenced block of the language in text."""
    return text.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def library_block(readme: str) -> str:
    """The first fenced python block of the README's "## Library" section."""
    return fenced_block(section(readme, "Library"), "python")


def run_library_block():
    code = library_block(README.read_text(encoding="utf-8"))
    exec(compile(code, f"{README.name} (## Library)", "exec"), {})


def cli_lines(cli: str) -> list[str]:
    """The npcuboid lines of the first sh block of the "## CLI" section."""
    return [line for line in fenced_block(cli, "sh").splitlines() if line.startswith("npcuboid ")]


def run_cli_block() -> int:
    """Pass each line of cli_lines to npcuboid.cli.main, in a temporary
    directory that holds the section's job example as job.json. Each line
    must exit 0, or with the code its "# exits N" comment names. Returns the
    number of lines run."""
    from npcuboid.cli import main

    cli = section(README.read_text(encoding="utf-8"), "CLI")
    lines = cli_lines(cli)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            Path("job.json").write_text(fenced_block(cli, "json") + "\n", encoding="utf-8")
            for line in lines:
                expected = re.search(r"# exits (\d+)", line)
                code = main(shlex.split(line, comments=True)[1:])
                assert code == (int(expected[1]) if expected else 0), f"{line}: exit {code}"
        finally:
            os.chdir(cwd)
    return len(lines)


def test_library_block_runs():
    run_library_block()


def test_cli_block_runs():
    # Ten lines and the two searches of the job example, which has one seed,
    # so --workers 4 starts no process pool.
    assert run_cli_block() == 12
