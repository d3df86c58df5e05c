"""The README's library example runs as written.

This module imports only the standard library, so that an installed package
can be checked without the test dependencies:
python -c 'from test_readme import run_library_block; run_library_block()'
with this directory on sys.path.
"""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block(readme: str) -> str:
    """The first fenced python block of the README's "## Library" section."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def run_library_block():
    code = library_block(README.read_text(encoding="utf-8"))
    exec(compile(code, f"{README.name} (## Library)", "exec"), {})


def test_library_block_runs():
    run_library_block()
