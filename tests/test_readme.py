"""README's "What's inside" table lists exactly the library modules,
apart from the package file, the command line, the error classes and
the `backend` name module, so a module added, renamed or deleted must
update the table."""

from pathlib import Path

import atomcat

SRC = Path(atomcat.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
UNLISTED = {"__init__", "cli", "errors", "backend"}


def listed_modules(text):
    """The first-column names of the table under "## What's inside"."""
    section = text.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in section.splitlines()
            if line.startswith("| `")]


def test_readme_module_table_matches_the_package():
    listed = listed_modules(README.read_text())
    assert len(listed) == len(set(listed)), listed
    modules = {path.stem for path in SRC.glob("*.py")} - UNLISTED
    assert set(listed) == modules
