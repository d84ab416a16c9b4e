"""The README's library tour names only live API: every backticked name
before the first "—" of a bullet under "Main entry points" is exported by
the package."""

import re
from pathlib import Path

import descent_kit

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_point_names():
    """The backticked names that open each "Main entry points" bullet."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Main entry points", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n- ", section)[1:]
    return [name for bullet in bullets
            for name in re.findall(r"`([^`]+)`", bullet.split("—", 1)[0])]


def test_readme_entry_points_are_exported():
    names = entry_point_names()
    assert len(names) >= 30
    assert [name for name in names if name not in descent_kit.__all__] == []
