"""The package holds only code that the package or the benchmark uses: every
function, method and class defined in src/surropt is named again somewhere
in src/ or bench/. A helper only tests call belongs in tests/, or nowhere."""

import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINITION = re.compile(r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+(\w+)", re.MULTILINE)


def _unused_names(root):
    """Names defined in ``root``/src/surropt (dunders aside) that occur as a
    word in src/ and bench/ no more often than they are defined there."""
    texts = [path.read_text(encoding="utf-8")
             for folder in ("src", "bench") for path in sorted((root / folder).rglob("*.py"))]
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    definitions = Counter(name for text in texts for name in DEFINITION.findall(text))
    package = (path.read_text(encoding="utf-8") for path in (root / "src" / "surropt").glob("*.py"))
    names = {name for text in package for name in DEFINITION.findall(text)}
    assert len(names) > 100
    return sorted(name for name in names
                  if not re.fullmatch(r"__\w+__", name) and words[name] <= definitions[name])


def test_every_src_name_is_used_outside_its_definition():
    assert _unused_names(ROOT) == []
