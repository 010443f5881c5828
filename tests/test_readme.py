"""README's numerical notes are promises: each names a test that pins it, and
every test README names exists."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# tests/<file>.py::<name>, or ::<name> in the file named last before it
CITATION = re.compile(r"(tests/\w+\.py)?::(\w+)")


def _citations(text):
    """(file, name, whether the file is spelled out) for each cited test, in order."""
    cited, last = [], None
    for m in CITATION.finditer(text):
        last = m.group(1) or last
        cited.append((last, m.group(2), m.group(1) is not None))
    return cited


def _defines(path, name):
    source = ROOT / path
    return source.is_file() and re.search(rf"^def {name}\(", source.read_text(encoding="utf-8"),
                                          re.MULTILINE) is not None


def test_readme_cites_only_tests_that_exist():
    cited = _citations(README)
    assert cited
    missing = [f"{path}::{name}" for path, name, _ in cited
               if path is None or not _defines(path, name)]
    assert not missing, missing


def test_every_numerical_note_cites_a_test():
    section = README.split("\n## Numerical notes\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n(?=- )", section)[1:]
    assert bullets
    bare = [bullet.splitlines()[0] for bullet in bullets
            if not any(full for _, _, full in _citations(bullet))]
    assert not bare, bare
