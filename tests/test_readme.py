"""README's numerical notes are promises: each names a test that pins it, and
every test README names exists.  Its config keys and command lines are those
the command line reads."""
import re
import shlex
from pathlib import Path

from tppflow import cli

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


def _listed_keys():
    """command -> [(key, default text)] from README's "Config keys per command":
    each bullet's `key` (default) pairs before the files it writes."""
    section = README.split("\nConfig keys per command", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.split(r"\n(?=- )", section)[1:]:
        command, text = re.match(r"- \*\*(\w+)\*\*:(.*?)Writes", bullet, re.DOTALL).groups()
        pairs = re.findall(r"`([\w.]+)`\s+\(([^)]*)\)", text)
        assert [key for key, _ in pairs] == re.findall(r"`([^`]*)`", text), command
        listed[command] = pairs
    return listed


def test_readme_lists_each_commands_keys():
    table = cli.key_table()
    listed = _listed_keys()
    assert set(listed) == set(table)
    for command, pairs in listed.items():
        assert sorted(key for key, _ in pairs) == sorted(table[command]), command
        for key, text in pairs:
            parse, default = table[command][key][:2]
            assert (None if text == "none" else parse(text)) == default, (command, key, text)


def test_readme_command_lines_pass_the_key_check():
    lines = [line for line in README.replace("\\\n", " ").splitlines()
             if line.startswith("tppflow ")]
    assert {line.split()[1] for line in lines} == set(cli.COMMANDS)
    for line in lines:
        args = cli.parse_args(shlex.split(line, comments=True)[1:])
        cli.RunConfig.load(args.config, args.overrides).read(args.command)
