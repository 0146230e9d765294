"""The README's library example runs, every public name resolves, and the
README's usage blocks list each subcommand's flags."""

import argparse
import pkgutil
import re
from pathlib import Path

import scatterkit
from scatterkit.cli import _build_parser, main
from scatterkit.config import RunConfig, canonical_text

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_blocks() -> list[str]:
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_public_names_resolve_and_readme_library_example_runs(tmp_path, monkeypatch):
    missing = [name for name in scatterkit.__all__ if not hasattr(scatterkit, name)]
    assert missing == []

    blocks = _library_use_blocks()
    assert len(blocks) == 1
    assert main(["synth", "--out", str(tmp_path / "data"), "--chips", "1",
                 "--seed", "0"]) == 0
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["kps"].points) == 9
    assert namespace["fits"]


def test_readme_scatterkit_references_resolve():
    """Every backticked `scatterkit.<module>.<name>` in the README names
    something that exists, so a renamed or deleted helper fails here."""
    refs = set(re.findall(r"`(scatterkit(?:\.\w+)+)", README.read_text()))
    assert "scatterkit.metrics.clip_reach" in refs
    missing = []
    for ref in sorted(refs):
        try:
            pkgutil.resolve_name(ref)
        except (ImportError, AttributeError):
            missing.append(ref)
    assert missing == []


def test_readme_configuration_block_gives_the_defaults():
    """Each `key = value` of the README's configuration block is the value
    `canonical_text` renders for the defaults, and no key is missing."""
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    documented = dict(re.match(r"(\S+) = (\S+)", line).groups()
                      for line in block.splitlines() if line.strip())
    defaults = dict(line.split(" = ") for line in canonical_text(RunConfig()).splitlines())
    assert documented == defaults


def _subcommand_parsers() -> dict:
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_usage_blocks_list_each_subcommand_flag():
    """The usage block under each `### `<cmd>`` heading of `## Commands`
    names exactly the flags the parser defines for that subcommand: every
    option once by its first spelling (an alias such as `--pgm` may stand
    in for it), and nothing else. `--config`, stated once for the commands
    that read it, and `-h/--help` are left out."""
    section = README.read_text().split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^### `([\w-]+)`.*$", section, flags=re.M)
    usage = {cmd: re.search(r"^```sh\n(.*?)^```$", body, flags=re.M | re.S).group(1)
             for cmd, body in zip(parts[1::2], parts[2::2])}
    parsers = _subcommand_parsers()
    assert sorted(usage) == sorted(parsers)
    for cmd, p in parsers.items():
        actions = [a for a in p._actions
                   if a.option_strings and a.dest not in ("help", "config")]
        documented = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage[cmd]))
        spellings = {s for a in actions for s in a.option_strings}
        assert documented - spellings == set(), cmd
        assert [a.option_strings for a in actions
                if documented.isdisjoint(a.option_strings)] == [], cmd
