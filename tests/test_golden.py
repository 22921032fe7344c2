"""The CLI's pinned outputs: every command of tests/golden/commands.txt,
run in process, prints byte for byte the stdout and stderr and returns the
exit code pinned beside it.  `tools/compare_outputs.sh --write` rewrites
the pinned files from the list, so an intended change of output shows as
a diff of them."""

import re
from pathlib import Path

import pytest

from fogcoded import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_name(argv):
    """The files' stem: the command with each character outside
    [A-Za-z0-9.,=-] replaced by _, as compare_outputs.sh names them."""
    return re.sub(r"[^A-Za-z0-9.,=-]", "_", " ".join(argv))


COMMANDS = [
    line.split() for line in (GOLDEN / "commands.txt").read_text().splitlines()
    if line.strip() and not line.lstrip().startswith("#")
]


@pytest.mark.parametrize("argv", COMMANDS, ids=golden_name)
def test_output_is_pinned(argv, capsysbinary):
    rc = cli.main(argv)
    out, err = capsysbinary.readouterr()
    name = golden_name(argv)
    assert rc == int((GOLDEN / f"{name}.rc").read_text())
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()


def test_every_pinned_file_has_its_command():
    names = {golden_name(argv) for argv in COMMANDS}
    assert len(names) == len(COMMANDS)
    pinned = {p.name for p in GOLDEN.iterdir()} - {"commands.txt"}
    assert pinned == {f"{n}.{s}" for n in names for s in ("stdout", "stderr", "rc")}
