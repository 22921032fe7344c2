"""The CLI's pinned outputs: every command of tests/golden/commands.txt,
run in process, prints byte for byte the stdout and stderr and returns the
exit code pinned beside it.

Run as a script, `PYTHONPATH=src python tests/test_golden.py` re-pins: it
rewrites the pinned files from the list, so an intended change of output
shows as a diff of them (`git diff --stat -- tests/golden`), and files
that did not change mean the same output."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from fogcoded import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
STREAMS = ("stdout", "stderr", "rc")


def golden_name(argv):
    """The files' stem: the command with each character outside
    [A-Za-z0-9.,=-] replaced by _."""
    return re.sub(r"[^A-Za-z0-9.,=-]", "_", " ".join(argv))


def commands(golden):
    """The commands of golden/commands.txt, each split on whitespace;
    blank lines and lines starting with # are skipped."""
    return [
        line.split() for line in (golden / "commands.txt").read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def run(argv):
    """`fogcoded ARGV` in process: (exit code, stdout bytes, stderr bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode(), err.getvalue().encode()


def pinned(golden, argv):
    """The (exit code, stdout, stderr) pinned for argv in golden."""
    name = golden_name(argv)
    return (
        int((golden / f"{name}.rc").read_text()),
        (golden / f"{name}.stdout").read_bytes(),
        (golden / f"{name}.stderr").read_bytes(),
    )


def pin(golden=GOLDEN):
    """Write NAME.stdout, NAME.stderr and NAME.rc for every command of
    golden/commands.txt, and remove the files of commands no longer listed."""
    for path in golden.iterdir():
        if path.suffix[1:] in STREAMS:
            path.unlink()
    for argv in commands(golden):
        rc, out, err = run(argv)
        name = golden_name(argv)
        (golden / f"{name}.stdout").write_bytes(out)
        (golden / f"{name}.stderr").write_bytes(err)
        (golden / f"{name}.rc").write_text(f"{rc}\n")


COMMANDS = commands(GOLDEN)


@pytest.mark.parametrize("argv", COMMANDS, ids=golden_name)
def test_output_is_pinned(argv):
    assert run(argv) == pinned(GOLDEN, argv)


def test_every_pinned_file_has_its_command():
    names = {golden_name(argv) for argv in COMMANDS}
    assert len(names) == len(COMMANDS)
    pinned_files = {p.name for p in GOLDEN.iterdir()} - {"commands.txt"}
    assert pinned_files == {f"{n}.{s}" for n in names for s in STREAMS}


def test_pin_writes_the_listed_commands_and_removes_the_rest(tmp_path):
    listed = [["tables"], ["simulate", "--config", "/nonexistent.cfg"]]
    (tmp_path / "commands.txt").write_text(
        "# one run, one refusal\n\n" + "".join(" ".join(argv) + "\n" for argv in listed)
    )
    (tmp_path / "old.stdout").write_text("stale\n")
    pin(tmp_path)
    names = {golden_name(argv) for argv in listed}
    assert {p.name for p in tmp_path.iterdir()} == {"commands.txt"} | {
        f"{n}.{s}" for n in names for s in STREAMS
    }
    assert [pinned(tmp_path, argv) for argv in listed] == [run(argv) for argv in listed]
    assert [pinned(tmp_path, argv)[0] for argv in listed] == [0, 2]


if __name__ == "__main__":
    pin()
