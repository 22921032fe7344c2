"""The scripts under tools/: the code-line counter and the trial footprint."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Code lines are marked `# code`; every other line is a docstring, a
# comment, a blank line, or a line inside brackets that holds no token.
SAMPLE = "\n".join([
    '"""Module docstring',
    'over two lines."""',
    "",
    "# a comment",
    "import os  # code, its comment too",
    "",
    "",
    "class Thing:  # code",
    '    """Class docstring."""',
    "",
    "    def method(self):  # code",
    '        """Function docstring,',
    '        over two lines."""',
    '        text = """a string,  # code',
    "",
    'not a docstring"""  # code: the string spans the blank line above',
    "        return (text,  # code",
    "",
    "                os.sep)  # code",
    "",
    "",
    "def single():  # code",
    "    '''One-line docstring.'''",
    "    # a comment in a body",
    "    pass  # code",
    "",
])


def test_count_lines_follows_its_docstring_rules(tmp_path, capsys):
    count_lines = load_tool("count_lines")
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    marked = sum("# code" in line for line in SAMPLE.splitlines())
    assert marked == 9
    # the blank line inside the string counts, the one inside the brackets does not
    assert count_lines.code_lines(path) == 10
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"    10  {path}\n    10  total\n"


def test_trial_footprint_runs_and_decodes():
    # the K = 10, F = 10^6 trial: about 3 s and 80 MB peak RSS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TOOLS / "trial_footprint.py")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("decode ") and line.endswith("for 10 F-APs")
               for line in proc.stdout.splitlines()), proc.stdout
