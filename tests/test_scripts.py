"""The experiment scripts under scripts/, each run once as a subprocess, and
README's library and CLI examples."""

import ast
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from semipi import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_identity_fuzz_holds():
    proc = run_script(
        "identity_fuzz.py", "--seed", "7", "--per-decade", "3", "--max-exp", "4"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("all residuals 0") == 5
    assert "identity held at every draw" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [("--max-exp", "11"), ("--max-exp", "-1"), ("--per-decade", "0"), ("--per-decade", "-1")],
)
def test_identity_fuzz_refuses_what_it_cannot_honour(args):
    # The 10^11 decade draws past SUPPORTED_MAX_N, and no decade or no
    # draw would claim that the identity held.  Each is refused before
    # the first draw, as a usage error.
    proc = run_script("identity_fuzz.py", "--seed", "1", *args)
    assert proc.returncode == 2
    assert "decade" not in proc.stdout
    assert "Traceback" not in proc.stderr
    assert args[0] in proc.stderr


@pytest.fixture(scope="module")
def digest():
    """scripts/digest.py's functions, loaded once; its lines are built in-process."""
    return runpy.run_path(str(ROOT / "scripts" / "digest.py"), run_name="digest")


def test_block_digest_pins_the_sieve_blocks(digest):
    # One sha256 over every block of _sieve_blocks, as yielded, on the
    # oracle's passes and windows, two walks' smooth parts and a grid of
    # small ranges.  A change to the block sieve must keep it.
    assert digest["blocks_line"]() == (
        "blocks sha256 779aa0935238b55e6d3bd955730bb2e20c739f7c917cafa86222dcd250d88dbb"
    )


def test_table_digest_pins_the_default_tables(digest):
    # One sha256 over the values, dtypes, shapes and read-only flags of
    # build_quotient_pi at ten n from 10**8 + 7 to 10**11, across the
    # int32 edges of larges.  A change to the recurrence must keep it.
    assert digest["tables_line"](digest["DEFAULT_NS"]) == (
        "tables sha256 5048b319434ec3a9a031c1b8d7285ca04d1451921714232767932bf891d939ec"
        " over 10 n"
    )


def test_walk_digest_pins_the_walked_tables(digest):
    # One sha256 over every table that quotient_tables yields on tiny
    # walks from 1..40, high_sweep's 6-n walks, 200 n from 10**10, a
    # stride-7 walk and selftest's window pair.  A change to the walk
    # must keep it.
    assert digest["walks_line"]() == (
        "walks sha256 4d1b8428aaa4cbc4b01c90ff9c5bc0bc762cbfe0a9ed81202901cb7e988d870d"
        " over 2886 tables"
    )


def test_digest_prints_its_three_lines(digest, monkeypatch, capsys):
    # main prints the blocks, tables and walks lines in that order, the
    # tables line over --full's n; the pins above hold their values.
    # Stubbed line builders keep this run from hashing anything.
    scope = digest["main"].__globals__
    monkeypatch.setitem(scope, "blocks_line", lambda: "B")
    monkeypatch.setitem(scope, "tables_line", lambda ns: f"T {len(ns)}")
    monkeypatch.setitem(scope, "walks_line", lambda: "W")
    monkeypatch.setattr(sys, "argv", ["digest.py", "--full", "--seed", "3"])
    assert digest["main"]() == 0
    assert capsys.readouterr().out == "B\nT 3375\nW\n"


def test_digest_full_list_holds_the_promised_n(digest):
    # README promises --full's n list; build none of its tables.
    ns = digest["full_ns"](2)
    assert len(ns) == 3375
    extra = [2**32 - 1, 2**32, 3 * 2**31 - 1, 10**12 - 1, 10**12, 2**40 + 3]
    assert set(digest["DEFAULT_NS"] + extra) <= set(ns)
    assert digest["full_ns"](2) == ns


def test_code_lines_counts_code_outside_docstrings(tmp_path):
    # Code lines: import, the four lines of the expression, def f, its
    # return, class C, and both lines of a string that is no docstring.
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "TOTAL = (\n    1\n    + 2\n)\n"
        "\n\n"
        "def f():\n"
        '    """One-line docstring."""\n'
        "    return 1\n"
        "\n\n"
        "class C:\n"
        '    """Class\n    docstring."""\n'
        "\n"
        '    x = """not a\ndocstring"""\n'
    )
    proc = run_script("code_lines.py", str(fixture))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"    10 {fixture}\n    10 total\n"


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    # Every `semipi ...` line in README's sh blocks must parse under the
    # current grammar; the commands themselves are not run.
    readme = (ROOT / "README.md").read_text()
    lines = [
        line.split("#", 1)[0]
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("semipi ")
    ]
    assert len(lines) >= 8
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # a usage error raises


def test_every_python_file_parses_as_the_oldest_python_supported():
    # requires-python names the oldest Python that the package accepts;
    # syntax newer than that would fail only on a CI leg of that version.
    pyproject = (ROOT / "pyproject.toml").read_text()
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    files = [p for d in ("src", "tests", "perfbench", "scripts") for p in (ROOT / d).rglob("*.py")]
    assert len(files) >= 15
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, minor))
