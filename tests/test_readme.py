"""The README's examples run as written: the Quick start block as Python,
and every `padefit ...` line of the Command line section through cli.main,
in a directory holding a copy of data/table1.csv."""

import re
import shlex
import shutil
from pathlib import Path

from padefit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    # the first fenced block of `lang` after the heading
    section = README[README.index(f"\n## {heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands():
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("padefit ")]


def test_quick_start_runs(capsys):
    exec(compile(_block("Quick start", "python"), "README quick start", "exec"), {})
    assert capsys.readouterr().out


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    commands = _commands()
    assert [argv[0] for argv in commands] == ["fit", "sweep", "search", "fit", "eval", "generate", "interpolate", "generate"]
    (tmp_path / "data").mkdir()
    shutil.copy(ROOT / "data" / "table1.csv", tmp_path / "data" / "table1.csv")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "fit.json").exists() and (tmp_path / "sin.csv").exists()
