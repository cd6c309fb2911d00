"""README.md names only what the library has: every backticked dotted
name resolves, and every backticked identifier with an underscore is an
attribute of a library module or class (a value class's fields are its
slots, so they are among them).  Every command of its CLI section runs."""

import builtins
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import shifted_tableaux
from shifted_tableaux import cli

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = [shifted_tableaux] + [
    importlib.import_module(f"shifted_tableaux.{info.name}")
    for info in pkgutil.iter_modules(shifted_tableaux.__path__)]
CLASSES = {cls for module in MODULES for _, cls in inspect.getmembers(module, inspect.isclass)
           if cls.__module__.startswith("shifted_tableaux")}
# a name in a module, or in a class: methods, properties and slots
NAMES = ({name for module in MODULES for name in dir(module)}
         | {name for cls in CLASSES for name in dir(cls)})

# a backticked name, or the head of a backticked call such as `f(x, y)`
NAME_RE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")
FILE_RE = re.compile(r".*\.(toml|py|md|json|txt)")
# a math symbol written as an identifier: t_i, p_i, q_i, t_1, s_ij
MATH_RE = re.compile(r"[a-z]_[a-z0-9]{1,2}")


def readme_names():
    return sorted(set(NAME_RE.findall(README.read_text(encoding="utf-8"))))


def resolves(dotted):
    """The first part of dotted is a library module, a name in one (a
    class, or a module it imports) or a builtin; each further part is
    an attribute of the one before."""
    first, *rest = dotted.split(".")
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES}
    if first in modules:
        obj = modules[first]
    else:
        owner = next((m for m in MODULES if hasattr(m, first)), builtins)
        if not hasattr(owner, first):
            return False
        obj = getattr(owner, first)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_dotted_names_resolve():
    dotted = [n for n in readme_names() if "." in n and not FILE_RE.fullmatch(n)]
    assert len(dotted) >= 20
    assert [n for n in dotted if not resolves(n)] == []


def test_identifiers_are_library_names():
    bare = [n for n in readme_names() if "." not in n and "_" in n
            and not MATH_RE.fullmatch(n) and not n.startswith("test_")]
    assert len(bare) >= 40
    assert [n for n in bare if n not in NAMES] == []


def cli_commands():
    """The shifted-tableaux lines of the first code block after the
    "## CLI" heading, as argument lists."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## CLI"):].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("shifted-tableaux ")]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Each CLI example exits 0 with nothing on stderr; they run from
    tmp_path, where the orbit example writes its DOT file."""
    commands = cli_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), argv
    assert (tmp_path / "orbit.dot").read_text().startswith("digraph")
