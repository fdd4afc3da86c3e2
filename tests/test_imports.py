"""What each entry point loads: `import pfaffinc` runs only the package
init, and each command imports only the modules it runs.  Every check runs
in a fresh interpreter, since this one has long since loaded them all."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfaffinc as pf
from pfaffinc import cli
from test_cli import _chain_file, _duality_family

SRC = Path(pf.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
# what the `pfaffinc` command loads before its subcommand runs
_COMMAND_BASE = {"pfaffinc", "pfaffinc.cli", "pfaffinc.scene", "pfaffinc.curves",
                 "pfaffinc.poly", "pfaffinc.errors"}
_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('pfaffinc', 'numpy'))))")


def _fresh(code):
    """What the code's last line prints, as JSON, run in a fresh interpreter
    that has imported json and sys."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_only_the_package_init():
    assert _fresh("import pfaffinc\n" + _LOADED) == ["pfaffinc"]


def test_intersect_command_loads_no_other_layer(tmp_path):
    # the same command in this interpreter, which has every module loaded,
    # writes the same bytes
    argv = ["intersect", "--scene", str(DATA / "mixed_scene.json"), "--out"]
    loaded = _fresh("from pfaffinc import cli\n"
                    f"assert cli.main({argv + [str(tmp_path / 'a.csv')]!r}) == 0\n" + _LOADED)
    assert cli.main(argv + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert "pfaffinc.intersect" in loaded
    for module in ("chains", "cutting", "duality", "generators", "incidence", "render"):
        assert f"pfaffinc.{module}" not in loaded


def test_every_export_is_its_modules_object():
    # each name first reached through the package: the package hands out the
    # module's own object, not a copy
    differ = _fresh("import importlib, pfaffinc as pf\n"
                    "print(json.dumps([name for module, names in pf._EXPORTS.items()\n"
                    "    for name in names if getattr(pf, name) is not\n"
                    "    getattr(importlib.import_module('pfaffinc.' + module), name)]))")
    assert differ == []
    assert pf.__all__ and len(set(pf.__all__)) == len(pf.__all__)
    assert set(pf.__all__) <= set(dir(pf))
    star = {}
    exec("from pfaffinc import *", star)
    assert {name: star[name] for name in pf.__all__} == {name: getattr(pf, name)
                                                        for name in pf.__all__}


def test_every_submodule_is_reached_after_a_bare_import():
    modules = sorted(p.stem for p in (SRC / "pfaffinc").glob("*.py")
                     if not p.stem.startswith("__"))
    assert sorted(pf._EXPORTS) == modules
    got = _fresh("import pfaffinc\n"
                 f"print(json.dumps([getattr(pfaffinc, m).__name__ for m in {modules!r}]))")
    assert got == [f"pfaffinc.{m}" for m in modules]
    assert _fresh("import pfaffinc\n"
                  "print(json.dumps(pfaffinc.cutting.build_cutting is pfaffinc.build_cutting))")


def test_unknown_names_raise():
    got = _fresh("import pfaffinc\n"
                 "errors = []\n"
                 "try:\n    pfaffinc.nope\nexcept AttributeError as err:\n"
                 "    errors.append(str(err))\n"
                 "try:\n    from pfaffinc import nope\nexcept ImportError as err:\n"
                 "    errors.append(type(err).__name__)\n"
                 "print(json.dumps(errors))")
    assert got == ["module 'pfaffinc' has no attribute 'nope'", "ImportError"]


def _command_table():
    """{command: the modules it also loads} from README's table."""
    text = README.read_text()
    rows = text[text.index("| Command | Also loads |"):].split("\n\n")[0].splitlines()[2:]
    table = {}
    for row in rows:
        commands, modules = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = {f"pfaffinc.{m}" for m in re.findall(r"`([^`]+)`",
                                                                   modules.split("(")[0])}
    return table


def _command_lines(command, tmp_path):
    """Command lines that run command on small inputs; generate once per
    family."""
    scene, out = str(DATA / "mixed_scene.json"), str(tmp_path / "out")
    if command == "generate":
        return [["generate", "--family", family, "--a", "2", "--b", "2", "--m", "5", "--n", "3",
                 "--kinds", "line", "--out", out] for family in cli._FAMILIES]
    return [{
        "intersect": ["intersect", "--scene", scene],
        "cutting": ["cutting", "--scene", scene, "--r", "2", "--seed", "7",
                    "--crossings-out", out + ".csv", "--svg", out + ".svg"],
        "count": ["count", "--scene", scene],
        "verify-bound": ["verify-bound", "--scene", scene],
        "sweep": ["sweep", "--sizes", "8,27"],
        "duality": ["duality", "--family", str(_duality_family(tmp_path)), "--seed", "2"],
        "chains": ["chains", "--chain", str(_chain_file(tmp_path)), "--samples", "20"],
    }[command] + ["--out", out]]


def test_the_command_table_lists_every_command():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(_command_table()) == sorted(sub.choices)


@pytest.mark.parametrize("command", sorted(_command_table()))
def test_each_command_loads_the_modules_the_readme_lists(command, tmp_path):
    for argv in _command_lines(command, tmp_path):
        loaded = _fresh(f"from pfaffinc import cli\nassert cli.main({argv!r}) == 0\n" + _LOADED)
        assert {m for m in loaded if m.split(".")[0] == "pfaffinc"} == (
            _COMMAND_BASE | _command_table()[command]), argv
