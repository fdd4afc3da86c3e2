"""What each entry point loads: `import pfaffinc` runs only the package
init, and each command imports only the modules it runs.  Every check runs
in a fresh interpreter, since this one has long since loaded them all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pfaffinc as pf
from pfaffinc import cli

SRC = Path(pf.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
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
