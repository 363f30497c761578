"""What importing the package and running a command loads.

The package names its submodules' public objects lazily (PEP 562), and each
CLI handler imports what it runs, so commands that compute in plain integers
or bytes never load numpy: group sets among them, and grid sets whose work
is small enough for plain Python (`patterns._numpy_pays`), such as the
five-point avoider, its lift and their spectra.  The 3-d corner avoider,
grid sets past that size and `count homs` compute with numpy.  numpy is
loaded by this test process already, so the commands run in fresh
interpreters.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cornerforge
from cornerforge.cli import main

SRC = str(Path(cornerforge.__file__).resolve().parent.parent)

# run one command through cli.main, then report its exit code and whether
# numpy was loaded
PROBE = """
import sys
from cornerforge import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --version exits through argparse
    code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files for the probed commands, made in process."""
    tmp = tmp_path_factory.mktemp("inputs")
    assert main(["construct", "alpha", "--m", "5", "--r", "2", "-o", str(tmp / "alpha.json")]) == 0
    assert main(["construct", "qcfree", "--a", "0,1,2,3,4", "--length", "256", "-o", str(tmp / "qc.set")]) == 0
    assert main(["construct", "behrend", "--length", "64", "-o", str(tmp / "b.set")]) == 0
    (tmp / "w.kern").write_text("2\n1/2 1/4\n0 1\n3/4 1/8\n1 1/2\n")
    (tmp / "g.tp").write_text("tripartite 3\nXY 0 1\nYZ 1 2\nXZ 0 2\n")
    (tmp / "h.hg").write_text("3 5 3\n0 1 2\n1 2 3\n2 3 4\n")
    assert main(["construct", "mandache", "--kernel", str(tmp / "w.kern"), "--group", "fp:3:3", "-o", str(tmp / "S.gset")]) == 0
    # the benchmark's five-point set (29 members of [65537]) and its lift
    # (502 members of [1170]^2), and its 3-d corner set (312,705 members)
    assert main(["construct", "fivepoint", *FIVEPOINT, "-o", str(tmp / "F.set")]) == 0
    assert main(["construct", "lift", "--pattern", LIFT, "--base", str(tmp / "F.set"), "-o", str(tmp / "G.set")]) == 0
    assert main(["construct", "corner3d", *CORNER3D, "-o", str(tmp / "A.set")]) == 0
    return tmp


FIVEPOINT = ["--a", "0,1,2,3,4", "--delta", "0.1772", "--length", "16", "--q-max", "100000"]
LIFT = "points:1,1;0,1;0,0;1,0;2,0"
CORNER3D = ["--delta", "0.25", "--length", "8", "--q-max", "500"]


def probe(tmp: Path, *argv: str) -> tuple[int, bool]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, cwd=tmp, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split()
    return int(code), loaded == "True"


NUMPY_FREE = [
    ["--version"],
    ["construct", "alpha", "--m", "5", "--r", "2", "-o", "alpha2.json"],
    ["verify", "alpha", "--alpha", "alpha.json"],
    ["construct", "qcfree", "--a", "0,1,2,3,4", "--length", "256", "-o", "qc2.set"],
    ["verify", "qcfree", "--a", "0,1,2,3,4", "--set", "qc.set"],
    ["construct", "behrend", "--length", "64", "-o", "b2.set"],
    ["construct", "sumfree", "--length", "64", "-o", "s2.set"],
    ["verify", "relationfree", "--relation", "1,1,-2", "--set", "b.set"],
    ["verify", "diamondfree", "--graph", "g.tp"],
    ["count", "triforce", "--kernel", "w.kern"],
    ["construct", "mandache", "--kernel", "w.kern", "--group", "fp:3:3", "--seed", "4", "-o", "S2.gset"],
    ["count", "spectrum", "--set", "S.gset"],
    ["count", "density", "--set", "S.gset"],
    ["report", "mandache", "--kernel", "w.kern", "--group", "zN:9", "--seeds", "0:3"],
    ["construct", "fivepoint", *FIVEPOINT, "-o", "F2.set"],
    ["construct", "lift", "--pattern", LIFT, "--base", "F.set", "-o", "G2.set"],
    ["count", "spectrum", "--set", "F.set", "--pattern", "a:2,3,0,4,1"],
    ["count", "spectrum", "--set", "G.set", "--pattern", "points:0,0;0,1;1,1;1,0;2,0"],
    ["count", "density", "--set", "G.set"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda argv: " ".join(argv[:2] + argv[3:4]))
def test_integer_commands_do_not_load_numpy(inputs, argv):
    assert probe(inputs, *argv) == (0, False)


def test_a_grid_count_loads_numpy(inputs):
    # the positive controls: the probe does see numpy when a command loads
    # it.  The 3-d corner set has far more members than plain Python takes
    assert probe(inputs, "count", "spectrum", "--set", "A.set", "--pattern", "corner3") == (0, True)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "corner3d", *CORNER3D, "-o", "A2.set"],
        ["verify", "avoidance", "--set", "A.set", "--params", "A.set.params.json"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_the_corner3d_commands_load_numpy(inputs, argv):
    assert probe(inputs, *argv) == (0, True)


def test_a_hom_count_loads_numpy(inputs):
    assert probe(inputs, "count", "homs", "--motif", "triforce", "--hypergraph", "h.hg") == (0, True)


def test_verify_avoidance_does_not_load_numpy_ma(tmp_path):
    # a plain np.unique call imports numpy.ma, about 10 ms of start-up
    argv = ["construct", "corner3d", "--delta", "0.25", "--length", "8", "--q-max", "40", "-o", str(tmp_path / "A.set")]
    assert main(argv) == 0
    source = (
        "import sys\nfrom cornerforge import cli\n"
        f"code = cli.main(['verify', 'avoidance', '--set', 'A.set', '--params', 'A.set.params.json'])\n"
        "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 True False", proc.stderr


# the submodules whose __all__ the package exports; none loads numpy when imported
EXPORTING = ["behrend", "contfrac", "diamond", "hypergraph", "patterns", "mandache", "avoiders"]
LOADED = "print(sorted(m for m in sys.modules if m.startswith('cornerforge')), 'numpy' in sys.modules)"


def fresh(source: str) -> str:
    """What `source` prints in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_loads_no_submodule():
    assert fresh(f"import sys, cornerforge\n{LOADED}") == "['cornerforge'] False"


def test_importing_cli_from_the_package_loads_only_cli():
    # the import system asks the package for the name before it imports the submodule
    assert fresh(f"import sys\nfrom cornerforge import cli\n{LOADED}") == "['cornerforge', 'cornerforge.cli'] False"


def test_the_names_of_the_numpy_free_modules_load_no_numpy():
    names = ", ".join(name for module in EXPORTING for name in importlib.import_module(f"cornerforge.{module}").__all__)
    assert fresh(f"import sys\nfrom cornerforge import {names}\nprint('numpy' in sys.modules)") == "False"


def test_all_is_the_union_of_the_submodules_lists():
    # the first list that has a name wins, so a name in two lists would hide one
    union = f"[name for m in {EXPORTING!r} for name in importlib.import_module('cornerforge.' + m).__all__]"
    source = f"import importlib, cornerforge\nunion = {union}\nprint(sorted(cornerforge.__all__) == sorted(set(union)) == sorted(union))"
    assert fresh(source) == "True"


def test_frac_floors_is_exported():
    assert fresh("import cornerforge, cornerforge.contfrac\nprint(cornerforge.frac_floors is cornerforge.contfrac.frac_floors)") == "True"


def test_every_public_name_is_the_submodules_object():
    for module in map(importlib.import_module, [f"cornerforge.{module}" for module in EXPORTING]):
        for name in module.__all__:
            assert getattr(cornerforge, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(cornerforge.__all__) <= set(dir(cornerforge))
    assert "__version__" in dir(cornerforge)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cornerforge import *", namespace)
    for name in cornerforge.__all__:
        assert namespace[name] is getattr(cornerforge, name), name


SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(cornerforge.__path__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_all_name_resolves(module):
    # a star import raises AttributeError for a stale name in __all__; a
    # module without __all__ (cli, limits) exports nothing by name
    namespace = {}
    exec(f"from cornerforge.{module} import *", namespace)
    assert set(getattr(importlib.import_module(f"cornerforge.{module}"), "__all__", ())) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cornerforge.no_such_name
    assert not hasattr(cornerforge, "MAX_CELLS")  # defined in submodules, not exported here
    assert not hasattr(cornerforge, "limits.MAX_CELLS")  # a dotted name is no attribute either
