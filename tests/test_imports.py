"""Every module under ``src/dnmodes/`` uses each name it imports, defines
each name its ``__all__`` lists, and leaves no private helper unused.

The import check parses each module with the standard library's ``ast`` (no
linter is needed): a name bound by an ``import`` counts as used when the
module reads it anywhere, or lists it in its ``__all__``.  The package
``__init__`` imports only to re-export, so its names all count as used.
The ``__all__`` check imports each module, so that a stale entry fails here
and not at the first ``from dnmodes.<module> import *``.  The private-name
check parses the whole package: a module-level ``def``, ``class`` or
assignment whose name starts with ``_`` must be read in its own module
outside its own definition, or imported from it by another module.

numpy stays off the import path: no module imports it at module level
(``if TYPE_CHECKING:`` aside), and in a fresh interpreter, importing the
package and its command line, loading a config and building every preset
leave it unloaded, and ``dataclasses``, ``inspect`` and ``decimal`` (which
only the phase-gate formula audit loads) with it.  Each system's per-sample
calls (decomposition, frame maps, Hamiltonians), a whole ``dnm analyze``
run and ``dnm simulate`` runs of every preset, with and without ``--larmor``,
leave numpy unloaded too, and so do the conveniences that return rows of
floats: the stiffness matrix, the mass-weighted stiffness, the modal matrix,
the energy audit in both frames and the mode energies.  The one ``import
numpy`` of the package is ``classify_separability``'s sample grid.

No class is a dataclass, whose creation costs about 1 ms at import: every
record type is a ``schedules.value_class``.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import dnmodes
from test_config_fuzz import PRESETS, base_config

MODULES = sorted(pathlib.Path(dnmodes.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names that the module's imports bind and the module never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .errors import ConfigError as Bad, DnmError\n"
        "__all__ = ['DnmError']\n"
        "def f(x: float) -> float:\n"
        "    import json\n"
        "    return math.sqrt(x)\n"
    )
    assert unused_imports(source) == ["Bad", "json", "os"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def missing_exports(module) -> list:
    """Names that the module's ``__all__`` lists and the module does not define."""
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


def test_the_check_finds_a_stale_all_entry():
    module = types.ModuleType("stale")
    exec("__all__ = ['kept', 'gone', 'also_gone']\nkept = 1\n", module.__dict__)
    assert missing_exports(module) == ["also_gone", "gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_exists(path):
    name = "dnmodes" if path.stem == "__init__" else f"dnmodes.{path.stem}"
    assert missing_exports(importlib.import_module(name)) == []


def _bound_names(node) -> list:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def unused_private_names(sources: dict) -> list:
    """``module.name`` for each module-level private name (dunders aside) of
    ``sources``, a map of module name to source, that its module never reads
    outside the name's own definition and no module imports from it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in trees.items():
        for statement in tree.body:
            own = {id(node) for node in ast.walk(statement)}
            for name in _bound_names(statement):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                read = any(isinstance(node, ast.Name) and node.id == name
                           and isinstance(node.ctx, ast.Load) and id(node) not in own
                           for node in ast.walk(tree))
                if not read and (module, name) not in imported:
                    unused.append(f"{module}.{name}")
    return sorted(unused)


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": (
            "_LIMIT = 2\n"
            "_spare = 3\n"
            "__all__ = ['f']\n"
            "def _recurse(n):\n"
            "    return _recurse(n - 1) if n else _LIMIT\n"
            "def _shared():\n"
            "    return 1\n"
            "class _Unused:\n"
            "    pass\n"
            "def f():\n"
            "    return _LIMIT\n"
        ),
        "b": "from .a import _shared\n_used_here = _shared()\nprint(_used_here)\n",
    }
    assert unused_private_names(sources) == ["a._Unused", "a._recurse", "a._spare"]


def test_no_private_name_is_left_unused():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unused_private_names(sources) == []


def module_level_numpy_imports(source: str) -> list:
    """Line numbers of the imports of numpy that run when the module is
    imported: any outside a function, except under ``if TYPE_CHECKING:``."""
    lines = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, ast.If) and ast.unparse(node.test) in (
                    "TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(node.orelse)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "numpy" for alias in node.names):
                lines.append(node.lineno)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                lines.append(node.lineno)
            else:
                visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return lines


def test_the_check_finds_a_module_level_numpy_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import math, numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "else:\n"
        "    from numpy.linalg import norm\n"
        "def f():\n"
        "    import numpy as np\n"
        "    return np.zeros(2)\n"
        "class C:\n"
        "    from numpy import ndarray\n"
        "    def g(self):\n"
        "        from numpy import ones\n"
        "        return ones(2)\n"
    )
    assert module_level_numpy_imports(source) == [2, 6, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_numpy_at_module_level(path):
    assert module_level_numpy_imports(path.read_text()) == []


def numpy_import_sites(source: str) -> list:
    """The dotted name of the function or class that holds each import of
    numpy in the module, in source order; ``None`` for one outside them all."""
    sites = []

    def visit(nodes, where):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, f"{where}.{node.name}" if where else node.name)
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "numpy" for alias in node.names):
                sites.append(where)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                sites.append(where)
            else:
                visit(ast.iter_child_nodes(node), where)

    visit(ast.parse(source).body, None)
    return sites


def test_the_check_names_where_numpy_is_imported():
    source = (
        "import math, numpy\n"
        "def f():\n"
        "    from numpy import linspace\n"
        "    def g():\n"
        "        import numpy.linalg as la\n"
        "class C:\n"
        "    def h(self):\n"
        "        if True:\n"
        "            import numpy as np\n"
        "from . import numbers\n"
    )
    assert numpy_import_sites(source) == [None, "f", "f.g", "C.h"]


def test_only_the_classify_grid_imports_numpy():
    # classify_separability samples np.linspace; every other value of the
    # package is a float or a tuple of floats, and nothing imports numpy
    # for type checking either.
    sites = [f"{path.stem}.{site}" for path in MODULES
             for site in numpy_import_sites(path.read_text())]
    assert sites == ["modes.classify_separability"]
    assert [path.name for path in MODULES if "TYPE_CHECKING" in path.read_text()] == []


def test_set_up_does_not_import_numpy(tmp_path):
    # Every preset, with lists for its tuple fields: the rotation phi is a
    # cubic table and the phase-gate F2 a polynomial.  `dnm analyze` samples a
    # float grid and `dnm simulate` keeps its runs as float rows, so the
    # command line loads no numpy either.
    zeroth = base_config("phase-gate")
    zeroth["preset"]["zeroth_order"] = True
    paths = []
    for i, cfg in enumerate([*map(base_config, PRESETS), zeroth]):
        paths.append(str(tmp_path / f"cfg{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(cfg, fh)
    # Then each system's per-sample calls at t0, which run on floats: the
    # decomposition, the ellipse, both frame maps, both Hamiltonians, the
    # zeroth-order phase gate's mode force, and the matrices as rows; and a
    # four-step run from rest at equilibrium, audited in both frames.
    code = (
        "import json, sys\n"
        "import dnmodes, dnmodes.cli\n"
        "configs = [dnmodes.cli.load_config(path) for path in sys.argv[2:]]\n"
        "systems = [dnmodes.build_preset(cfg['preset']) for cfg in configs]\n"
        "labels = [system.label for system in systems]\n"
        "unloaded = {'numpy', 'dataclasses', 'inspect', 'decimal'}\n"
        "after_set_up = sorted(unloaded & set(sys.modules))\n"
        "for cfg, system in zip(configs, systems):\n"
        "    t = cfg['window'][0]\n"
        "    dec = dnmodes.decompose_at(system, t)\n"
        "    dnmodes.ellipse_at(dec, system, t)\n"
        "    x = dnmodes.PhasePoint(t, (0.1, -0.1), (0.0, 0.05))\n"
        "    X = dnmodes.to_mode_frame(dec, x, system)\n"
        "    dnmodes.from_mode_frame(dec, X, system)\n"
        "    dnmodes.effective_hamiltonian_value(dec, system, X)\n"
        "    system.hamiltonian_value(x)\n"
        "    if system.label == 'phase-gate-zeroth-order':\n"
        "        system.extras['mode_force'](t)\n"
        "    system.stiffness(t).matrix()\n"
        "    dnmodes.mass_weighted_stiffness(system.stiffness(t), system.masses)\n"
        "    dnmodes.modal_matrix(dec.theta, system.masses)\n"
        "    spec = dnmodes.IntegratorSpec(dt=(cfg['window'][1] - t) / 4, t0=t,\n"
        "                                  t1=cfg['window'][1])\n"
        "    rest = dnmodes.PhasePoint(t, system.equilibrium(t), (0.0, 0.0))\n"
        "    lab = dnmodes.integrate_lab(system, rest, spec)\n"
        "    mapped = dnmodes.map_to_mode_frame(system, lab)\n"
        "    dnmodes.energy_audit(lab, system), dnmodes.energy_audit(mapped, system)\n"
        "    dnmodes.mode_energy_series(mapped, system, compensated=True)\n"
        "after_evaluation = 'numpy' in sys.modules\n"
        "codes = [dnmodes.cli.main(['analyze', '--config', sys.argv[2], '--out', sys.argv[1]])]\n"
        "for larmor in ([], ['--larmor']):\n"
        "    codes += [dnmodes.cli.main(['simulate', '--config', path, '--out', sys.argv[1],\n"
        "                                *larmor]) for path in sys.argv[2:]]\n"
        "after_main = 'numpy' in sys.modules\n"
        "print(json.dumps([labels, after_set_up, after_evaluation, codes, after_main]))\n"
    )
    src = os.path.dirname(os.path.dirname(dnmodes.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), *paths],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    labels, after_set_up, after_evaluation, exit_codes, after_main = json.loads(
        proc.stdout.splitlines()[-1])
    assert labels == [*PRESETS, "phase-gate-zeroth-order"]
    assert after_set_up == []
    assert after_evaluation is False
    assert (exit_codes, after_main) == ([0] * (1 + 2 * len(paths)), False)


def dataclass_names(source: str) -> list:
    """Names of the classes that ``@dataclass`` decorates in the module, bare,
    called or as ``dataclasses.dataclass``."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if ast.unparse(getattr(decorator, "func", decorator)).split(".")[-1] == "dataclass"
    )


def test_the_check_finds_a_dataclass():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A: x: float\n"
        "@dataclass(frozen=True)\n"
        "class B: x: float\n"
        "@dataclasses.dataclass(init=False)\n"
        "class C: x: float\n"
        "@value_class\n"
        "class D: x: float\n"
        "def f():\n"
        "    @dataclass\n"
        "    class E: x: float\n"
        "    return E\n"
    )
    assert dataclass_names(source) == ["A", "B", "C", "E"]


def test_no_class_is_a_dataclass():
    # Creating a dataclass costs about 1 ms, and importing dataclasses about
    # 10 ms more, so every record type is a schedules.value_class.
    assert [name for path in MODULES for name in dataclass_names(path.read_text())] == []
