"""No ffdio module reaches into another module's private (underscore) names,
every name the benchmark's tracer wraps exists, and setting up a run whose
places are all of degree one does not import sympy.

Every source file under src/ffdio is parsed with `ast`, and both
`from .mod import _name` and `mod._name` on an imported ffdio module count as
a violation.
"""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from ffdio.harness import generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffdio"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source(node: ast.ImportFrom):
    """The ffdio module an import reads from ("" for the package), or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module.split(".")[0] == "ffdio":
        return node.module.partition(".")[2]
    return None


def violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    modules = set()  # names bound to ffdio modules by `from . import linalg`
    for node in ast.walk(tree):
        source = _source(node) if isinstance(node, ast.ImportFrom) else None
        if source is None:
            continue
        for alias in node.names:
            if not source:
                modules.add(alias.asname or alias.name)
            if source != path.stem and _private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {source or 'ffdio'}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_cross_module_private_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [v for path in files for v in violations(path)]
    assert not found, "\n".join(found)


def test_checker_sees_a_private_import(tmp_path):
    path = tmp_path / "steinmetz.py"
    path.write_text(
        "from . import linalg\n"
        "from .moving import Sequence, _exponent_vectors\n"
        "from ffdio.moving import _rational_vectors\n"
        "x = linalg._copy\n"
    )
    found = violations(path)
    assert len(found) == 3
    assert "_exponent_vectors" in found[0] and "_rational_vectors" in found[1]


def test_tracer_targets_resolve():
    """`perfbench/tracer.py` wraps each TARGETS entry by name; a missing one
    makes a traced benchmark run fail with AttributeError."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        module = importlib.import_module(f"ffdio.{module_name}")
        owner, _, name = path.rpartition(".")
        scope = vars(module)
        if owner:
            scope = vars(scope[owner]) if owner in scope else {}
        if not callable(scope.get(name)):
            missing.append(f"{module_name}.{path}")
    assert not missing, missing


def test_degree_one_places_do_not_load_sympy(tmp_path):
    """The places t and inf need no factorisation, so loading a fixed-fermat
    config stays clear of sympy's import time."""
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(generate("fixed-fermat", window=(1, 15)).to_dict()))
    script = (
        "import sys\n"
        "from ffdio.harness import load_experiment\n"
        f"cfg = load_experiment({str(path)!r}, 'reduce')\n"
        "assert list(cfg.s_places) == ['t', 'inf'], cfg.s_places\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    pythonpath = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
