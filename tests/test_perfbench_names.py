"""The names the benchmark harness in ``perfbench/`` takes from avsep still
resolve.

perfbench drives the library from outside: it imports avsep modules,
reads functions and constants off them, wraps private functions named in
``tracer.PRIVATE``, and binds ``model.separate``'s arguments by name. A
rename in ``src/`` breaks none of the library's own tests, so these
checks read perfbench's source with ``ast`` and look every name up.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from avsep import model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _avsep_reads(path: Path) -> set[tuple[str, str]]:
    """(avsep module, attribute) for every name the file imports from avsep
    or reads off an avsep module it imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "avsep" or a.name.startswith("avsep."):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "avsep" or node.module.startswith("avsep.")):
            for a in node.names:
                found.add((node.module, a.name))
                if node.module == "avsep":  # `from avsep import model` binds a module
                    aliases[a.asname or a.name] = f"avsep.{a.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    return found


def _resolves(module: str, attr: str) -> bool:
    """``module.attr`` exists, as an attribute or as a submodule."""
    mod = importlib.import_module(module)
    return hasattr(mod, attr) or (hasattr(mod, "__path__")  # a package
                                  and importlib.util.find_spec(f"{module}.{attr}") is not None)


def _tracer_private() -> dict:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["PRIVATE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no PRIVATE")


def test_every_avsep_name_perfbench_reads_resolves():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert len(paths) >= 5
    reads = set().union(*(_avsep_reads(p) for p in paths))
    modules = {m for m, _ in reads}
    assert {"avsep", "avsep.model", "avsep.trainer", "avsep.checks", "avsep.cli",
            "avsep.data"} <= modules
    missing = sorted((m, a) for m, a in reads if not _resolves(m, a))
    assert not missing, missing


def test_traced_private_functions_exist():
    private = _tracer_private()
    assert private
    for name in private:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"avsep.{layer}"), attr, None)
        assert inspect.isfunction(fn), name


def test_separate_binds_the_argument_names_the_mac_hook_reads():
    params = inspect.signature(model.separate).parameters
    assert {"mixture", "video_feat", "cfg", "p"} <= set(params)


def test_guard_sees_a_missing_name(tmp_path):
    bad = tmp_path / "bench.py"
    bad.write_text("import avsep\nfrom avsep import model as m, data\n"
                   "from avsep.tensor import Tensor\n"
                   "m.separate\ndata.no_such_reader\navsep.__file__\n")
    assert _avsep_reads(bad) == {
        ("avsep", "model"), ("avsep", "data"), ("avsep.tensor", "Tensor"),
        ("avsep.model", "separate"), ("avsep.data", "no_such_reader"),
        ("avsep", "__file__")}
    assert _resolves("avsep", "data") and not _resolves("avsep.data", "no_such_reader")

