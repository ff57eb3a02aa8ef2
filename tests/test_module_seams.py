"""avsep modules reach each other only through public names.

An underscore name taken from another avsep module marks a seam that
should be public. The exceptions are the tape plumbing ``_accum`` and
``_node`` and the sigmoid kernel ``_sigmoid`` that ``nn`` takes from
``tensor``. The benchmark's tracer (``perfbench/tracer.py``) wraps every
public function of ``tensor`` and ``nn`` as an op; made public, these
would be traced as ops of their own and take the output bytes and time
of the ops that call them, so they stay underscore-named.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "avsep"
ALLOWED = {("nn", "tensor", "_accum"), ("nn", "tensor", "_node"), ("nn", "tensor", "_sigmoid")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _avsep_module(node: ast.ImportFrom) -> str | None:
    """The avsep module an import reads from, or None for other packages."""
    if node.level:
        return node.module or ""
    if node.module == "avsep" or (node.module or "").startswith("avsep."):
        return node.module.removeprefix("avsep").lstrip(".")
    return None


def _private_uses(path: Path) -> set[tuple[str, str, str]]:
    """(module, source module, name) for every underscore name the module
    imports from avsep or reads off an imported avsep module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    me, found, aliases = path.stem, set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (src := _avsep_module(node)) is not None:
            for a in node.names:
                if src == "":  # `from . import tensor as T` binds a module
                    aliases[a.asname or a.name] = a.name
                elif _is_private(a.name):
                    found.add((me, src, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _is_private(node.attr)):
            found.add((me, aliases[node.value.id], node.attr))
    return found


def test_no_private_names_cross_modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    crossing = set().union(*(_private_uses(p) for p in paths)) - ALLOWED
    assert not crossing, sorted(crossing)


def test_guard_sees_a_private_import(tmp_path):
    bad = tmp_path / "trainer.py"
    bad.write_text("from .model import _ceil_to\nfrom . import tensor as T\nT._accum\n")
    assert _private_uses(bad) == {("trainer", "model", "_ceil_to"),
                                  ("trainer", "tensor", "_accum")}


def test_only_tensor_reads_the_tape_links():
    """``requires_grad`` is the one mark of the tape; a node's ``_parents``
    are the tape's own plumbing, which only ``tensor`` reads."""
    readers = sorted(path.name for path in SRC.glob("*.py") if path.stem != "tensor"
                     and any(isinstance(n, ast.Attribute) and n.attr == "_parents"
                             for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))))
    assert not readers, readers


def test_no_module_lists_its_public_names():
    """The leading underscore is the one statement of what is public: a
    name without one is public, and no module keeps a second, hand-kept
    list of its public names in ``__all__`` that could drift from it."""
    listing = [path.name for path in sorted(SRC.glob("*.py"))
               if any(isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
                      for n in ast.walk(ast.parse(path.read_text(), filename=str(path))))]
    assert not listing, listing
