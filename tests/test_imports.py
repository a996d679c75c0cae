"""Every name a module of the package imports is used in that module; every
public function, class, method and property the package defines is read
somewhere in it, and every annotated field of its classes is read as an
attribute somewhere in it, or is listed below with the reason it stays."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "auxlab"


def _unused_imports(source: str) -> list[str]:
    """Names bound by ``import`` statements that no expression reads; the
    names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Sequence, Mapping\n__all__ = ['Mapping']\nos.sep\n"
    assert _unused_imports(source) == ["line 2: Sequence"]


def _unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function and class, and
    ``module.Class.name`` of each public method and property of a
    module-level class, in ``sources`` ({module: source}) whose name no
    expression in any module reads, bare or as an attribute; ``__all__`` and
    imports do not count."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined if name.rsplit(".", 1)[1] not in read)


UNREAD_BY_DESIGN = {
    "optim.weighted_gradient": "acceptance-gate reference",
    "nn.loss_and_gradient": "acceptance-gate reference",
    "forkmerge.merge_coeffs_from_task_weights": "acceptance-gate reference",
    "nn.param_layout": "perfbench tracer",
    "forkmerge.train_branch": "perfbench tracer",
    "cli._Parser.error": "argparse calls it",
}


def test_every_public_function_and_class_is_read_or_listed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert _unread_public_names(sources) == sorted(UNREAD_BY_DESIGN)


def test_the_check_sees_an_unread_function():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\nclass _Private:\n    pass\n",
        "b": "from .a import dead\n__all__ = ['dead']\nimport a\na.used()\n",
    }
    assert _unread_public_names(sources) == ["a.dead"]


def test_the_check_sees_an_unread_method_and_property():
    sources = {
        "a": ("class Box:\n    def used(self):\n        pass\n\n"
              "    def dead(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "    def __len__(self):\n        return 0\n\n"
              "class _Hidden:\n    def gone(self):\n        pass\n"),
        "b": "from a import Box, _Hidden\nBox().used()\n",
    }
    assert _unread_public_names(sources) == ["a.Box.dead", "a.Box.size", "a._Hidden.gone"]


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` of each annotated field of a class in
    ``sources`` ({module: source}), dataclass and NamedTuple alike, whose
    name no expression in any module reads as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.target.id}", item.target.id)
                            for item in node.body if isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name, field in defined if field not in read)


# module.Class.field: the reason no code reads it
UNREAD_FIELDS_BY_DESIGN = {
    "runner.ResultRecord.psearch_evals":
        "a records.csv column, written by astuple; perfbench's checks read it",
}


def test_every_field_is_read_or_listed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert _unread_fields(sources) == sorted(UNREAD_FIELDS_BY_DESIGN)


def test_the_check_sees_an_unread_field():
    sources = {
        "a": ("@dataclass\nclass Result:\n    params: list\n    history: list\n"
              "    count: int = 0\n\n"
              "class Row(NamedTuple):\n    lam: float\n    score: float\n"),
        "b": ("def use(result, row, history):\n    result.params\n    row.lam\n"
              "    result.count = len(history)\n"),
    }
    assert _unread_fields(sources) == ["a.Result.count", "a.Result.history", "a.Row.score"]
