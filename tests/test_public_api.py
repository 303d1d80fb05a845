"""The package's public surface: what ``diffnet`` exports, and the README's
library quickstart run on its own text."""

import ast
import contextlib
import io
import re
import types
from pathlib import Path

import diffnet
from diffnet.graphops import DirectedGraph
from diffnet.ingest import TweetRecord
from diffnet.netbuild import LayerGraph

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "diffnet"

# names of the id-keyed graph API, which graphs built from labelled arcs
# replaced, and the graph's views that its one general form replaced
REMOVED = {
    diffnet: ("diameter_undirected", "structural_virality", "largest_wcc"),
    diffnet.graphops: ("diameter_undirected", "structural_virality", "largest_wcc"),
    DirectedGraph: ("nodes", "_labels", "_labelled", "_adjacency", "_directed", "_csr"),
    LayerGraph: ("nodes", "_labelled"),
    TweetRecord: ("interaction_free",),
}


def test_every_export_resolves_and_no_removed_name_is_left():
    assert len(diffnet.__all__) == len(set(diffnet.__all__))
    for name in diffnet.__all__:
        assert hasattr(diffnet, name), name
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in diffnet.__all__


def test_exports_are_the_sorted_public_names_of_the_package():
    # __all__ is derived from the package's imports: a stray import there
    # (a typing name, say) would join it. Every export is a class or
    # function defined in diffnet, or a constant: never a submodule
    exported = diffnet.__all__
    assert exported == sorted(exported)
    for name in exported:
        value = getattr(diffnet, name)
        assert not name.startswith("_"), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__.startswith("diffnet."), name
        else:
            assert isinstance(value, (str, int, tuple)), name
    namespace = {}
    exec("from diffnet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == exported


def test_readme_quickstart_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "quickstart"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("AUROC 1.000000 ")
    assert lines[1].startswith("AUROC 0.918171 ")


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports at its top level and never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    assert {p.name: _unused_imports(p) for p in modules} == {p.name: [] for p in modules}
