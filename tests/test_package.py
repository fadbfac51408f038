"""Guards on how the modules of the package depend on each other, and on
what the package holds."""

import ast
import pathlib

import vrf_sentinel

PACKAGE = pathlib.Path(vrf_sentinel.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def module_name(path: str) -> tuple[str, bool]:
    """The dotted name of the module at `path` (relative to its package's
    parent), and whether it is a package."""
    parts = pathlib.PurePath(path).with_suffix("").parts
    is_package = parts[-1] == "__init__"
    return ".".join(parts[:-1] if is_package else parts), is_package


def import_source(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute name of the module that `node`, in `module`, imports from."""
    package = module if is_package else module.rpartition(".")[0]  # where `.` points
    source = node.module or ""
    if node.level:
        base = package.rsplit(".", node.level - 1)[0]
        source = f"{base}.{source}" if source else base
    return source


def private_imports(module: str, text: str, is_package: bool = False) -> list[str]:
    """`module imports source.name` for each underscore name (dunders such
    as `__version__` aside) that `module`, whose source is `text`, imports
    from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = import_source(node, module, is_package)
        if source.split(".")[0] != PACKAGE.name or source == module:
            continue
        found += [
            f"{module} imports {source}.{alias.name}" for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
    return found


def test_no_module_imports_a_private_name_of_another():
    """An underscore name is private to its module; a second module that
    needs it needs a public function instead."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module, is_package = module_name(path.relative_to(PACKAGE.parent))
        found += private_imports(module, path.read_text(encoding="utf-8"), is_package)
    assert found == []


def test_private_imports_resolve_relative_and_absolute_sources():
    """The guard sees `from .m import _x`, `from ..m import _x` and
    `from vrf_sentinel.m import _x`, and lets dunders and other packages pass."""
    text = (
        "from .. import __version__\n"
        "from ..modmatrix import _hidden, build_matrix\n"
        "from .scoring import _pool_scores\n"
        "from vrf_sentinel.vrf_io import _Rows\n"
        "from numpy import _core\n"
    )
    assert private_imports("vrf_sentinel.detectors.probe", text) == [
        "vrf_sentinel.detectors.probe imports vrf_sentinel.modmatrix._hidden",
        "vrf_sentinel.detectors.probe imports vrf_sentinel.detectors.scoring._pool_scores",
        "vrf_sentinel.detectors.probe imports vrf_sentinel.vrf_io._Rows",
    ]
    assert private_imports("vrf_sentinel.detectors", "from .nmf import _step\n", True) == [
        "vrf_sentinel.detectors imports vrf_sentinel.detectors.nmf._step",
    ]


# --- every public name of the package is read by the program ------------------


def definitions(tree: ast.Module):
    """(qualified name, node, the references that read it) of each public
    top-level function, class and constant of a module, and of each public
    method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, node, {("name", name), ("attribute", name)}
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                continue
            if any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list):
                yield f"{node.name}.{item.name}", item, {("attribute", item.name)}
            else:  # called, or handed on from its class as `key=Class.method`
                yield f"{node.name}.{item.name}", item, {
                    ("call", item.name), ("member", f"{node.name}.{item.name}")
                }


def references(tree: ast.Module, strings: bool):
    """(kind, name, line) of each name a module reads: a bare name, an
    attribute, a method call `.name(`, a class member `Class.name`, and
    with `strings` each string as a name. An import or an `__all__` entry
    reads nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "attribute", node.attr, node.lineno
            if isinstance(node.value, ast.Name):
                yield "member", f"{node.value.id}.{node.attr}", node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield "call", node.func.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "name", node.value, node.lineno


def unread_names(sources: dict[str, str]) -> list[str]:
    """The public names of the package's modules in `sources` (relative path
    -> text) that no module there reads outside the name's own body: a
    top-level name as a name or attribute, a method as a call or a member
    of its class, a property as an attribute. Modules outside the package
    (the benchmark) count the strings they hold as names too, as its tracer
    wraps the functions it names."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        strings = not path.startswith(PACKAGE.name)
        for kind, name, line in references(tree, strings):
            read.setdefault((kind, name), []).append((path, line))
    unread = []
    for path, tree in trees.items():
        if not path.startswith(PACKAGE.name):
            continue
        for qualified, node, keys in definitions(tree):
            places = [place for key in keys for place in read.get(key, [])]
            if all(p == path and node.lineno <= line <= node.end_lineno for p, line in places):
                unread.append(f"{module_name(path)[0]}.{qualified}")
    return unread


def unread_imports(sources: dict[str, str]) -> list[str]:
    """`package.name` for each name a package `__init__` in `sources`
    imports but neither uses itself nor hands on: no other module imports
    it from the package or reads it as `package.name`, and no benchmark
    module names it in a string."""
    found = []
    for path, text in sources.items():
        package, is_package = module_name(path)
        if not (is_package and path.startswith(PACKAGE.name)):
            continue
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for other, other_text in sources.items():
            if other == path:
                continue
            reader, reader_is_package = module_name(other)
            for node in ast.walk(ast.parse(other_text)):
                if isinstance(node, ast.ImportFrom):
                    if import_source(node, reader, reader_is_package) == package:
                        used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id == package.rpartition(".")[2]:
                        used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if not other.startswith(PACKAGE.name):
                        used.add(node.value)
        found += [
            f"{package}.{alias.asname or alias.name}"
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names if (alias.asname or alias.name) not in used
        ]
    return found


def program_sources() -> dict[str, str]:
    """Relative path -> text of every module of the package and the benchmark."""
    return {
        path.relative_to(root.parent).as_posix(): path.read_text(encoding="utf-8")
        for root in (PACKAGE, BENCH) for path in sorted(root.rglob("*.py"))
    }


def test_every_public_name_is_read_by_the_program():
    """No function, class, constant or method of the package is there only
    for the tests: each is read by the package or the benchmark."""
    assert unread_names(program_sources()) == []


def test_every_name_a_package_imports_is_used_or_handed_on():
    """A package `__init__` imports a name to use it or to be the place
    other modules read it from; the tests read a name where it is defined."""
    assert unread_imports(program_sources()) == []


GUARD_PROBE = {
    "vrf_sentinel/__init__.py": "",
    "vrf_sentinel/tools/__init__.py": (
        "from .kit import Kit, read_kit, spare\n"
        "from .kit import LIMIT\n"
        "__all__ = ['Kit', 'read_kit', 'spare', 'LIMIT']\n"
        "def check(x):\n"
        "    return x < LIMIT\n"
    ),
    "vrf_sentinel/tools/kit.py": (
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "class Kit:\n"
        "    def size(self):\n"
        "        return self.size() if self.deep else 0\n"
        "    def used(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def deep(self):\n"
        "        return False\n"
        "    def key(self):\n"
        "        return 0\n"
        "def read_kit():\n"
        "    return sorted([Kit()], key=Kit.key)\n"
        "def spare():\n"
        "    return spare()\n"
        "def traced():\n"
        "    return 0\n"
    ),
    "vrf_sentinel/cli.py": (
        "from .tools import read_kit, check\n"
        "from . import tools\n"
        "read_kit()[0].used()\n"
        "read_kit()[0].size\n"
        "tools.Kit\n"
        "check(1)\n"
    ),
    "perfbench/tracer.py": "TARGETS = {'tools': ('traced',)}\n",
}


def test_guard_sees_unread_names_methods_and_imports():
    """A name read only inside its own body (`spare`), or not at all
    (`UNUSED`), is unread, and so is a method never called outside its body
    (`Kit.size`, though `.size` is read as a plain attribute); a method
    called (`Kit.used`) or handed on (`Kit.key`), a property read
    (`Kit.deep`) and a function a benchmark string names are read. An
    `__init__` import counts when the `__init__` uses it, another module
    reads it through the package, or a benchmark string names it."""
    assert unread_names(GUARD_PROBE) == [
        "vrf_sentinel.tools.kit.UNUSED",
        "vrf_sentinel.tools.kit.Kit.size",
        "vrf_sentinel.tools.kit.spare",
    ]
    assert unread_imports(GUARD_PROBE) == ["vrf_sentinel.tools.spare"]
