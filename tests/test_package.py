"""Guards on how the modules of the package depend on each other."""

import ast
import pathlib

import vrf_sentinel

PACKAGE = pathlib.Path(vrf_sentinel.__file__).parent


def private_imports(module: str, text: str, is_package: bool = False) -> list[str]:
    """`module imports source.name` for each underscore name (dunders such
    as `__version__` aside) that `module`, whose source is `text`, imports
    from another module of the package."""
    package = module if is_package else module.rpartition(".")[0]  # where `.` points
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level:
            base = package.rsplit(".", node.level - 1)[0]
            source = f"{base}.{source}" if source else base
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
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
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
