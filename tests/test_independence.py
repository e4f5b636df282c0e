"""The oracle shares no evaluation code with the closed forms, read off the imports.

Every ``import`` statement of a package module is parsed with ``ast``
(function-level imports included), and imports of other package modules are
followed, so a closed form cannot reach the oracle through a helper module.
"""

import ast
from pathlib import Path

import pytest

import fockabs

PACKAGE = Path(fockabs.__file__).parent


def _module_file(name: str) -> Path:
    return PACKAGE / ("__init__.py" if name == "fockabs" else f"{name}.py")


def _is_package_module(name: str) -> bool:
    return _module_file(name).is_file()


def direct_imports(name: str) -> set[str]:
    """Modules that package module ``name`` imports.

    Package modules are named without the ``fockabs.`` prefix (the package
    itself is ``fockabs``); anything else by its top-level name.
    """
    tree = ast.parse(_module_file(name).read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            if node.level:
                module = ["fockabs"] + module
            # ``from fockabs import oracle`` names a module, not a value
            dotted = [module + [alias.name] for alias in node.names]
        else:
            continue
        for parts in dotted:
            if parts[0] != "fockabs":
                found.add(parts[0])
            elif len(parts) > 1 and _is_package_module(parts[1]):
                found.add(parts[1])
            else:
                found.add("fockabs")
    return found


def reached_modules(name: str) -> set[str]:
    """Every package module that importing ``name`` executes, ``name`` excluded."""
    seen: set[str] = set()
    todo = [name]
    while todo:
        for other in direct_imports(todo.pop()):
            if _is_package_module(other) and other not in seen:
                seen.add(other)
                todo.append(other)
    seen.discard(name)
    return seen


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("oracle", {"perturbation", "verify", "fockabs"}),
        ("fock_core", {"perturbation", "verify", "fockabs"}),
        ("perturbation", {"oracle", "verify", "fockabs"}),
    ],
)
def test_oracle_and_closed_forms_share_no_module(module, forbidden):
    assert not reached_modules(module) & forbidden


# the oracle and the ladder algebra under it are plain Python
@pytest.mark.parametrize("module", ["oracle", "fock_core"])
def test_oracle_does_not_import_numpy(module):
    assert "numpy" not in direct_imports(module)


def test_import_scan_sees_the_harness_imports():
    # the harness is the one module that joins both sides; if the scan
    # missed its imports, the checks above would pass vacuously
    assert {"oracle", "perturbation"} <= direct_imports("verify")
    assert "numpy" in direct_imports("perturbation")
    # the harness draws from Python's random, whose stream numpy cannot move
    assert "numpy" not in direct_imports("verify")
    # its SHA-1 fallback, which test_no_module_imports_hashlib allows
    assert {"_sha1", "hashlib"} <= direct_imports("verify")
    assert {"oracle", "perturbation"} <= reached_modules("cli_io")
    assert "verify" in reached_modules("fockabs")


def _fallback_imports(tree: ast.AST) -> set[int]:
    """Ids of the import nodes inside an ``except ImportError`` handler."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and ast.unparse(node.type) == "ImportError":
            found |= {id(n) for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))}
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_hashlib(path):
    # hashlib maps OpenSSL's libcrypto into the process; verify's SHA-1 comes
    # from CPython's built-in _sha1, with hashlib only where that is missing
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fallbacks = _fallback_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
            assert id(node) in fallbacks, f"{path.name}:{node.lineno}"
