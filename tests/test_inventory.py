"""Every module under ``src/repro`` has a consumer outside the tests.

A module counts as consumed when a file outside ``tests/`` imports it:
another ``src/`` module, a figure regenerator under ``benchmarks/``, an
example under ``examples/`` or the frozen harness under ``bench/``.  A
package ``__init__`` importing one of its own submodules (a re-export,
or an import that registers something) counts only when the package
itself has a consumer.  Package ``__init__`` modules are not checked
themselves: Python imports them with any submodule.  The few modules
kept for a reason other than a caller sit on :data:`ALLOWLIST`, each
with its reason.  The scan reads import statements with :mod:`ast`, so
it runs nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONSUMER_DIRS = ("src", "benchmarks", "examples", "bench")

#: Modules without a non-test importer, and why each one stays.
ALLOWLIST = {
    "repro.cli": "the `adapt-repro` console entry point",
    "repro.analysis.wa_model": "ROADMAP item 5(c): per-group WA prediction",
}


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_names(path: Path, module: str | None) -> set[str]:
    """Dotted names ``path`` imports, with every parent package, and
    ``pkg.name`` for each ``from pkg import name`` (which may be a
    submodule).  Relative imports resolve against ``module``."""
    is_pkg = path.name == "__init__.py"
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module is not None:
                parts = module.split(".")
                anchor = parts[:len(parts) - node.level + is_pkg]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    out = set()
    for name in names:
        parts = name.split(".")
        out.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return out


def checked_modules() -> set[str]:
    return {module_name(p) for p in (SRC / "repro").rglob("*.py")
            if p.name != "__init__.py"}


def consumers() -> dict[str, set[str]]:
    """Module name -> the files outside ``tests/`` importing it."""
    found: dict[str, set[str]] = {}
    own: list[tuple[str, str, str]] = []   # (package, submodule, file)
    for top in CONSUMER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            rel = str(path.relative_to(ROOT))
            module = module_name(path) if top == "src" else None
            is_pkg = module is not None and path.name == "__init__.py"
            for name in imported_names(path, module) - {module}:
                if is_pkg and name.startswith(f"{module}."):
                    own.append((module, name, rel))
                else:
                    found.setdefault(name, set()).add(rel)
    while ready := [entry for entry in own if entry[0] in found]:
        for entry in ready:
            own.remove(entry)
            found.setdefault(entry[1], set()).add(entry[2])
    return found


def test_every_module_has_a_non_test_consumer():
    used = consumers()
    orphans = sorted(m for m in checked_modules()
                     if m not in used and m not in ALLOWLIST)
    assert not orphans, (
        "modules imported only by tests (give each a consumer, delete "
        "it, or add it to ALLOWLIST with a reason): " + ", ".join(orphans))


def test_allowlist_names_real_modules_without_consumers():
    """An allowlisted module must exist and must still lack a consumer;
    once something imports it, its entry goes."""
    used = consumers()
    assert set(ALLOWLIST) <= checked_modules()
    assert not set(ALLOWLIST) & set(used), {
        m: used[m] for m in set(ALLOWLIST) & set(used)}


def test_scan_resolves_relative_imports(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f\n")
    (pkg / "b.py").write_text("from . import c\nfrom .a import g\n")
    names = imported_names(pkg / "b.py", "repro.pkg.b")
    assert {"repro.pkg.c", "repro.pkg.a", "repro.pkg", "repro"} <= names
    assert "repro.pkg.a" in imported_names(pkg / "__init__.py", "repro.pkg")
