"""The runtime needs only the standard library, and every module imports
as the first one loaded.

``pyproject.toml`` declares ``dependencies = []``.  The first test
holds it to that by importing every module in a child ``python -I -S``:
isolated mode with no ``site``, so no site-packages directory is on the
path.  Each module is imported with no ``repro`` module loaded before
it, so an import cycle that fails only from one entry module (a late
``from ..pkg import X`` at the bottom of a module that ``pkg`` itself
imports) fails here too.  The second test checks that the loop's walk
names every module file; the third checks that the bench worker's
entry modules load neither a third-party graph library, nor
``multiprocessing``, nor ``dataclasses`` (record classes are written
out by hand: generating them at import was about half of a
workload's set-up); the fourth plants an import cycle and checks that
the first test's loop catches it.  Run as a script, this file does the
first check's imports; CI runs ``python -I -S tests/test_stdlib_only.py
src`` before installing anything.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# What ``python -m bench measure`` imports before it builds a workload.
BENCH_ENTRY = ("repro.faults.chaos", "repro.obs", "repro.opt",
               "repro.perf.loadgen", "repro.sim")


def _module_names(path: str, prefix: str):
    """Every module under the package directory ``path``, importing none."""
    for info in pkgutil.iter_modules([path]):
        yield prefix + info.name
        if info.ispkg:
            yield from _module_names(os.path.join(path, info.name),
                                     f"{prefix}{info.name}.")


def import_every_module(src: str, package: str = "repro") -> int:
    """Import every module under ``src/<package>``, each as the first
    module of ``package`` loaded; return how many.

    Raises ImportError naming the entry module that failed.
    """
    sys.path.insert(0, src)
    names = [package, *_module_names(os.path.join(src, package),
                                     f"{package}.")]
    for name in names:
        for loaded in [m for m in sys.modules
                       if m == package or m.startswith(f"{package}.")]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception as exc:
            raise ImportError(f"{name} fails imported first: {exc!r}",
                              name=name) from exc
    return len(names)


def _python(*args):
    return subprocess.run([sys.executable, "-I", *args],
                          capture_output=True, text=True, timeout=120)


def test_every_module_imports_without_site_packages():
    proc = _python("-S", __file__, str(SRC))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[0]) > 50, proc.stdout


def test_fresh_import_walks_every_module_file():
    # A directory missing its __init__.py would be skipped by the walk,
    # and no module in it would ever be imported first.
    files = {".".join(path.relative_to(SRC).with_suffix("").parts)
             .removesuffix(".__init__")
             for path in (SRC / "repro").rglob("*.py")}
    walked = ["repro", *_module_names(str(SRC / "repro"), "repro.")]
    assert sorted(walked) == sorted(files)


def test_bench_entry_loads_no_networkx_multiprocessing_or_dataclasses():
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"for name in {BENCH_ENTRY!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('networkx')\n"
        "             or m.split('.')[0] == 'multiprocessing'\n"
        "             or m == 'dataclasses'))\n")
    # With site-packages on the path, so an installed package would load.
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fresh_import_catches_a_cycle_one_entry_module_hits(
        tmp_path, monkeypatch):
    import pytest  # not at the top: the script runs without site-packages

    # plantcycle.b imports cleanly (it loads the whole package), but
    # plantcycle.pkg imported first reaches b's late import while
    # pkg.X is not yet bound.
    root = tmp_path / "plantcycle"
    (root / "pkg").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "pkg" / "__init__.py").write_text("from .a import X\n")
    (root / "pkg" / "a.py").write_text("from ..b import T\nX = 1\n")
    (root / "b.py").write_text("T = 1\nfrom .pkg import X\n")
    monkeypatch.setattr(sys, "path", sys.path[:])
    try:
        with pytest.raises(ImportError) as caught:
            import_every_module(str(tmp_path), "plantcycle")
        assert caught.value.name == "plantcycle.pkg"
        (root / "b.py").write_text("T = 1\n")
        assert import_every_module(str(tmp_path), "plantcycle") == 4
    finally:
        for name in [m for m in sys.modules if m.startswith("plantcycle")]:
            del sys.modules[name]


if __name__ == "__main__":
    print(import_every_module(sys.argv[1]), "repro modules imported")
