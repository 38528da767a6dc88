"""The runtime needs only the standard library.

``pyproject.toml`` declares ``dependencies = []``.  The first test
holds it to that by importing every module in a child ``python -I -S``:
isolated mode with no ``site``, so no site-packages directory is on the
path.  The second checks that the bench worker's entry modules load
neither a third-party graph library nor ``multiprocessing``.  Run as a
script, this file does the first check's imports; CI runs
``python -I -S tests/test_stdlib_only.py src`` before installing
anything.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# What ``python -m bench measure`` imports before it builds a workload.
BENCH_ENTRY = ("repro.faults.chaos", "repro.obs", "repro.opt",
               "repro.perf.loadgen", "repro.sim")


def import_every_module(src: str) -> int:
    """Import every module under ``src/repro``; return how many."""
    sys.path.insert(0, src)
    import repro

    def fail(name):
        raise  # the ImportError walk_packages would otherwise swallow

    names = [info.name for info in
             pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail)]
    for name in names:
        importlib.import_module(name)
    return len(names)


def _python(*args):
    return subprocess.run([sys.executable, "-I", *args],
                          capture_output=True, text=True, timeout=120)


def test_every_module_imports_without_site_packages():
    proc = _python("-S", __file__, str(SRC))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[0]) > 50, proc.stdout


def test_bench_entry_loads_no_networkx_or_multiprocessing():
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"for name in {BENCH_ENTRY!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('networkx')\n"
        "             or m.split('.')[0] == 'multiprocessing'))\n")
    # With site-packages on the path, so an installed package would load.
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


if __name__ == "__main__":
    print(import_every_module(sys.argv[1]), "repro modules imported")
