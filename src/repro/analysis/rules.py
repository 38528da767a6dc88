"""The linter's rule: no runtime import cycle between linted modules.

Builds the module-level import graph of every linted module that has a
dotted name, resolves relative imports, and reports each strongly
connected component of size > 1 as a cycle.  A cycle makes import
order load-bearing: a late ``from ..pkg import name`` can import
cleanly from one entry module and fail from another, which no test
sees unless that entry module happens to be imported first.

:data:`RULES` is the whole catalogue the linter runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = ["Finding", "ModuleInfo", "ImportCycleRule", "RULES"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    file: str
    line: int
    rule_id: str
    message: str

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule_id": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file handed to every rule."""

    path: str                 # display path (relative to the lint root)
    module: Optional[str]     # dotted module name when importable, or None
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str,
              module: Optional[str] = None) -> "ModuleInfo":
        return cls(
            path=path,
            module=module,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
        )


def _is_package(info: ModuleInfo) -> bool:
    return info.path.replace("\\", "/").endswith("__init__.py")


def _resolve_base(info: ModuleInfo, level: int,
                  target: Optional[str]) -> Optional[str]:
    """Absolute dotted prefix a (possibly relative) import refers to."""
    if level == 0:
        return target
    assert info.module is not None
    parts = info.module.split(".")
    if not _is_package(info):
        parts = parts[:-1]
    drop = level - 1
    if drop:
        if drop >= len(parts):
            return None
        parts = parts[:-drop]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts) if parts else None


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _runtime_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """AST nodes reached at import time — skips ``if TYPE_CHECKING:``
    bodies, whose imports exist only for annotations and are the
    sanctioned way to break a cycle."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _edges(info: ModuleInfo,
           known: set[str]) -> Iterator[tuple[str, int]]:
    """(imported linted module, lineno) pairs for one module."""
    for node in _runtime_nodes(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                while name:
                    if name in known:
                        yield name, node.lineno
                        break
                    name = name.rpartition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0 and info.module is None:
                continue
            base = _resolve_base(info, node.level, node.module)
            if base is None:
                continue
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                if submodule in known:
                    yield submodule, node.lineno
                elif base in known:
                    yield base, node.lineno


def _strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's algorithm, iterative; returns SCCs with > 1 member."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sccs


class ImportCycleRule:
    """No import cycles among the linted modules."""

    rule_id = "import-cycle"

    def check_project(self,
                      modules: Iterable[ModuleInfo]) -> Iterator[Finding]:
        """Findings over the whole module set (the graph needs all of it)."""
        infos = [m for m in modules if m.module is not None]
        known = {m.module for m in infos}
        by_name = {m.module: m for m in infos}
        graph: dict[str, set[str]] = {name: set() for name in known}
        linenos: dict[tuple[str, str], int] = {}
        for info in infos:
            for target, lineno in _edges(info, known):
                if target == info.module:
                    continue
                graph[info.module].add(target)
                linenos.setdefault((info.module, target), lineno)

        for scc in _strongly_connected(graph):
            first = scc[0]
            in_cycle = set(scc)
            successor = next(s for s in sorted(graph[first])
                             if s in in_cycle)
            yield Finding(
                file=by_name[first].path,
                line=linenos.get((first, successor), 1),
                rule_id=self.rule_id,
                message="import cycle: " + " -> ".join(scc + [first]),
            )


RULES = (ImportCycleRule(),)
