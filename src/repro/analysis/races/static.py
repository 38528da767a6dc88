"""Whole-program shared-state analysis over simulation processes.

The per-file linter answers "is this line safe?"; this pass answers a
whole-program question: *which mutable state do simulation processes
share?*  It works in four stages:

1. **Function harvest** — every function/method in the module set is
   recorded under its dotted qualname; functions containing their own
   ``yield`` are *process functions* (the kernel resumes them event by
   event).
2. **Call graph** — edges are resolved precisely where possible (same
   module functions, ``self.method`` within a class, imported-module
   attributes, ``yield from``) and by class-hierarchy approximation
   for ``anything.method(...)`` calls (every known class defining that
   method is a candidate callee).  CHA over-approximates, which is the
   conservative direction for a race detector; builtin-container
   method names (``append``, ``get``, ``update`` ...) are excluded
   because they would wire spurious edges through every dict and list.
3. **Access harvest** — each function's reads and writes of
   ``self.attr`` state (keyed ``Class.attr``) and module-level mutable
   globals (keyed ``module.NAME``) are recorded, including writes
   through subscripts, ``+=`` and known mutator methods.  Accesses
   made through the kernel's sanctioned handoff methods
   (``put``/``get`` on a Store, ``request``/``release`` on a Resource,
   ``succeed``/``fail``/``interrupt`` on an Event) are marked as
   handoffs, not raw state touches — ordering through the kernel is
   exactly what makes sharing safe.
4. **Matrix + findings** — for every state key, union the accesses of
   each process entry's reachable call-graph slice.  A key written by
   one process function and touched by at least one other (without a
   handoff) is *cross-process mutable state*: a finding is emitted at
   each writing file's first write site, and the full matrix goes into
   a JSON artifact; CI's strict-path gate (``races --strict-on``)
   fails on findings under the paths it names.

The kernel package (``repro.sim``) is exempt: the scheduler and event
machinery own their ordering by construction.  Same-process
multi-instance sharing (fifty shoppers running one function) is the
dynamic sanitizer's job — it sees object identity at run time, this
pass cannot.

Findings are suppressed like lint findings, with
``# repro: noqa[shared-state]`` on the flagged line.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..findings import Finding, SEVERITY_WARNING
from ..linter import suppressed_rule_ids
from ..rules import ModuleInfo

__all__ = ["FunctionRecord", "RaceAnalysis", "StaticRaceAnalyzer",
           "analyze_paths", "analyze_sources", "RULE_ID",
           "HANDOFF_METHODS"]

RULE_ID = "shared-state"

#: The kernel package whose internal state is ordered by construction.
KERNEL_PACKAGE = "repro.sim"

#: Packages exempt from shared-state attribution: the kernel owns its
#: ordering by construction, and the analysis/instrumentation tooling
#: is not sim-facing (the sanitizer's own bookkeeping is written from
#: the kernel dispatch loop by design).
EXEMPT_PACKAGES = (KERNEL_PACKAGE, "repro.analysis")

#: Kernel-ordered handoff methods: mutations through these are the
#: sanctioned way for state to cross process boundaries.
HANDOFF_METHODS = frozenset({
    "put", "get", "request", "release", "succeed", "fail", "interrupt",
    "trigger",
})

#: Container methods that mutate their receiver.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "pop",
    "popleft", "popitem", "remove", "clear", "update", "add", "discard",
    "setdefault", "sort", "reverse", "incr",
})

#: Method names too generic for class-hierarchy call resolution:
#: wiring an edge through every ``x.get(...)`` would connect the whole
#: program through Python's own containers.
CHA_EXCLUDED = MUTATOR_METHODS | HANDOFF_METHODS | frozenset({
    "keys", "values", "items", "copy", "count", "index", "join",
    "split", "strip", "encode", "decode", "format", "startswith",
    "endswith", "read", "write", "close",
})

_SET_OPS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
            ast.SetComp)
_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict",
                                "deque", "OrderedDict", "Counter"})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, _SET_OPS):
        return True
    if isinstance(node, ast.Call):
        head = node.func
        name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else "")
        return name in _MUTABLE_FACTORIES
    return False


@dataclass
class FunctionRecord:
    """One harvested function definition."""

    qualname: str                 # module.Outer.inner
    module: str
    path: str
    lineno: int
    node: ast.AST
    owner_class: Optional[str]    # dotted class qualname for methods
    is_process: bool = False      # contains its own yield
    calls: list[str] = field(default_factory=list)
    reads: dict[str, tuple] = field(default_factory=dict)   # key -> site
    writes: dict[str, tuple] = field(default_factory=dict)  # key -> site
    handoffs: set[str] = field(default_factory=set)


def _own_nodes(func: ast.AST):
    """Statements/expressions belonging to ``func``, not nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _attr_chain_root(node: ast.AST):
    """(root-name, first-attr) for ``root.attr[...]...`` chains."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and attrs:
        return node.id, attrs[-1]
    return None, None


class StaticRaceAnalyzer:
    """Builds the call graph and access matrix over a module set."""

    def __init__(self, modules: Iterable[ModuleInfo]):
        self.modules = [info for info in modules if info.module]
        self.functions: dict[str, FunctionRecord] = {}
        # method name -> qualnames of every class method with that name
        self._methods_by_name: dict[str, list[str]] = {}
        # module -> {local alias -> imported module dotted name}
        self._imports: dict[str, dict[str, str]] = {}
        # module -> set of module-level mutable global names
        self._globals: dict[str, set[str]] = {}
        self._infos_by_path = {info.path: info for info in self.modules}
        self.unresolved_calls = 0
        self.cha_edges = 0

    # -- stage 1+3: harvest functions and accesses -----------------------
    def _harvest_module(self, info: ModuleInfo) -> None:
        module = info.module or ""
        imports: dict[str, str] = {}
        mutable_globals: set[str] = set()
        for node in info.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Assign):
                if _is_mutable_literal(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            mutable_globals.add(target.id)
        self._imports[module] = imports
        self._globals[module] = mutable_globals

        def walk(body, prefix: str, owner_class: Optional[str]):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}.{node.name}",
                         f"{prefix}.{node.name}")
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    record = FunctionRecord(
                        qualname=qualname, module=module, path=info.path,
                        lineno=node.lineno, node=node,
                        owner_class=owner_class)
                    self.functions[qualname] = record
                    if owner_class is not None:
                        self._methods_by_name.setdefault(
                            node.name, []).append(qualname)
                    # nested defs: owner class no longer applies
                    walk(node.body, qualname, None)

        walk(info.tree.body, module, None)

    def _analyze_function(self, record: FunctionRecord) -> None:
        module = record.module
        imports = self._imports.get(module, {})
        mutable_globals = self._globals.get(module, set())
        declared_global: set[str] = set()
        for node in _own_nodes(record.node):
            if isinstance(node, ast.Yield):
                record.is_process = True
            elif isinstance(node, ast.YieldFrom):
                record.is_process = True
                value = node.value
                if isinstance(value, ast.Call):
                    self._note_call(record, value)
            elif isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Call):
                self._note_call(record, node)
            elif isinstance(node, ast.Attribute):
                self._note_attribute(record, node)
            elif isinstance(node, ast.Name):
                self._note_global(record, node, mutable_globals,
                                  declared_global)
            elif isinstance(node, ast.Subscript):
                self._note_subscript(record, node)
            elif isinstance(node, ast.AugAssign):
                self._note_augassign(record, node, mutable_globals)

    # -- access classification -------------------------------------------
    def _state_key(self, record: FunctionRecord, root: str,
                   attr: str) -> Optional[str]:
        """State key for ``root.attr`` or None when unresolvable."""
        if root in ("self", "cls") and record.owner_class is not None:
            return f"{record.owner_class}.{attr}"
        target = self._imports.get(record.module, {}).get(root)
        if target is not None and attr in self._globals.get(target, set()):
            return f"{target}.{attr}"
        return None

    def _site(self, record: FunctionRecord, node: ast.AST) -> tuple:
        return (record.path, getattr(node, "lineno", record.lineno))

    def _note(self, record: FunctionRecord, key: Optional[str],
              node: ast.AST, write: bool) -> None:
        if key is None:
            return
        book = record.writes if write else record.reads
        site = self._site(record, node)
        existing = book.get(key)
        if existing is None or site < existing:
            book[key] = site

    def _note_attribute(self, record: FunctionRecord,
                        node: ast.Attribute) -> None:
        if not isinstance(node.value, ast.Name):
            return
        key = self._state_key(record, node.value.id, node.attr)
        self._note(record, key, node,
                   write=isinstance(node.ctx, (ast.Store, ast.Del)))

    def _note_global(self, record: FunctionRecord, node: ast.Name,
                     mutable_globals: set, declared_global: set) -> None:
        name = node.id
        if name not in mutable_globals:
            return
        write = isinstance(node.ctx, (ast.Store, ast.Del)) and \
            name in declared_global
        if isinstance(node.ctx, ast.Load) or write:
            self._note(record, f"{record.module}.{name}", node, write=write)

    def _note_subscript(self, record: FunctionRecord,
                        node: ast.Subscript) -> None:
        root, attr = _attr_chain_root(node.value)
        key = None
        if root is not None:
            key = self._state_key(record, root, attr)
        elif isinstance(node.value, ast.Name):
            name = node.value.id
            if name in self._globals.get(record.module, set()):
                key = f"{record.module}.{name}"
        self._note(record, key, node,
                   write=isinstance(node.ctx, (ast.Store, ast.Del)))

    def _note_augassign(self, record: FunctionRecord, node: ast.AugAssign,
                        mutable_globals: set) -> None:
        target = node.target
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name):
            key = self._state_key(record, target.value.id, target.attr)
            self._note(record, key, node, write=True)
            self._note(record, key, node, write=False)
        elif isinstance(target, ast.Subscript):
            self._note_subscript(record, target)

    def _note_call(self, record: FunctionRecord, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._note_name_call(record, func.id)
            return
        if not isinstance(func, ast.Attribute):
            self.unresolved_calls += 1
            return
        method = func.attr
        receiver = func.value
        # A mutator/handoff method call on tracked state is an access,
        # not a call-graph edge.
        root, attr = _attr_chain_root(receiver)
        if root is not None:
            key = self._state_key(record, root, attr)
            if key is not None:
                if method in HANDOFF_METHODS:
                    record.handoffs.add(key)
                    return
                if method in MUTATOR_METHODS:
                    self._note(record, key, node, write=True)
                    return
                self._note(record, key, node, write=False)
        if isinstance(receiver, ast.Name):
            rid = receiver.id
            if rid in ("self", "cls") and record.owner_class is not None:
                target = f"{record.owner_class}.{method}"
                if target in self.functions:
                    record.calls.append(target)
                    return
            imported = self._imports.get(record.module, {}).get(rid)
            if imported is not None:
                target = f"{imported}.{method}"
                if target in self.functions:
                    record.calls.append(target)
                    return
            name = rid
            if name in self._globals.get(record.module, set()) and \
                    method in MUTATOR_METHODS:
                self._note(record, f"{record.module}.{name}", node,
                           write=True)
                return
        # Class-hierarchy approximation for everything else.
        if method not in CHA_EXCLUDED and not method.startswith("__"):
            candidates = self._methods_by_name.get(method, ())
            if candidates:
                record.calls.extend(candidates)
                self.cha_edges += len(candidates)
                return
        self.unresolved_calls += 1

    def _note_name_call(self, record: FunctionRecord, name: str) -> None:
        # Same scope (nested), same module, or from-imported function.
        prefix = record.qualname.rsplit(".", 1)[0]
        for candidate in (f"{record.qualname}.{name}", f"{prefix}.{name}",
                          f"{record.module}.{name}",
                          self._imports.get(record.module, {}).get(name)):
            if candidate and candidate in self.functions:
                record.calls.append(candidate)
                return
        self.unresolved_calls += 1

    # -- stage 4: matrix + findings ---------------------------------------
    def _reachable(self, entry: str) -> set[str]:
        seen: set[str] = set()
        stack = [entry]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            record = self.functions.get(qualname)
            if record is not None:
                stack.extend(record.calls)
        return seen

    def analyze(self) -> "RaceAnalysis":
        for info in self.modules:
            self._harvest_module(info)
        for record in self.functions.values():
            self._analyze_function(record)

        processes = sorted(
            qualname for qualname, record in self.functions.items()
            if record.is_process and not _exempt_module(record.module))

        matrix: dict[str, dict] = {}
        for process in processes:
            for qualname in self._reachable(process):
                record = self.functions.get(qualname)
                if record is None or _exempt_module(record.module):
                    continue
                for key, site in record.writes.items():
                    _matrix_note(matrix, key, process, "W", site)
                for key, site in record.reads.items():
                    _matrix_note(matrix, key, process, "R", site)
                for key in record.handoffs:
                    matrix.setdefault(key, _new_cell())["handoff"] = True

        findings = self._findings(matrix)
        return RaceAnalysis(
            matrix=matrix,
            processes=processes,
            findings=findings,
            functions=len(self.functions),
            modules=len(self.modules),
            unresolved_calls=self.unresolved_calls,
            cha_edges=self.cha_edges,
        )

    def _findings(self, matrix: dict) -> list[Finding]:
        findings: list[Finding] = []
        for key in sorted(matrix):
            cell = matrix[key]
            if _owner_module(key, self.functions) and \
                    _exempt_module(_owner_module(key, self.functions)):
                continue
            writers = sorted(p for p, kinds in cell["accesses"].items()
                             if "W" in kinds)
            touchers = sorted(cell["accesses"])
            cell["cross_process_write"] = bool(
                writers and len(touchers) > 1)
            if not cell["cross_process_write"]:
                continue
            readers = [p for p in touchers if p not in writers]
            by_file: dict[str, int] = {}
            for path, line in cell["write_sites"]:
                if path not in by_file or line < by_file[path]:
                    by_file[path] = line
            for path in sorted(by_file):
                finding = Finding(
                    file=path,
                    line=by_file[path],
                    rule_id=RULE_ID,
                    severity=SEVERITY_WARNING,
                    message=(
                        f"'{key}' is cross-process mutable state: "
                        f"written by {_brief(writers)}"
                        + (f", also touched by {_brief(readers)}"
                           if readers else " from multiple processes")
                        + "; order the access through a kernel handoff "
                          "(Event/Store/Resource) or document the "
                          "commutativity"),
                )
                if self._suppressed(finding):
                    continue
                findings.append(finding)
        findings.sort(key=lambda f: (f.file, f.line, f.rule_id, f.message))
        return findings

    def _suppressed(self, finding: Finding) -> bool:
        info = self._infos_by_path.get(finding.file)
        if info is None or not 1 <= finding.line <= len(info.lines):
            return False
        ids = suppressed_rule_ids(info.lines[finding.line - 1])
        if ids is None:
            return False
        return not ids or finding.rule_id in ids


def _brief(processes: list) -> str:
    """Compact rendering of a process list for finding messages."""
    shown = [p.rsplit(".", 1)[-1] for p in processes[:3]]
    extra = len(processes) - len(shown)
    rendered = ", ".join(shown)
    if extra > 0:
        rendered += f" (+{extra} more)"
    return rendered


def _exempt_module(module: Optional[str]) -> bool:
    return bool(module) and any(
        module == package or module.startswith(package + ".")
        for package in EXEMPT_PACKAGES)


def _owner_module(key: str, functions: dict) -> Optional[str]:
    """Best-effort module owning a state key (``module.Class.attr``)."""
    owner = key.rsplit(".", 1)[0]
    record = functions.get(owner)
    if record is not None:
        return record.module
    # Walk the dotted prefix down to something that looks like a module.
    parts = owner.split(".")
    while parts and parts[-1][:1].isupper():
        parts.pop()
    return ".".join(parts) or None


def _new_cell() -> dict:
    return {"accesses": {}, "write_sites": [], "read_sites": [],
            "handoff": False, "cross_process_write": False}


def _matrix_note(matrix: dict, key: str, process: str, kind: str,
                 site: tuple) -> None:
    cell = matrix.setdefault(key, _new_cell())
    kinds = cell["accesses"].setdefault(process, "")
    if kind not in kinds:
        cell["accesses"][process] = "".join(sorted(kinds + kind))
    sites = cell["write_sites"] if kind == "W" else cell["read_sites"]
    if site not in sites:
        sites.append(site)


@dataclass
class RaceAnalysis:
    """The whole-program result: matrix, processes, findings."""

    matrix: dict
    processes: list[str]
    findings: list[Finding]
    functions: int = 0
    modules: int = 0
    unresolved_calls: int = 0
    cha_edges: int = 0

    def findings_in(self, prefixes: Sequence[str]) -> list[Finding]:
        """Findings whose file path starts with any of ``prefixes``."""
        normalized = [p.rstrip("/") for p in prefixes]
        return [f for f in self.findings
                if any(f.file.startswith(p + "/") or f.file == p
                       or f"/{p}/" in f.file for p in normalized)]

    def to_dict(self) -> dict:
        """The access-matrix JSON artifact (``races --json``)."""
        matrix = {}
        for key in sorted(self.matrix):
            cell = self.matrix[key]
            matrix[key] = {
                "accesses": dict(sorted(cell["accesses"].items())),
                "write_sites": [
                    {"file": path, "line": line}
                    for path, line in sorted(cell["write_sites"])],
                "read_sites": [
                    {"file": path, "line": line}
                    for path, line in sorted(cell["read_sites"])],
                "kernel_handoff": bool(cell["handoff"]),
                "cross_process_write": bool(cell["cross_process_write"]),
            }
        return {
            "generated_by": "python -m repro races",
            "modules": self.modules,
            "functions": self.functions,
            "processes": list(self.processes),
            "unresolved_calls": self.unresolved_calls,
            "cha_edges": self.cha_edges,
            "state_keys": len(matrix),
            "cross_process_keys": sum(
                1 for cell in matrix.values()
                if cell["cross_process_write"]),
            "matrix": matrix,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.findings)} cross-process shared-state finding(s) "
            f"over {len(self.processes)} process function(s), "
            f"{self.functions} function(s), {self.modules} module(s)")
        return "\n".join(lines)


def analyze_sources(sources: Iterable[ModuleInfo]) -> RaceAnalysis:
    """Run the whole-program pass over already-parsed modules."""
    return StaticRaceAnalyzer(sources).analyze()


def analyze_paths(paths: Sequence[str]) -> RaceAnalysis:
    """Discover ``*.py`` files under ``paths`` and analyze them.

    Discovery and module inference go through the linter's own walker
    so path display matches lint output exactly (and stays
    stable-sorted across filesystems).
    """
    import os

    from ..linter import _discover, _infer_module

    modules: list[ModuleInfo] = []
    for filename in _discover(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        display = os.path.relpath(filename)
        modules.append(ModuleInfo.parse(
            display, source, module=_infer_module(filename)))
    return analyze_sources(modules)
