"""Project-wide symbol table and call graph for the lint program rules.

The per-file rules (D1, D2) judge syntax they can see; the program
rules (D3, D4, H1, H3) need to know *who can call whom* so
"this loop runs on the per-round advance path" or "this function can end
up scheduling events" is computed rather than guessed from local syntax.

The graph is deliberately name-based and over-approximate:

* every function and method definition becomes a node, keyed by a
  qualified name of the form ``"<path>::<Class>.<method>"`` (or
  ``"<path>::<function>"``, with ``<outer>.<inner>`` for nested defs and
  ``<module>`` for module-level code);
* every call site becomes an edge from the enclosing scope to the
  *simple name* of the callee — ``self.routes.lookup(...)`` is an edge
  to ``lookup`` — resolved at query time against every definition whose
  final name segment matches;
* a call of a known class name (``CohortEngine(fabric)``) is a
  *constructor edge* to that class's ``__init__``, tagged so build-time
  work can be excluded from hot-path reachability queries.

Name resolution never misses a real edge for in-tree code (no dynamic
dispatch tricks are used on the checked paths), at the cost of merging
same-named methods of unrelated classes — acceptable for lint, where the
price of over-approximation is at worst a suppression, never a silent
false negative.

Per-file extraction (:func:`extract_file_graph`) produces a plain
JSON-serializable dict so the incremental runner can cache it per content
hash; :meth:`CallGraph.from_facts` merges the per-file facts into the
queryable whole-program graph.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

__all__ = ["CallGraph", "FunctionInfo", "extract_file_graph",
           "iter_function_scopes", "walk_in_scope"]

#: scope name used for statements outside any function definition.
MODULE_SCOPE = "<module>"

#: edge kinds: a plain call versus a constructor invocation.
CALL_EDGE = "call"
CTOR_EDGE = "ctor"


class FunctionInfo:
    """One function or method definition known to the program."""

    __slots__ = ("qual", "path", "scope", "name", "cls", "line")

    def __init__(self, qual: str, path: str, scope: str, name: str,
                 cls: Optional[str], line: int):
        self.qual = qual
        self.path = path
        #: dotted scope inside the file (e.g. ``CohortEngine.run``)
        self.scope = scope
        #: simple (final-segment) name used for call resolution
        self.name = name
        #: enclosing class name, when the definition is a method
        self.cls = cls
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FunctionInfo {self.qual}>"


def _attribute_tail(node: ast.AST) -> Optional[str]:
    """Final name segment of a Name/Attribute callee, or None when dynamic."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FileGraphExtractor(ast.NodeVisitor):
    """Single pass over one module: definitions, classes, and call edges."""

    def __init__(self, path: str):
        self.path = path
        self.functions: List[Dict[str, Any]] = []
        self.classes: Dict[str, Optional[str]] = {}
        self.edges: List[Tuple[str, str]] = []
        self._scope: List[str] = []
        self._class: List[str] = []

    # -- scope bookkeeping -------------------------------------------------
    def _scope_name(self) -> str:
        return ".".join(self._scope) if self._scope else MODULE_SCOPE

    def _qual(self, scope: str) -> str:
        return f"{self.path}::{scope}"

    # -- visitors ----------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.setdefault(node.name, None)
        self._scope.append(node.name)
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()
        self._scope.pop()

    def _visit_function(self, node: ast.AST, name: str, line: int) -> None:
        self._scope.append(name)
        scope = self._scope_name()
        cls = self._class[-1] if self._class else None
        self.functions.append({
            "scope": scope,
            "name": name,
            "cls": cls,
            "line": line,
        })
        if name == "__init__" and cls is not None and len(self._scope) >= 2 \
                and self._scope[-2] == cls:
            self.classes[cls] = scope
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name, node.lineno)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name, node.lineno)

    def visit_Call(self, node: ast.Call) -> None:
        callee = _attribute_tail(node.func)
        if callee is not None:
            self.edges.append((self._scope_name(), callee))
        self.generic_visit(node)


def extract_file_graph(path: str, tree: ast.Module) -> Dict[str, Any]:
    """JSON-serializable call-graph facts for one parsed file."""
    extractor = _FileGraphExtractor(path)
    extractor.visit(tree)
    return {
        "functions": extractor.functions,
        "classes": extractor.classes,
        "edges": [[caller, callee] for caller, callee in extractor.edges],
    }


def iter_function_scopes(
        tree: ast.Module,
) -> List[Tuple[str, ast.AST, Optional[str]]]:
    """Every function/method definition as ``(scope, node, class_name)``.

    ``scope`` is the dotted in-file scope name (``Class.method``,
    ``outer.inner``) — the same naming :func:`extract_file_graph` uses, so
    ``f"{path}::{scope}"`` indexes straight into the program
    :class:`CallGraph`. Rules use this instead of ``ast.walk`` so each
    statement is attributed to its *innermost* enclosing function exactly
    once (see :func:`walk_in_scope`).
    """
    out: List[Tuple[str, ast.AST, Optional[str]]] = []
    stack: List[str] = []
    class_stack: List[str] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(child.name)
                out.append((".".join(stack),
                            child, class_stack[-1] if class_stack else None))
                visit(child)
                stack.pop()
            elif isinstance(child, ast.ClassDef):
                stack.append(child.name)
                class_stack.append(child.name)
                visit(child)
                class_stack.pop()
                stack.pop()
            else:
                visit(child)

    visit(tree)
    return out


def walk_in_scope(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root``'s subtree without descending into nested defs/classes.

    The root itself is yielded; nested function and class definitions are
    yielded as boundary markers but their bodies are skipped — they are
    their own scopes in :func:`iter_function_scopes`.
    """
    frontier: List[ast.AST] = [root]
    while frontier:
        node = frontier.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield child
                continue
            frontier.append(child)


class CallGraph:
    """Whole-program, name-resolved call graph with reachability queries."""

    def __init__(self) -> None:
        #: qual -> FunctionInfo for every known definition
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple name -> quals of every definition with that final name
        self._by_name: Dict[str, List[str]] = {}
        #: class name -> quals of that class's __init__ definitions
        self._ctor_by_class: Dict[str, List[str]] = {}
        #: every class name seen anywhere (for constructor-edge detection)
        self._class_names: Set[str] = set()
        #: caller qual -> [(callee simple name, kind)]
        self._raw_edges: Dict[str, List[Tuple[str, str]]] = {}
        self._resolved: Optional[Dict[str, List[Tuple[str, str]]]] = None
        self._reverse: Optional[Dict[str, List[Tuple[str, str]]]] = None

    # -- construction ------------------------------------------------------
    @classmethod
    def from_facts(cls, facts_by_path: Dict[str, Dict[str, Any]]) -> "CallGraph":
        """Merge per-file :func:`extract_file_graph` facts (sorted by path)."""
        graph = cls()
        for path in sorted(facts_by_path):
            graph.add_file(path, facts_by_path[path])
        return graph

    def add_file(self, path: str, facts: Dict[str, Any]) -> None:
        """Fold one file's extracted facts into the graph."""
        for entry in facts.get("functions", ()):
            scope = str(entry["scope"])
            qual = f"{path}::{scope}"
            cls_name = entry.get("cls")
            info = FunctionInfo(
                qual=qual, path=path, scope=scope, name=str(entry["name"]),
                cls=None if cls_name is None else str(cls_name),
                line=int(entry["line"]),
            )
            self.functions[qual] = info
            self._by_name.setdefault(info.name, []).append(qual)
        for class_name, init_scope in facts.get("classes", {}).items():
            self._class_names.add(str(class_name))
            if init_scope is not None:
                self._ctor_by_class.setdefault(str(class_name), []).append(
                    f"{path}::{init_scope}")
        for caller_scope, callee in facts.get("edges", ()):
            caller = f"{path}::{caller_scope}"
            kind = CTOR_EDGE if callee in facts.get("classes", {}) else CALL_EDGE
            self._raw_edges.setdefault(caller, []).append((str(callee), kind))
        self._resolved = None
        self._reverse = None

    # -- resolution --------------------------------------------------------
    def _resolve(self) -> Dict[str, List[Tuple[str, str]]]:
        """caller qual -> [(callee qual, kind)], names resolved program-wide."""
        if self._resolved is not None:
            return self._resolved
        resolved: Dict[str, List[Tuple[str, str]]] = {}
        for caller, targets in self._raw_edges.items():
            out: List[Tuple[str, str]] = []
            for callee, kind in targets:
                if callee in self._class_names or callee in self._ctor_by_class:
                    for qual in self._ctor_by_class.get(callee, ()):
                        out.append((qual, CTOR_EDGE))
                    continue
                for qual in self._by_name.get(callee, ()):
                    out.append((qual, kind))
            if out:
                resolved[caller] = out
        self._resolved = resolved
        return resolved

    def _reversed(self) -> Dict[str, List[Tuple[str, str]]]:
        if self._reverse is not None:
            return self._reverse
        reverse: Dict[str, List[Tuple[str, str]]] = {}
        for caller, targets in self._resolve().items():
            for callee, kind in targets:
                reverse.setdefault(callee, []).append((caller, kind))
        self._reverse = reverse
        return reverse

    # -- queries -----------------------------------------------------------
    def quals_named(self, name: str) -> Tuple[str, ...]:
        """Every definition whose simple name is ``name`` (sorted)."""
        return tuple(sorted(self._by_name.get(name, ())))

    def forward_reachable(self, roots: Iterable[str], *,
                          follow_ctor: bool = True) -> FrozenSet[str]:
        """Definitions reachable from ``roots`` (quals) along call edges.

        ``follow_ctor=False`` skips constructor edges, separating steady-
        state work from build-time work (the H3 hot-path query).
        """
        return self._bfs(roots, self._resolve(), follow_ctor=follow_ctor)

    def backward_reachable(self, targets: Iterable[str], *,
                           follow_ctor: bool = True) -> FrozenSet[str]:
        """Definitions from which some ``target`` is reachable (callers)."""
        return self._bfs(targets, self._reversed(), follow_ctor=follow_ctor)

    @staticmethod
    def _bfs(seeds: Iterable[str], edges: Dict[str, List[Tuple[str, str]]],
             *, follow_ctor: bool) -> FrozenSet[str]:
        seen: Set[str] = set()
        frontier: List[str] = sorted(set(seeds))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for neighbor, kind in edges.get(current, ()):
                if not follow_ctor and kind == CTOR_EDGE:
                    continue
                if neighbor not in seen:
                    frontier.append(neighbor)
        return frozenset(seen)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CallGraph(functions={len(self.functions)}, "
                f"callers={len(self._raw_edges)})")
