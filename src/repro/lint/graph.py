"""Project symbol table and call graph (AST-only, never imports).

This is the cross-module core of CACHE001.  It indexes every function
and class in the walked tree, resolves call targets through four
progressively weaker mechanisms, and offers the two whole-program
fixpoints the rule needs: which functions run a chain stage, and which
of their parameters reach ``fingerprint()``.

Resolution levels, strongest first:

1. *Bare names* - ``helper()`` via module-level defs, nested defs in
   enclosing scopes, and ``from X import helper``.
2. *Methods on self* - ``self.m()`` through the enclosing class and its
   statically resolvable base classes.
3. *Module attributes* - ``pool.make()`` where ``pool`` is a project
   module bound by ``import``/``from .. import pool``.
4. *Annotation-assisted attributes* - ``self.pool.release()`` where
   ``__init__`` stored an annotated parameter (``pool: ChunkPool``),
   assigned a constructor result, or the class/dataclass body annotates
   the attribute.

Anything unresolved is silently dropped: the call graph is a
*may-call under-approximation* (no phantom edges), compensated in
CACHE001 by the key-carrier convention (see
:meth:`ProjectGraph.sink_reach`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .project import Project, SourceFile, module_relpath


def fn_key(relpath: str, qualname: str) -> str:
    return f"{relpath}::{qualname}"


@dataclass
class FunctionInfo:
    """One function or method definition in the walked tree."""

    key: str
    relpath: str
    qualname: str  # e.g. "ChunkPool._acquire" or "render"
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_key: Optional[str] = None  # "relpath::ClassName" for methods
    parent_key: Optional[str] = None  # enclosing function, for nested defs

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        ]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class CallSite:
    """One resolved call edge."""

    caller: str  # FunctionInfo key ("" for module-level code)
    callee: str  # FunctionInfo key
    call: ast.Call


@dataclass
class ClassInfo:
    """One class definition: methods, bases, attribute types."""

    key: str
    relpath: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn key
    base_names: List[str] = field(default_factory=list)
    #: attr name -> class key, from annotations / ctor assignments.
    attr_types: Dict[str, str] = field(default_factory=dict)


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_class_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """The single class identifier an annotation names, if any.

    ``ChunkPool`` and ``"ChunkPool"`` resolve; ``Optional[ChunkPool]``
    resolves through the subscript; unions/containers of several
    classes do not (ambiguous).
    """
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if text.isidentifier():
            return text
        try:
            node = ast.parse(text, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if head_name in {"Optional", "Final", "Annotated", "ClassVar"}:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_class_name(inner)
    return None


class ProjectGraph:
    """Symbol table + call graph over one parsed :class:`Project`."""

    def __init__(self, project: Project):
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module relpath -> {name -> fn key} (module-level defs)
        self._module_functions: Dict[str, Dict[str, str]] = {}
        #: module relpath -> {name -> class key} (module-level classes)
        self._module_classes: Dict[str, Dict[str, str]] = {}
        #: module relpath -> {bound name -> (target relpath, source name)}
        self._imported: Dict[str, Dict[str, Tuple[str, str]]] = {}
        #: module relpath -> {bound name -> module relpath} (module aliases)
        self._module_aliases: Dict[str, Dict[str, str]] = {}
        #: fn key -> {name -> fn key} for immediately nested defs
        self._nested: Dict[str, Dict[str, str]] = {}
        self._out: Dict[str, List[CallSite]] = {}

        for relpath, sf in sorted(project.files.items()):
            self._index_module(relpath, sf)
        for relpath in sorted(project.files):
            self._infer_attr_types(relpath)
        for relpath in sorted(project.files):
            self._build_edges(relpath)

    # -- indexing ----------------------------------------------------------

    def _index_module(self, relpath: str, sf: SourceFile) -> None:
        self._module_functions[relpath] = {}
        self._module_classes[relpath] = {}
        self._imported[relpath] = dict(self.project.imported_names(sf))
        self._module_aliases[relpath] = self._collect_module_aliases(
            relpath, sf
        )
        self._index_body(relpath, sf.tree.body, qual="", class_info=None,
                         parent_fn=None)

    def _collect_module_aliases(
        self, relpath: str, sf: SourceFile
    ) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        files = self.project.files
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name.replace(".", "/") + ".py"
                    if target in files:
                        aliases[alias.asname or alias.name] = target
            elif isinstance(node, ast.ImportFrom):
                # ``from pkg import mod`` / ``from . import mod`` where
                # mod is a project module (not a symbol).
                pkg = module_relpath(relpath, node.module, node.level)
                if pkg is None:
                    continue
                pkg_dir = pkg[: -len(".py")]
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    for candidate in (
                        f"{pkg_dir}/{alias.name}.py",
                        f"{pkg_dir}/{alias.name}/__init__.py",
                    ):
                        if candidate in files:
                            aliases[alias.asname or alias.name] = candidate
                            break
        return aliases

    def _index_body(
        self,
        relpath: str,
        body: Sequence[ast.stmt],
        qual: str,
        class_info: Optional[ClassInfo],
        parent_fn: Optional[str],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{qual}{stmt.name}"
                key = fn_key(relpath, qualname)
                info = FunctionInfo(
                    key=key,
                    relpath=relpath,
                    qualname=qualname,
                    name=stmt.name,
                    node=stmt,
                    class_key=class_info.key if class_info else None,
                    parent_key=parent_fn,
                )
                self.functions[key] = info
                if class_info is not None:
                    class_info.methods[stmt.name] = key
                elif parent_fn is not None:
                    self._nested.setdefault(parent_fn, {})[stmt.name] = key
                else:
                    self._module_functions[relpath][stmt.name] = key
                self._index_body(
                    relpath, stmt.body, qual=f"{qualname}.",
                    class_info=None, parent_fn=key,
                )
            elif isinstance(stmt, ast.ClassDef):
                ckey = fn_key(relpath, f"{qual}{stmt.name}")
                cinfo = ClassInfo(
                    key=ckey, relpath=relpath, name=stmt.name, node=stmt
                )
                for base in stmt.bases:
                    name = _dotted(base)
                    if name is not None:
                        cinfo.base_names.append(name)
                self.classes[ckey] = cinfo
                if not qual and parent_fn is None:
                    self._module_classes[relpath][stmt.name] = ckey
                self._index_body(
                    relpath, stmt.body, qual=f"{qual}{stmt.name}.",
                    class_info=cinfo, parent_fn=parent_fn,
                )
            elif isinstance(stmt, (ast.If, ast.Try)):
                # Defs under conditional imports / try blocks still count.
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        self._index_body(
                            relpath, [sub], qual, class_info, parent_fn
                        )

    # -- symbol resolution -------------------------------------------------

    def resolve_class(
        self, relpath: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[ClassInfo]:
        """Class ``name`` as visible from ``relpath`` (follows imports)."""
        local = self._module_classes.get(relpath, {})
        if name in local:
            return self.classes[local[name]]
        seen = _seen or set()
        marker = f"{relpath}:{name}"
        if marker in seen:
            return None
        seen.add(marker)
        imported = self._imported.get(relpath, {})
        if name in imported:
            target, source = imported[name]
            return self.resolve_class(target, source, seen)
        return None

    def resolve_function(
        self, relpath: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Module-level function ``name`` visible from ``relpath``."""
        local = self._module_functions.get(relpath, {})
        if name in local:
            return local[name]
        seen = _seen or set()
        marker = f"{relpath}:{name}"
        if marker in seen:
            return None
        seen.add(marker)
        imported = self._imported.get(relpath, {})
        if name in imported:
            target, source = imported[name]
            return self.resolve_function(target, source, seen)
        return None

    def resolve_method(
        self, cinfo: ClassInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Method lookup through the statically resolvable base chain."""
        if name in cinfo.methods:
            return cinfo.methods[name]
        seen = _seen or set()
        if cinfo.key in seen:
            return None
        seen.add(cinfo.key)
        for base_name in cinfo.base_names:
            tail = base_name.rsplit(".", 1)[-1]
            base = self.resolve_class(cinfo.relpath, tail)
            if base is not None:
                found = self.resolve_method(base, name, seen)
                if found is not None:
                    return found
        return None

    # -- attribute types ---------------------------------------------------

    def _infer_attr_types(self, relpath: str) -> None:
        for cinfo in self.classes.values():
            if cinfo.relpath != relpath:
                continue
            # Class-body annotations (dataclass fields and plain).
            for stmt in cinfo.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    cname = _annotation_class_name(stmt.annotation)
                    if cname:
                        target = self.resolve_class(relpath, cname)
                        if target is not None:
                            cinfo.attr_types[stmt.target.id] = target.key
            # ``self.X = ...`` inside methods.
            for method_key in cinfo.methods.values():
                fn = self.functions[method_key]
                ann: Dict[str, Optional[str]] = {}
                args = fn.node.args
                for a in args.posonlyargs + args.args + args.kwonlyargs:
                    ann[a.arg] = _annotation_class_name(a.annotation)
                for node in ast.walk(fn.node):
                    targets: List[ast.expr] = []
                    value: Optional[ast.expr] = None
                    annotation: Optional[ast.AST] = None
                    if isinstance(node, ast.Assign):
                        targets, value = node.targets, node.value
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                        value, annotation = node.value, node.annotation
                    else:
                        continue
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        cname: Optional[str] = None
                        if annotation is not None:
                            cname = _annotation_class_name(annotation)
                        if cname is None and isinstance(value, ast.Name):
                            cname = ann.get(value.id)
                        if cname is None and isinstance(value, ast.Call):
                            callee = _dotted(value.func)
                            if callee is not None:
                                cname = callee.rsplit(".", 1)[-1]
                        if cname is None:
                            continue
                        resolved = self.resolve_class(relpath, cname)
                        if resolved is not None:
                            cinfo.attr_types.setdefault(
                                target.attr, resolved.key
                            )

    # -- call-edge construction --------------------------------------------

    def _local_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """name -> class key, from annotations and constructor assigns."""
        types: Dict[str, str] = {}
        relpath = fn.relpath
        if fn.class_key is not None:
            types["self"] = fn.class_key
        args = fn.node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            cname = _annotation_class_name(a.annotation)
            if cname:
                cinfo = self.resolve_class(relpath, cname)
                if cinfo is not None:
                    types[a.arg] = cinfo.key
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cname = _annotation_class_name(node.annotation)
                if cname:
                    cinfo = self.resolve_class(relpath, cname)
                    if cinfo is not None:
                        types[node.target.id] = cinfo.key
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                callee = _dotted(node.value.func)
                if callee is None:
                    continue
                cinfo = self.resolve_class(relpath, callee.rsplit(".", 1)[-1])
                if cinfo is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = cinfo.key
        return types

    def _expr_type(
        self, expr: ast.AST, types: Dict[str, str]
    ) -> Optional[str]:
        """Class key of an expression, via vars and one attribute hop."""
        if isinstance(expr, ast.Name):
            return types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value, types)
            if base is not None and base in self.classes:
                return self.classes[base].attr_types.get(expr.attr)
        return None

    def resolve_call(
        self,
        relpath: str,
        call: ast.Call,
        scope: Optional[FunctionInfo] = None,
        types: Optional[Dict[str, str]] = None,
    ) -> List[str]:
        """FunctionInfo keys a call expression may target (0 or 1 today)."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            # Nested defs in enclosing function scopes win first.
            walk = scope
            while walk is not None:
                nested = self._nested.get(walk.key, {})
                if name in nested:
                    return [nested[name]]
                walk = (
                    self.functions.get(walk.parent_key)
                    if walk.parent_key
                    else None
                )
            found = self.resolve_function(relpath, name)
            if found is not None:
                return [found]
            cinfo = self.resolve_class(relpath, name)
            if cinfo is not None:
                init = self.resolve_method(cinfo, "__init__")
                return [init] if init is not None else []
            return []
        if isinstance(func, ast.Attribute):
            # Level 3: module-attribute call via import alias.
            base_dotted = _dotted(func.value)
            if base_dotted is not None:
                aliases = self._module_aliases.get(relpath, {})
                target_mod = aliases.get(base_dotted)
                if target_mod is not None:
                    found = self._module_functions.get(target_mod, {}).get(
                        func.attr
                    )
                    if found is not None:
                        return [found]
                    ckey = self._module_classes.get(target_mod, {}).get(
                        func.attr
                    )
                    if ckey is not None:
                        init = self.resolve_method(
                            self.classes[ckey], "__init__"
                        )
                        return [init] if init is not None else []
            # Levels 2/4: typed receiver.
            if types is not None:
                receiver = self._expr_type(func.value, types)
                if receiver is not None and receiver in self.classes:
                    found = self.resolve_method(
                        self.classes[receiver], func.attr
                    )
                    if found is not None:
                        return [found]
        return []

    def _build_edges(self, relpath: str) -> None:
        sf = self.project.files[relpath]
        # Calls at module level (caller "") plus per-function bodies.
        owner: Dict[int, Optional[FunctionInfo]] = {}

        def assign_owner(
            node: ast.AST, current: Optional[FunctionInfo]
        ) -> None:
            owner[id(node)] = current
            nxt = current
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for info in self.functions.values():
                    if info.node is node:
                        nxt = info
                        break
            for child in ast.iter_child_nodes(node):
                assign_owner(child, nxt)

        assign_owner(sf.tree, None)
        type_cache: Dict[str, Dict[str, str]] = {}
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            scope = owner.get(id(node))
            if scope is not None:
                if scope.key not in type_cache:
                    type_cache[scope.key] = self._local_types(scope)
                types = type_cache[scope.key]
            else:
                types = {}
            for callee in self.resolve_call(relpath, node, scope, types):
                site = CallSite(
                    caller=scope.key if scope else "",
                    callee=callee,
                    call=node,
                )
                self._out.setdefault(site.caller, []).append(site)

    # -- queries -----------------------------------------------------------

    def callees(self, key: str) -> List[CallSite]:
        return self._out.get(key, [])

    def qualchain(self, chain: Sequence[str]) -> List[str]:
        """Render a key chain as ``module:qualname`` steps for reports."""
        out: List[str] = []
        for key in chain:
            info = self.functions.get(key)
            if info is None:
                out.append(key)
            else:
                out.append(f"{info.relpath}:{info.qualname}")
        return out

    # -- whole-program fixpoints -------------------------------------------

    def stage_runner_keys(self, stage_name: str = "stage") -> Set[str]:
        """Functions that (transitively, cross-module) execute a stage.

        A function is a runner when its body contains a bare
        ``stage(...)`` call (including inside nested defs - the nested
        closure runs on the caller's behalf) or calls another runner
        through any resolved edge.
        """
        runners: Set[str] = set()
        for key, info in self.functions.items():
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == stage_name
                ):
                    runners.add(key)
                    break
        changed = True
        while changed:
            changed = False
            for key in list(self.functions):
                if key in runners:
                    continue
                for site in self.callees(key):
                    if site.callee in runners:
                        runners.add(key)
                        changed = True
                        break
        return runners

    def sink_reach(
        self,
        sink_name: str = "fingerprint",
        key_carrier_attrs: Sequence[str] = (),
    ) -> Dict[str, Set[str]]:
        """Per function: local names that (transitively) reach the sink.

        A name reaches when it

        * appears inside an argument of a ``sink_name(...)`` call,
        * is the base of an attribute access naming a *key carrier*
          (``req.keys`` - an attribute that holds an already-computed
          cache key, so reaching it is reaching the key), or
        * flows into a resolved callee parameter that itself reaches,

        with backward closure through local assignments, ``for``
        targets, ``with`` bindings, and comprehension targets.  Filter
        against :attr:`FunctionInfo.params` for parameter coverage.
        """
        carriers = set(key_carrier_attrs)
        reach: Dict[str, Set[str]] = {key: set() for key in self.functions}

        def direct_seed(info: FunctionInfo) -> Set[str]:
            seeds: Set[str] = set()
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == sink_name
                ):
                    for arg in node.args:
                        seeds |= _names_in(arg)
                    for kw in node.keywords:
                        seeds |= _names_in(kw.value)
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr in carriers
                ):
                    seeds |= _names_in(node.value)
            return seeds

        def close_locally(info: FunctionInfo, live: Set[str]) -> Set[str]:
            """Backward closure through local data flow, to fixpoint."""
            changed = True
            while changed:
                changed = False
                for node in ast.walk(info.node):
                    sources: Optional[ast.AST] = None
                    bound: Set[str] = set()
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            bound |= _names_in(target)
                        sources = node.value
                    elif (
                        isinstance(node, ast.AnnAssign)
                        and node.value is not None
                    ):
                        bound = _names_in(node.target)
                        sources = node.value
                    elif isinstance(node, ast.AugAssign):
                        bound = _names_in(node.target)
                        sources = node.value
                    elif isinstance(node, (ast.For, ast.AsyncFor)):
                        bound = _names_in(node.target)
                        sources = node.iter
                    elif isinstance(node, ast.comprehension):
                        bound = _names_in(node.target)
                        sources = node.iter
                    elif isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            if item.optional_vars is not None:
                                if _names_in(item.optional_vars) & live:
                                    extra = _names_in(item.context_expr)
                                    if extra - live:
                                        live |= extra
                                        changed = True
                        continue
                    else:
                        continue
                    if sources is not None and bound & live:
                        extra = _names_in(sources)
                        if extra - live:
                            live |= extra
                            changed = True
            return live

        # Seed + close each function once, then iterate the cross-call
        # propagation to a global fixpoint.
        for key, info in self.functions.items():
            reach[key] = close_locally(info, direct_seed(info))
        changed = True
        while changed:
            changed = False
            for key, info in self.functions.items():
                before = len(reach[key])
                live = reach[key]
                for site in self.callees(key):
                    callee = self.functions[site.callee]
                    callee_reach = reach[site.callee] & set(callee.params)
                    if not callee_reach:
                        continue
                    for expr, param in map_call_args(site.call, callee):
                        if param in callee_reach:
                            live |= _names_in(expr)
                if len(live) != before:
                    reach[key] = close_locally(info, live)
                    changed = True
        return reach


def map_call_args(
    call: ast.Call, callee: FunctionInfo
) -> List[Tuple[ast.AST, str]]:
    """Pair argument expressions with the callee parameters they bind.

    Skips the implicit ``self``/``cls`` slot for method and constructor
    calls (any call whose callee is a method and whose syntax is not a
    direct ``Class.method(instance, ...)`` - the common cases the lint
    rules meet are ``obj.m(...)`` and ``Class(...)``).
    """
    args = callee.node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if callee.class_key is not None and positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    pairs: List[Tuple[ast.AST, str]] = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        if index < len(positional):
            pairs.append((arg, positional[index]))
    valid = set(callee.params)
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in valid:
            pairs.append((keyword.value, keyword.arg))
    return pairs


def project_graph(project: Project) -> ProjectGraph:
    """Build (and memoize on the project) the call graph.

    ``Project`` instances are created fresh per lint run, so caching on
    the instance is safe and lets every project-level rule share one
    graph without changing the :class:`~.rules.base.Rule` protocol.
    """
    graph = getattr(project, "_graph", None)
    if graph is None or graph.project is not project:
        graph = ProjectGraph(project)
        project._graph = graph  # type: ignore[attr-defined]
    return graph
