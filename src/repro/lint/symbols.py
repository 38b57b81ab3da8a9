"""Per-file symbol extraction: phase 1 of the whole-program analysis.

Each file is summarized *once* into a plain-JSON dict — functions with
their call edges and taint sources; classes with their
serialization/merge surface; locally decidable findings; and the
checks that must wait for the cross-module link.
Summarizing a file never looks at any other file;
:mod:`repro.lint.callgraph` links the summaries.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional

from .asthelpers import dotted_name, imported_names
from .roundtrip import analyze_class_roundtrip
from .taint import ModuleTaintAnalysis

#: Attribute-call names never worth a cross-module lookup: ubiquitous
#: stdlib/numpy surface that would bloat every function's edge list.
_BORING_METHODS = {
    "append", "extend", "add", "get", "items", "keys", "values", "pop",
    "update", "join", "split", "strip", "sort", "copy", "astype",
    "tolist", "format", "write", "read", "sum", "mean", "max", "min",
    "setdefault", "startswith", "endswith", "lower", "upper", "index",
    "count", "insert", "remove", "clear", "reshape", "flatten",
}


class CallResolver:
    """Classify call sites against the module's import table."""

    def __init__(self, module: str, tree: ast.Module) -> None:
        self.module = module
        self.origins = imported_names(tree)
        self.local_functions = {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        self.local_classes = {node.name for node in tree.body
                              if isinstance(node, ast.ClassDef)}
        self.current_class: Optional[str] = None

    def qualify(self, name: str) -> str:
        head, _, rest = name.partition(".")
        origin = self.origins.get(head)
        if origin is None:
            return name
        return origin + ("." + rest if rest else "")

    def call_ref(self, call: ast.Call) -> Optional[str]:
        """The qualified reference a call site targets, if any."""
        name = dotted_name(call.func)
        if name is None:
            return None
        if name.startswith("self.") and self.current_class is not None:
            parts = name.split(".")
            if len(parts) == 2:
                return f"{self.module}.{self.current_class}.{parts[1]}"
            return None
        qualified = self.qualify(name)
        if qualified.startswith("repro.units."):
            return None  # pure conversions: no edge worth linking
        if qualified.startswith("repro."):
            return qualified
        if "." not in name:
            if name in self.local_functions or name in self.local_classes:
                return f"{self.module}.{name}"
            return None
        # Unresolvable receiver: fall back to unique-method lookup.
        short = name.rsplit(".", 1)[1]
        if short.startswith("__") or short in _BORING_METHODS:
            return None
        return f"~{short}"

    def resolve_class_ref(self, name: str) -> Optional[str]:
        qualified = self.qualify(name)
        if qualified.startswith("repro."):
            return qualified
        if name in self.local_classes:
            return f"{self.module}.{name}"
        return None


def _field_types(classdef: ast.ClassDef) -> Dict[str, str]:
    types: Dict[str, str] = {}
    for node in classdef.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            types[node.target.id] = ast.unparse(node.annotation)
    return types


class _ModuleExtractor:
    """Walk one module and fill the summary dict."""

    def __init__(self, tree: ast.Module, module: str,
                 lines: List[str]) -> None:
        self.tree = tree
        self.module = module
        self.lines = lines
        self.resolver = CallResolver(module, tree)
        self.taint = ModuleTaintAnalysis(
            module, lines, self.resolver.qualify,
            self.resolver.resolve_class_ref)
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.findings: List[Dict[str, Any]] = []

    def extract(self) -> Dict[str, Any]:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(node, None)
            elif isinstance(node, ast.ClassDef):
                self._class(node)
        self.findings.extend(self.taint.local)
        self.findings.sort(key=lambda f: (f["line"], f["col"], f["rule"]))
        return {
            "module": self.module,
            "functions": self.functions,
            "classes": self.classes,
            "findings": self.findings,
            "sink_writes": self.taint.sink_writes,
        }

    def _class(self, classdef: ast.ClassDef) -> None:
        method_names = {node.name for node in classdef.body
                        if isinstance(node, ast.FunctionDef)}
        qualref = f"{self.module}.{classdef.name}"
        self.classes[classdef.name] = {
            "qualref": qualref,
            "has_to_jsonable": "to_jsonable" in method_names,
            "has_merge": "merge" in method_names,
            "is_result": classdef.name.endswith("Result"),
        }
        self.findings.extend(
            analyze_class_roundtrip(classdef, self.lines))
        self.taint.check_mergeable_accumulation(
            classdef, _field_types(classdef))
        self.resolver.current_class = classdef.name
        try:
            for node in classdef.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self._function(node, classdef.name)
        finally:
            self.resolver.current_class = None

    def _function(self, func: ast.AST, classname: Optional[str]) -> None:
        qualref = (f"{self.module}.{classname}.{func.name}" if classname
                   else f"{self.module}.{func.name}")
        sources = self.taint.find_sources(func)
        self.taint.check_set_iteration(func)
        refs = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                ref = self.resolver.call_ref(node)
                if ref is not None:
                    refs.add(ref)
        self._sink_writes(func, classname)
        self.functions[qualref] = {
            "name": func.name,
            "class": classname,
            "calls": sorted(refs),
            "sources": sources,
        }

    def _sink_writes(self, func: ast.AST,
                     classname: Optional[str]) -> None:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and classname is not None:
                value = node.value
                if value is None:
                    continue
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        self.taint.record_sink_write(
                            node, f"{self.module}.{classname}",
                            target.attr, value, self.resolver.call_ref)
            elif isinstance(node, ast.Call) and node.keywords:
                name = dotted_name(node.func)
                if name is None:
                    continue
                class_ref = self.resolver.resolve_class_ref(name)
                if class_ref is None:
                    continue
                short = class_ref.rsplit(".", 1)[1]
                if not short[:1].isupper():
                    continue  # only constructor-looking callees
                for keyword in node.keywords:
                    if keyword.arg is None:
                        continue
                    self.taint.record_sink_write(
                        node, class_ref, keyword.arg, keyword.value,
                        self.resolver.call_ref)


def extract_summary(tree: ast.Module, module: str,
                    lines: List[str]) -> Dict[str, Any]:
    """Phase-1 product for one file: a plain-JSON module summary."""
    return _ModuleExtractor(tree, module, lines).extract()
