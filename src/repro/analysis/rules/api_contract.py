"""API: spec/wire contract consistency rule.

* API001 — error field paths must be real.  The HTTP service relays
  :attr:`SpecError.field` verbatim so clients can highlight the
  offending entry of a spec document; a typo'd path points users at a
  field that does not exist.  A nested config's own error (e.g.
  ``GuidanceError(..., field="damping")``) becomes part of that path.
  For every ``SomeError(..., field="<literal>")`` raised inside a method
  of a dataclass, the first dotted segment (with any ``[...]`` subscript
  stripped) must name a field of that dataclass.
  Computed field paths (f-strings, variables, ``with_prefix`` chains)
  are out of static reach and are skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, checker, rule_spec
from repro.analysis.rules import decorator_call, iter_functions, literal_str

rule_spec("API001", "error field path does not name a dataclass field")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        resolved = decorator_call(decorator)
        if resolved is not None and resolved[0] == "dataclass":
            return True
    return False


def _dataclass_fields(cls: ast.ClassDef) -> set[str]:
    fields: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.add(stmt.target.id)
    return fields


def _error_field(call: ast.Call) -> tuple[str, ast.expr] | None:
    """The literal ``field=`` value of a ``...Error(...)`` call, if any.

    Only :class:`SpecError` takes the field as its second positional
    argument; other errors take it by keyword.
    """
    func_name = None
    if isinstance(call.func, ast.Name):
        func_name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        func_name = call.func.attr
    if func_name is None or not func_name.endswith("Error"):
        return None
    for kw in call.keywords:
        if kw.arg == "field":
            value = literal_str(kw.value)
            if value is not None:
                return value, kw.value
            return None
    if func_name == "SpecError" and len(call.args) >= 2:
        value = literal_str(call.args[1])
        if value is not None:
            return value, call.args[1]
    return None


def _first_segment(field_path: str) -> str:
    head = field_path.split(".", 1)[0]
    return head.split("[", 1)[0]


def _check_dataclass(ctx: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
    fields = _dataclass_fields(cls)
    for func in iter_functions(cls.body):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            resolved = _error_field(node)
            if resolved is None:
                continue
            field_path, _ = resolved
            head = _first_segment(field_path)
            if head and head not in fields:
                yield ctx.finding(
                    "API001",
                    node,
                    f"error field path {field_path!r} does not start "
                    f"with a field of `{cls.name}` "
                    f"(fields: {', '.join(sorted(fields))})",
                    hint=(
                        "fix the path, or raise from the owning spec and "
                        "compose paths with SpecError.with_prefix"
                    ),
                )


@checker
def check_api(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            yield from _check_dataclass(ctx, node)
