"""STATE: checkpoint completeness rules.

Checkpoint/resume exactness (PR 2) requires ``state_dict`` to capture
*every* piece of mutable state: a field that drifts after ``__init__``
but is skipped by the checkpoint diverges silently after resume.  For
each class defining the checkpoint protocol (``state_dict`` +
``load_state_dict``):

* every ``self.<attr>`` bound in ``__init__`` must be mentioned in one
  of the state methods or listed in the class-level ``_STATE_EXCLUDED``
  tuple of immutable-config attributes (STATE001);
* ``_STATE_EXCLUDED`` entries must still exist in ``__init__``, so the
  exclusion list cannot rot (STATE002).

A *mention* is any ``self.<attr>`` read or write inside the state
methods — serialisation shapes vary too much to demand a specific
pattern, and requiring a mention is what catches the forgotten-field
bug this rule exists for.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, checker, rule_spec
from repro.analysis.rules import (
    iter_functions,
    literal_str_seq,
    mentioned_self_attrs,
    plain_self_attr_assignments,
)

rule_spec(
    "STATE001",
    "__init__ attribute missing from state_dict and _STATE_EXCLUDED",
)
rule_spec("STATE002", "_STATE_EXCLUDED lists an attribute __init__ never assigns")

_STATE_METHODS = ("state_dict", "load_state_dict")
_EXCLUSION_LIST = "_STATE_EXCLUDED"


def _exclusion_list(cls: ast.ClassDef) -> tuple[tuple[str, ...], int] | None:
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == _EXCLUSION_LIST:
                value = stmt.value
                names = literal_str_seq(value) if value is not None else None
                return (names or (), stmt.lineno)
    return None


def _check_class(ctx: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
    methods = {func.name: func for func in iter_functions(cls.body)}
    if "state_dict" not in methods or "load_state_dict" not in methods:
        return
    init = methods.get("__init__")
    if init is None:
        return
    init_attrs = plain_self_attr_assignments(init)
    mentioned: set[str] = set()
    for name in _STATE_METHODS:
        func = methods.get(name)
        if func is not None:
            mentioned |= mentioned_self_attrs(func)
    exclusion = _exclusion_list(cls)
    excluded = exclusion[0] if exclusion else ()
    excluded_line = exclusion[1] if exclusion else cls.lineno
    for attr, lineno in sorted(init_attrs.items(), key=lambda kv: kv[1]):
        if attr in mentioned or attr in excluded:
            continue
        yield ctx.finding(
            "STATE001",
            lineno,
            f"`{cls.name}.__init__` binds `self.{attr}` but no state method "
            f"mentions it and {_EXCLUSION_LIST} does not list it",
            hint=(
                "serialise it in state_dict/load_state_dict, or add it to "
                f"{_EXCLUSION_LIST} if it is immutable configuration"
            ),
        )
    for attr in excluded:
        if attr not in init_attrs:
            yield ctx.finding(
                "STATE002",
                excluded_line,
                f"`{cls.name}.{_EXCLUSION_LIST}` lists `{attr}`, which "
                f"__init__ never assigns",
                hint="remove the stale entry",
            )


@checker
def check_state(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(ctx, node)
