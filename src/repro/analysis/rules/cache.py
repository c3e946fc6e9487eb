"""CACHE: derived-cache coherence rules.

The hot-path classes (``FactDatabase``, ``CliqueFeaturizer``,
``CrfModel``, ``SpeculativeEngine``) memoise derived structures — clique
views, CSR design matrices, engine gather tables — over mutable backing
arrays.  PR 6's incremental growth made it easy to write a new mutator
and forget the paired invalidation, which corrupts results only when a
stale cache happens to be consulted.  These rules make the pairing a
checked contract:

* the accessor declares the cache with
  ``@derived_cache(name, backing=..., hook=..., storage=...)``;
* every method that writes a backing field must carry
  ``@mutates(name)`` (CACHE001);
* every ``@mutates(name)`` method must discharge its obligation by
  calling the cache's hook or assigning its storage slot (CACHE002);
* ``@mutates`` may only name declared caches (CACHE003).

``__init__``, the accessor, and the hook are exempt from CACHE001: the
first runs before any cache exists, the latter two *are* the cache.

Known limitation: mutation through method calls on a backing field
(``self._labels.update(...)``) is invisible to the assignment scan;
mutate via assignment or declare ``@mutates`` explicitly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, checker, rule_spec
from repro.analysis.rules import (
    assigned_self_attrs,
    decorator_call,
    iter_functions,
    literal_str,
    literal_str_seq,
    self_method_calls,
)

rule_spec(
    "CACHE001",
    "method mutates a cache's backing field without declaring @mutates",
)
rule_spec(
    "CACHE002",
    "@mutates method neither calls the cache hook nor assigns its storage",
)
rule_spec("CACHE003", "@mutates names a cache not declared on this class")


@dataclass
class _CacheDecl:
    name: str
    accessor: str
    backing: tuple[str, ...] = ()
    hook: str | None = None
    storage: str | None = None


@dataclass
class _ClassContracts:
    caches: dict[str, _CacheDecl] = field(default_factory=dict)
    mutates: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    hooks: set[str] = field(default_factory=set)
    accessors: set[str] = field(default_factory=set)

    @property
    def backing_map(self) -> dict[str, list[_CacheDecl]]:
        mapping: dict[str, list[_CacheDecl]] = {}
        for decl in self.caches.values():
            for attr in decl.backing:
                mapping.setdefault(attr, []).append(decl)
        return mapping


def _collect_contracts(cls: ast.ClassDef) -> _ClassContracts:
    contracts = _ClassContracts()
    for func in iter_functions(cls.body):
        for decorator in func.decorator_list:
            resolved = decorator_call(decorator)
            if resolved is None:
                continue
            name, call = resolved
            if call is None:
                continue
            if name == "derived_cache":
                decl = _parse_derived_cache(call, func.name)
                if decl is not None:
                    contracts.caches[decl.name] = decl
                    contracts.accessors.add(func.name)
                    if decl.hook:
                        contracts.hooks.add(decl.hook)
            elif name == "mutates":
                for arg in call.args:
                    cache_name = literal_str(arg)
                    if cache_name is not None:
                        contracts.mutates.setdefault(func.name, []).append(
                            (cache_name, decorator.lineno)
                        )
    return contracts


def _parse_derived_cache(call: ast.Call, accessor: str) -> _CacheDecl | None:
    if not call.args:
        return None
    name = literal_str(call.args[0])
    if name is None:
        return None
    decl = _CacheDecl(name=name, accessor=accessor)
    for kw in call.keywords:
        if kw.arg == "backing":
            decl.backing = literal_str_seq(kw.value) or ()
        elif kw.arg == "hook":
            decl.hook = literal_str(kw.value)
        elif kw.arg == "storage":
            decl.storage = literal_str(kw.value)
    return decl


def _check_class(ctx: ModuleContext, cls: ast.ClassDef) -> Iterator[Finding]:
    contracts = _collect_contracts(cls)
    if not contracts.caches and not contracts.mutates:
        return
    backing_map = contracts.backing_map
    storage_attrs = {
        decl.storage: decl.name for decl in contracts.caches.values() if decl.storage
    }
    for func in iter_functions(cls.body):
        declared = {name for name, _ in contracts.mutates.get(func.name, [])}
        # CACHE003: undeclared cache names.
        for cache_name, lineno in contracts.mutates.get(func.name, []):
            if cache_name not in contracts.caches:
                yield ctx.finding(
                    "CACHE003",
                    lineno,
                    f"@mutates({cache_name!r}) on `{cls.name}.{func.name}` "
                    f"names a cache not declared via @derived_cache",
                    hint="declare the cache on its accessor or fix the name",
                )
        written = assigned_self_attrs(func)
        calls = self_method_calls(func)
        exempt_from_cache001 = (
            func.name == "__init__"
            or func.name in contracts.hooks
            or func.name in contracts.accessors
        )
        # CACHE001: backing-field writes require a declaration.
        if not exempt_from_cache001:
            for attr, lineno in sorted(written.items(), key=lambda kv: kv[1]):
                for decl in backing_map.get(attr, []):
                    if decl.name in declared:
                        continue
                    if attr == decl.storage:
                        continue
                    yield ctx.finding(
                        "CACHE001",
                        lineno,
                        f"`{cls.name}.{func.name}` writes `self.{attr}`, a "
                        f"backing field of cache {decl.name!r}, without "
                        f"@mutates({decl.name!r})",
                        hint=(
                            f"decorate with @mutates({decl.name!r}) and "
                            f"invalidate via "
                            f"{decl.hook or decl.storage or 'the cache hook'}"
                        ),
                    )
        # CACHE002: declared mutators must discharge the obligation.
        for cache_name, lineno in contracts.mutates.get(func.name, []):
            decl = contracts.caches.get(cache_name)
            if decl is None:
                continue  # already CACHE003
            discharged = (decl.hook is not None and decl.hook in calls) or (
                decl.storage is not None and decl.storage in written
            )
            if not discharged:
                options = []
                if decl.hook:
                    options.append(f"call self.{decl.hook}()")
                if decl.storage:
                    options.append(f"assign self.{decl.storage}")
                yield ctx.finding(
                    "CACHE002",
                    lineno,
                    f"`{cls.name}.{func.name}` declares @mutates({cache_name!r}) "
                    f"but never invalidates or patches the cache",
                    hint=" or ".join(options) or "declare a hook/storage on the cache",
                )


@checker
def check_cache(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(ctx, node)
