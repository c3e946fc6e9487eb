"""DET: determinism rules — no ambient randomness, clocks, or set order.

Reproducibility in this framework means bit-for-bit: the same spec and
seed must produce the same Gibbs chain, the same guidance ranking, the
same checkpoint bytes.  Ambient entropy — the process-global RNGs, the
wall clock, the iteration order of hash sets — breaks that silently.
All randomness must arrive through :mod:`repro.utils.rng` generators.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, checker, rule_spec
from repro.analysis.rules import dotted_name

rule_spec("DET001", "call into the process-global `random` module")
rule_spec("DET002", "use of the global `numpy.random` namespace")
rule_spec("DET003", "wall-clock read (`time.time` / `datetime.now`)")
rule_spec("DET004", "iteration over an unordered set")

# Instance-producing names are fine to import from `random`; everything
# else on the module draws from the process-global generator.
_RANDOM_SAFE_IMPORTS = {"Random", "SystemRandom"}

_WALL_CLOCK_TIME = {"time", "time_ns"}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}


class _ImportInfo:
    def __init__(self, tree: ast.Module) -> None:
        self.random_aliases: set[str] = set()
        self.numpy_aliases: set[str] = set()
        self.numpy_random_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.datetime_aliases: set[str] = set()
        self.datetime_class_aliases: set[str] = set()
        self.bare_clock_names: set[str] = set()
        self.from_random: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_aliases.add(bound)
                    elif alias.name == "numpy" or alias.name.startswith("numpy."):
                        if alias.name == "numpy.random" and alias.asname:
                            self.numpy_random_aliases.add(alias.asname)
                        else:
                            self.numpy_aliases.add(bound)
                    elif alias.name == "time":
                        self.time_aliases.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _RANDOM_SAFE_IMPORTS:
                            self.from_random[alias.asname or alias.name] = node.lineno
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random_aliases.add(alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME:
                            self.bare_clock_names.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name == "datetime":
                            self.datetime_class_aliases.add(alias.asname or alias.name)


def _is_numpy_random(name: str, imports: _ImportInfo) -> bool:
    parts = name.split(".")
    if parts[0] in imports.numpy_random_aliases:
        return True
    return (
        len(parts) >= 2
        and parts[0] in imports.numpy_aliases
        and parts[1] == "random"
    )


def _iter_target_is_bare_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


@checker
def check_det(ctx: ModuleContext) -> Iterator[Finding]:
    imports = _ImportInfo(ctx.tree)
    for lineno in set(imports.from_random.values()) - {0}:
        yield ctx.finding(
            "DET001",
            lineno,
            "importing draw functions from the global `random` module",
            hint="thread a Generator from repro.utils.rng.ensure_rng instead",
        )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 1 and name in imports.bare_clock_names:
                yield ctx.finding(
                    "DET003",
                    node,
                    f"wall-clock read `{name}()`",
                    hint=(
                        "use time.perf_counter for durations; pass "
                        "timestamps in as data"
                    ),
                )
            elif len(parts) >= 2 and parts[0] in imports.random_aliases:
                yield ctx.finding(
                    "DET001",
                    node,
                    f"call to global-RNG function `{name}()`",
                    hint="thread a Generator from repro.utils.rng.ensure_rng instead",
                )
            elif _is_numpy_random(name, imports):
                yield ctx.finding(
                    "DET002",
                    node,
                    f"use of the global numpy.random namespace: `{name}()`",
                    hint=(
                        "obtain generators via repro.utils.rng "
                        "(ensure_rng / derive_rng / spawn_rngs)"
                    ),
                )
            elif (
                len(parts) == 2
                and parts[0] in imports.time_aliases
                and parts[1] in _WALL_CLOCK_TIME
            ):
                yield ctx.finding(
                    "DET003",
                    node,
                    f"wall-clock read `{name}()`",
                    hint=(
                        "use time.perf_counter for durations; pass "
                        "timestamps in as data"
                    ),
                )
            elif parts[-1] in _WALL_CLOCK_DATETIME and (
                parts[0] in imports.datetime_class_aliases
                or (len(parts) >= 2 and parts[0] in imports.datetime_aliases)
            ):
                yield ctx.finding(
                    "DET003",
                    node,
                    f"wall-clock read `{name}()`",
                    hint="pass timestamps in as data instead of reading the clock",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _iter_target_is_bare_set(node.iter):
                yield ctx.finding(
                    "DET004",
                    node,
                    "iteration over an unordered set",
                    hint="wrap in sorted(...) to fix the traversal order",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                if _iter_target_is_bare_set(comp.iter):
                    yield ctx.finding(
                        "DET004",
                        comp.iter,
                        "comprehension iterates over an unordered set",
                        hint="wrap in sorted(...) to fix the traversal order",
                    )
