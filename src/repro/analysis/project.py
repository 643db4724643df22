"""Project-wide lint rules spanning multiple source files.

REP004, the only project rule, audits fault-site completeness across
the whole tree:

- every :class:`FaultSite` enum member must be wired to at least one
  ``injector.check(FaultSite.X)`` call site, and
- every ``FaultSite.X`` attribute reference anywhere must name a real
  member (catching stale references after a site is renamed).

A site enum member with no ``check()`` call is dead configuration: a
``--faults`` spec naming it parses fine but can never fire, which is a
silent hole in fault-coverage experiments.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .findings import Finding
from .rules import ModuleContext

SITES_FILE_SUFFIX = "faults/sites.py"
"""Module defining the FaultSite enum."""

ENUM_NAME = "FaultSite"


def _sites_module(modules: Iterable[ModuleContext]) -> Optional[ModuleContext]:
    for ctx in modules:
        if ctx.relpath.replace("\\", "/").endswith(SITES_FILE_SUFFIX):
            return ctx
    return None


def _enum_members(ctx: ModuleContext) -> dict[str, int]:
    """FaultSite member name → definition line."""
    members: dict[str, int] = {}
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == ENUM_NAME:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and not target.id.startswith(
                            "_"
                        ):
                            members[target.id] = stmt.lineno
    return members


def _site_refs(ctx: ModuleContext) -> list[tuple[str, ast.Attribute]]:
    """All ``FaultSite.X`` attribute references in one module."""
    refs: list[tuple[str, ast.Attribute]] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name):
            resolved = ctx.aliases.get(base.id, base.id)
            if resolved == ENUM_NAME or resolved.endswith(f".{ENUM_NAME}"):
                refs.append((node.attr, node))
    return refs


def _checked_members(ctx: ModuleContext) -> set[str]:
    """Members passed to an ``<injector>.check(...)`` call in this module."""
    checked: set[str] = set()
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check"
        ):
            continue
        for arg in node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Attribute) and isinstance(
                    sub.value, ast.Name
                ):
                    resolved = ctx.aliases.get(sub.value.id, sub.value.id)
                    if resolved == ENUM_NAME or resolved.endswith(f".{ENUM_NAME}"):
                        checked.add(sub.attr)
    return checked


def check_rep004(modules: list[ModuleContext]) -> list[Finding]:
    """Cross-file fault-site completeness audit."""
    sites_ctx = _sites_module(modules)
    if sites_ctx is None:
        return []  # linting a subtree without the enum; nothing to audit
    members = _enum_members(sites_ctx)
    findings: list[Finding] = []

    wired: set[str] = set()
    for ctx in modules:
        wired |= _checked_members(ctx)
        for name, node in _site_refs(ctx):
            if name.startswith("_") or name in ("value", "name"):
                continue
            if name not in members:
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule="REP004",
                        message=(
                            f"reference to FaultSite.{name} which is not a "
                            "member of the enum"
                        ),
                    )
                )

    for name in sorted(set(members) - wired):
        findings.append(
            Finding(
                path=sites_ctx.relpath,
                line=members[name],
                col=1,
                rule="REP004",
                message=(
                    f"FaultSite.{name} has no injector.check() call site; "
                    "wire it into the subsystem it names or remove it"
                ),
            )
        )
    return findings


PROJECT_RULES = {"REP004": check_rep004}
"""Registry of rules that need the whole module set at once."""
