"""Per-file AST lint rules (REP001–REP003, REP005–REP008, REP011–REP013).

Each rule is a function taking a :class:`ModuleContext` and returning
raw findings; suppression filtering happens in the driver
(:mod:`repro.analysis.lint`).  Cross-file rules (REP004) live in
:mod:`repro.analysis.project`.

All rules work on the stdlib :mod:`ast` — no third-party dependencies —
and resolve import aliases (``import numpy as np``) so the banned-call
tables match however a module spells the import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .findings import Finding

UNIT_SUFFIXES = ("bytes", "frames", "pages", "regions")
"""Identifier-suffix families REP003 treats as distinct memory units."""

UNIT_HELPERS = frozenset(
    {
        "align_down",
        "align_up",
        "bytes_to_frames",
        "bytes_to_pages",
        "bytes_to_regions",
        "format_bytes",
        "frames_to_bytes",
        "frames_to_regions",
        "pages_to_bytes",
        "regions_to_bytes",
        "regions_to_frames",
    }
)
"""repro.units conversion helpers that legitimize mixed-unit arithmetic."""

BANNED_CALLS: dict[str, str] = {
    "time.time": "wall-clock time is nondeterministic",
    "time.time_ns": "wall-clock time is nondeterministic",
    "time.monotonic": "clock reads are nondeterministic",
    "time.monotonic_ns": "clock reads are nondeterministic",
    "time.perf_counter": "clock reads are nondeterministic",
    "time.perf_counter_ns": "clock reads are nondeterministic",
    "time.process_time": "clock reads are nondeterministic",
    "datetime.datetime.now": "wall-clock time is nondeterministic",
    "datetime.datetime.utcnow": "wall-clock time is nondeterministic",
    "datetime.datetime.today": "wall-clock time is nondeterministic",
    "datetime.date.today": "wall-clock time is nondeterministic",
    "os.urandom": "os.urandom is a nondeterministic entropy source",
    "os.getrandom": "os.getrandom is a nondeterministic entropy source",
    "uuid.uuid1": "uuid1 mixes in clock and MAC state",
    "uuid.uuid4": "uuid4 draws from os.urandom",
    "secrets.token_bytes": "secrets is a nondeterministic entropy source",
    "secrets.token_hex": "secrets is a nondeterministic entropy source",
    "secrets.randbits": "secrets is a nondeterministic entropy source",
    "secrets.choice": "secrets is a nondeterministic entropy source",
}
"""Dotted call paths REP001 always rejects."""

GLOBAL_RNG_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
    }
)
"""``random.<fn>`` module-level functions that share hidden global state."""

NUMPY_LEGACY_RNG_FUNCS = frozenset(
    {
        "choice",
        "normal",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)
"""Legacy ``numpy.random.<fn>`` module-level functions (hidden global
``RandomState``)."""

SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)
"""Annotation heads REP002 treats as hash-ordered containers."""

ITERATION_CALLS = frozenset(
    {
        "all",
        "any",
        "enumerate",
        "filter",
        "iter",
        "list",
        "map",
        "max",
        "min",
        "next",
        "reversed",
        "sum",
        "tuple",
        "numpy.fromiter",
        "numpy.array",
    }
)
"""Builtins/functions whose call order exposes the argument's iteration
order (``sorted`` is deliberately absent — it is the fix)."""


@dataclass
class ModuleContext:
    """One parsed source file plus resolved import aliases."""

    path: str
    source: str
    tree: ast.Module
    relpath: str
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str, relpath: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree, relpath=relpath)
        ctx.aliases = _collect_aliases(tree)
        return ctx

    def qualify(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain with aliases resolved.

        ``np.random.default_rng`` (after ``import numpy as np``) becomes
        ``numpy.random.default_rng``; unresolvable chains (subscripts,
        calls) return ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted paths they import."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


RuleFunc = Callable[[ModuleContext], list[Finding]]


def _finding(ctx: ModuleContext, node: ast.AST, rule: str, message: str) -> Finding:
    return Finding(
        path=ctx.relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
    )


# ----------------------------------------------------------------------
# REP001 — nondeterminism sources
# ----------------------------------------------------------------------

def check_rep001(ctx: ModuleContext) -> list[Finding]:
    """Flag wall clocks, unseeded/global RNGs and id()-keyed ordering."""
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualify(node.func)
        if qual is None:
            continue
        reason = BANNED_CALLS.get(qual)
        if reason is not None:
            findings.append(
                _finding(ctx, node, "REP001", f"call to {qual}(): {reason}")
            )
            continue
        head, _, tail = qual.rpartition(".")
        if head == "random" and tail in GLOBAL_RNG_FUNCS:
            findings.append(
                _finding(
                    ctx, node, "REP001",
                    f"call to {qual}() uses the hidden global RNG; "
                    "construct a seeded random.Random(seed) instead",
                )
            )
        elif head == "numpy.random" and tail in NUMPY_LEGACY_RNG_FUNCS:
            findings.append(
                _finding(
                    ctx, node, "REP001",
                    f"call to {qual}() uses numpy's hidden global "
                    "RandomState; use a seeded np.random.default_rng(seed)",
                )
            )
        elif qual in ("numpy.random.default_rng", "random.Random") and not (
            node.args or node.keywords
        ):
            findings.append(
                _finding(
                    ctx, node, "REP001",
                    f"{qual}() without a seed is entropy-seeded; "
                    "pass an explicit seed",
                )
            )
        elif qual == "id":
            findings.append(
                _finding(
                    ctx, node, "REP001",
                    "id() values vary across runs; never key ordering, "
                    "hashing or metrics on object identity",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REP002 — hash-ordered iteration
# ----------------------------------------------------------------------

def _is_set_expr(node: ast.AST, set_names: frozenset[str]) -> bool:
    """Whether ``node`` statically looks like a set/frozenset value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        # Set algebra keeps set-ness; either side sufficing is enough
        # evidence for a heuristic lint.
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    name = _plain_ref(node)
    return name is not None and name in set_names


def _plain_ref(node: ast.AST) -> Optional[str]:
    """``x`` or ``self.x`` rendered as a lookup key; else None."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _annotation_is_set(annotation: ast.AST) -> bool:
    head = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr in SET_TYPE_NAMES
    return isinstance(head, ast.Name) and head.id in SET_TYPE_NAMES


_DICT_TYPE_NAMES = frozenset(
    {"dict", "Dict", "defaultdict", "OrderedDict", "Mapping", "MutableMapping"}
)

_DICT_VALUE_METHODS = frozenset({"get", "pop", "setdefault"})


def _annotation_head(annotation: ast.AST) -> Optional[str]:
    head = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr
    if isinstance(head, ast.Name):
        return head.id
    return None


def _dict_value_annotation(annotation: ast.AST) -> Optional[ast.AST]:
    """The value annotation of a ``dict[K, V]``-style annotation."""
    if _annotation_head(annotation) not in _DICT_TYPE_NAMES:
        return None
    if not isinstance(annotation, ast.Subscript):
        return None
    params = annotation.slice
    if isinstance(params, ast.Tuple) and len(params.elts) >= 2:
        return params.elts[-1]
    return None


def _tuple_set_positions(annotation: ast.AST) -> Optional[frozenset[int]]:
    """Set-typed element positions of a ``tuple[...]`` annotation."""
    if _annotation_head(annotation) not in ("tuple", "Tuple"):
        return None
    if not isinstance(annotation, ast.Subscript):
        return None
    params = annotation.slice
    elts = params.elts if isinstance(params, ast.Tuple) else [params]
    positions = frozenset(
        i for i, elt in enumerate(elts) if _annotation_is_set(elt)
    )
    return positions or None


# Kind of a container value: "set" (the value itself is a set) or a
# frozenset of tuple positions holding sets.
_ValueKind = object


class _SetInference:
    """Tracks which names hold sets, set-bearing tuples, or dicts whose
    values are sets / set-bearing tuples.

    File-global on purpose: a heuristic lint prefers a rare extra hit
    (silenced with ``# repro: noqa REP002``) over missing an
    order-dependent loop because of scope bookkeeping.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.set_names: set[str] = set()
        self.tuple_refs: dict[str, frozenset[int]] = {}
        self.dict_refs: dict[str, object] = {}
        self._collect_annotations(tree)
        # Propagate through assignment chains (entry = d.pop(...);
        # a, b = entry) until the name sets stop growing.
        while True:
            before = (
                len(self.set_names),
                len(self.tuple_refs),
                len(self.dict_refs),
            )
            self._propagate(tree)
            if before == (
                len(self.set_names),
                len(self.tuple_refs),
                len(self.dict_refs),
            ):
                break

    # -- annotation seeding ---------------------------------------------

    def _record_annotation(self, ref: str, annotation: ast.AST) -> None:
        if _annotation_is_set(annotation):
            self.set_names.add(ref)
            return
        value_ann = _dict_value_annotation(annotation)
        if value_ann is not None:
            if _annotation_is_set(value_ann):
                self.dict_refs[ref] = "set"
            else:
                positions = _tuple_set_positions(value_ann)
                if positions:
                    self.dict_refs[ref] = positions
            return
        positions = _tuple_set_positions(annotation)
        if positions:
            self.tuple_refs[ref] = positions

    def _collect_annotations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                ref = _plain_ref(node.target)
                if ref is not None:
                    self._record_annotation(ref, node.annotation)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                self._record_annotation(node.arg, node.annotation)

    # -- value-kind inference -------------------------------------------

    def _value_kind(self, node: ast.AST) -> Optional[object]:
        """``"set"``, tuple set-positions, or None for an expression."""
        ref = _plain_ref(node)
        if ref is not None:
            if ref in self.set_names:
                return "set"
            return self.tuple_refs.get(ref)
        if isinstance(node, ast.Subscript):
            base = _plain_ref(node.value)
            if base is not None:
                return self.dict_refs.get(base)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _DICT_VALUE_METHODS:
                base = _plain_ref(node.func.value)
                if base is not None:
                    return self.dict_refs.get(base)
        if _is_set_expr(node, frozenset(self.set_names)):
            return "set"
        return None

    def _bind(self, target: ast.AST, kind: Optional[object]) -> None:
        if kind is None:
            return
        ref = _plain_ref(target)
        if ref is not None:
            if kind == "set":
                self.set_names.add(ref)
            else:
                self.tuple_refs[ref] = kind
            return
        if isinstance(target, ast.Tuple) and not isinstance(kind, str):
            for position in kind:
                if position < len(target.elts):
                    elt_ref = _plain_ref(target.elts[position])
                    if elt_ref is not None:
                        self.set_names.add(elt_ref)

    def _bind_iteration(self, target: ast.AST, iterated: ast.AST) -> None:
        """Bind loop targets drawing from ``d.values()`` / ``d.items()``."""
        if not (
            isinstance(iterated, ast.Call)
            and isinstance(iterated.func, ast.Attribute)
            and iterated.func.attr in ("values", "items")
        ):
            return
        base = _plain_ref(iterated.func.value)
        kind = self.dict_refs.get(base) if base is not None else None
        if kind is None:
            return
        if iterated.func.attr == "items":
            if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                self._bind(target.elts[1], kind)
        else:
            self._bind(target, kind)

    def _propagate(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                kind = self._value_kind(node.value)
                for target in node.targets:
                    self._bind(target, kind)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind_iteration(node.target, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                                   ast.DictComp)):
                for comp in node.generators:
                    self._bind_iteration(comp.target, comp.iter)


def _collect_set_names(tree: ast.Module) -> frozenset[str]:
    """Names (``x`` / ``self.x``) that statically look set-valued."""
    return frozenset(_SetInference(tree).set_names)


def _iter_order_sinks(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.AST]]:
    """(report-node, iterated-expression) pairs whose order is observable."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for comp in node.generators:
                yield node, comp.iter
        elif isinstance(node, ast.Call):
            func_name = None
            if isinstance(node.func, ast.Name):
                func_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            if func_name in ("fromiter",) and node.args:
                yield node, node.args[0]
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ITERATION_CALLS
                and node.args
            ):
                yield node, node.args[0]


def check_rep002(ctx: ModuleContext) -> list[Finding]:
    """Flag iteration whose order comes from a hash table.

    CPython set iteration order is an artifact of the table's insertion
    and deletion history; letting it reach metrics, frame lists or fault
    sequencing makes runs fragile against unrelated edits.  Dict views
    are exempt (insertion-ordered by language guarantee).
    """
    set_names = _collect_set_names(ctx.tree)
    findings: list[Finding] = []
    seen: set[tuple[int, int]] = set()
    for report_node, iterated in _iter_order_sinks(ctx.tree):
        if not _is_set_expr(iterated, set_names):
            continue
        key = (report_node.lineno, report_node.col_offset)
        if key in seen:
            continue
        seen.add(key)
        label = _plain_ref(iterated) or "a set expression"
        findings.append(
            _finding(
                ctx, report_node, "REP002",
                f"iteration over {label} exposes hash order; iterate "
                "sorted(...) so downstream state is order-independent",
            )
        )
    return findings


# ----------------------------------------------------------------------
# REP003 — unit safety
# ----------------------------------------------------------------------

def _unit_family(identifier: str) -> Optional[str]:
    for suffix in UNIT_SUFFIXES:
        if identifier == suffix or identifier.endswith(f"_{suffix}"):
            return suffix
    return None


def _contains_unit_helper(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in UNIT_HELPERS:
                return True
    return False


def _unit_families(node: ast.AST) -> set[str]:
    families: set[str] = set()
    for sub in ast.walk(node):
        identifier = None
        if isinstance(sub, ast.Name):
            identifier = sub.id
        elif isinstance(sub, ast.Attribute):
            identifier = sub.attr
        if identifier is not None:
            family = _unit_family(identifier)
            if family is not None:
                families.add(family)
    return families


def check_rep003(ctx: ModuleContext) -> list[Finding]:
    """Flag additive/comparison arithmetic mixing unit families.

    Multiplication and division are how units convert, so only ``+``,
    ``-`` and ordering/equality comparisons are audited.  Expressions
    that route through a :mod:`repro.units` helper are accepted.
    """
    findings: list[Finding] = []
    reported: set[int] = set()

    def report(node: ast.AST, families: set[str]) -> None:
        if node.lineno in reported:
            return
        reported.add(node.lineno)
        joined = "/".join(sorted(families))
        findings.append(
            _finding(
                ctx, node, "REP003",
                f"arithmetic mixes units ({joined}); convert through a "
                "repro.units helper or rename the identifiers",
            )
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            if _contains_unit_helper(node):
                continue
            left = _unit_families(node.left)
            right = _unit_families(node.right)
            if left and right and left != right:
                report(node, left | right)
        elif isinstance(node, ast.Compare):
            if _contains_unit_helper(node):
                continue
            sides = [node.left, *node.comparators]
            per_side = [_unit_families(side) for side in sides]
            nonempty = [fams for fams in per_side if fams]
            if len(nonempty) >= 2 and len(set().union(*nonempty)) > 1:
                report(node, set().union(*nonempty))
    return findings


# ----------------------------------------------------------------------
# REP005 — ledger hygiene
# ----------------------------------------------------------------------

LEDGER_FILE_SUFFIX = "mem/stats.py"
"""The one module allowed to mutate KernelLedger counters."""

_COUNTER_ATTRS = ("counts", "cycles")
_MUTATING_METHODS = frozenset(
    {"clear", "pop", "popitem", "setdefault", "subtract", "update"}
)


def _counter_attr(node: ast.AST) -> Optional[str]:
    """``<ledger-ish>.counts`` / ``.cycles`` attribute name, if matched.

    Only attributes hanging off something whose terminal name mentions
    ``ledger``, ``self`` (inside stats.py this rule never runs) or a
    bare ``KernelLedger`` value are matched — ``trace.counts`` (a numpy
    histogram) must not trip the rule.
    """
    if not (isinstance(node, ast.Attribute) and node.attr in _COUNTER_ATTRS):
        return None
    base = node.value
    base_name = None
    if isinstance(base, ast.Name):
        base_name = base.id
    elif isinstance(base, ast.Attribute):
        base_name = base.attr
    elif isinstance(base, ast.Call):
        func = base.func
        base_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
    if base_name is None:
        return None
    if "ledger" in base_name.lower() or base_name == "KernelLedger":
        return node.attr
    return None


def check_rep005(ctx: ModuleContext) -> list[Finding]:
    """Flag KernelLedger counter mutation outside ``mem/stats.py``."""
    if ctx.relpath.replace("\\", "/").endswith(LEDGER_FILE_SUFFIX):
        return []
    findings: list[Finding] = []

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            _finding(
                ctx, node, "REP005",
                f"{what} mutates KernelLedger counters outside "
                "repro/mem/stats.py; use the registered charge helpers "
                "(minor_fault, compaction, reclaim, ...)",
            )
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    attr = _counter_attr(sub)
                    if attr is not None:
                        flag(node, f"assignment to ledger.{attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and _counter_attr(func.value) is not None
            ):
                flag(node, f"ledger.{func.value.attr}.{func.attr}() call")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "add"
                and isinstance(func.value, (ast.Name, ast.Attribute))
            ):
                base = func.value
                base_name = base.id if isinstance(base, ast.Name) else base.attr
                if "ledger" in base_name.lower():
                    flag(node, "raw ledger.add() call")
    return findings


# ----------------------------------------------------------------------
# REP006 — __all__ completeness
# ----------------------------------------------------------------------

def _literal_all(tree: ast.Module) -> Optional[tuple[ast.AST, list[str]]]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        names = [
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
                        return node, names
    return None


def _public_bindings(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return {
        name
        for name in names
        if name == "__version__" or not name.startswith("_")
    }


def check_rep006(ctx: ModuleContext) -> list[Finding]:
    """``__init__.py`` packages: ``__all__`` ↔ public bindings, exactly."""
    if not ctx.relpath.replace("\\", "/").endswith("__init__.py"):
        return []
    found = _literal_all(ctx.tree)
    if found is None:
        return []  # modules without __all__ export implicitly; not audited
    node, exported = found
    public = _public_bindings(ctx.tree)
    findings: list[Finding] = []
    dangling = sorted(set(exported) - public)
    missing = sorted(public - set(exported))
    duplicates = sorted(
        {name for name in exported if exported.count(name) > 1}
    )
    if dangling:
        findings.append(
            _finding(
                ctx, node, "REP006",
                "__all__ lists names the package never binds: "
                + ", ".join(dangling),
            )
        )
    if missing:
        findings.append(
            _finding(
                ctx, node, "REP006",
                "public names missing from __all__: " + ", ".join(missing),
            )
        )
    if duplicates:
        findings.append(
            _finding(
                ctx, node, "REP006",
                "__all__ lists names more than once: " + ", ".join(duplicates),
            )
        )
    return findings


# ----------------------------------------------------------------------
# REP007 — durable-write discipline
# ----------------------------------------------------------------------

RUNSTATE_PATH_FRAGMENT = "runstate/"
"""The package whose atomic-write helpers REP007 exempts (they *are*
the sanctioned write path)."""

DURABLE_PATH_HINTS = ("journal", "result", "figure_id")
"""Identifier/string fragments that mark an expression as touching a
journal or results file."""

_WRITE_ATTR_METHODS = frozenset({"write_text", "write_bytes"})


def _hint_in(node: ast.AST, hints: tuple[str, ...]) -> Optional[str]:
    """The first of ``hints`` mentioned anywhere in ``node``: in a
    string constant, a name or an attribute, case-insensitively."""
    for sub in ast.walk(node):
        text = None
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            text = sub.value
        elif isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        if text is None:
            continue
        lowered = text.lower()
        for hint in hints:
            if hint in lowered:
                return hint
    return None


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The write-ish mode string of an ``open()`` call, if any."""
    mode_node: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if not (
        isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str)
    ):
        return None
    mode = mode_node.value
    if any(flag in mode for flag in ("w", "a", "x", "+")):
        return mode
    return None


def check_rep007(ctx: ModuleContext) -> list[Finding]:
    """Flag direct writes to journal/results paths outside runstate.

    Journals and figure results are the files a crashed sweep resumes
    from; a plain ``open(.., "w")`` / ``json.dump`` / ``Path.write_text``
    can tear them.  All durable writes must route through
    :func:`repro.runstate.atomic.atomic_write_text` (whole files) or
    :func:`repro.runstate.atomic.append_durable_line` (journal appends).
    """
    if RUNSTATE_PATH_FRAGMENT in ctx.relpath.replace("\\", "/"):
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qual = ctx.qualify(node.func)
        what = None
        if qual == "open" and node.args:
            mode = _open_write_mode(node)
            hinted = _hint_in(node.args[0], DURABLE_PATH_HINTS) is not None
            if mode is not None and hinted:
                what = f"open(..., {mode!r})"
        elif qual == "json.dump":
            if _hint_in(node, DURABLE_PATH_HINTS) is not None:
                what = "json.dump(...)"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _WRITE_ATTR_METHODS
        ):
            if _hint_in(node.func.value, DURABLE_PATH_HINTS) is not None:
                what = f".{node.func.attr}(...)"
        if what is not None:
            findings.append(
                _finding(
                    ctx, node, "REP007",
                    f"{what} writes a journal/results path directly; "
                    "route durable writes through repro.runstate.atomic "
                    "(atomic_write_text / append_durable_line) so a "
                    "crash cannot tear the file",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REP008 — tracer emission sites must be guarded
# ----------------------------------------------------------------------

OBS_PATH_FRAGMENT = "obs/"
"""The tracer's own package — exempt from REP008 (it defines ``emit``)."""


def _tracer_guards(test: ast.AST, ctx: ModuleContext) -> set[str]:
    """Dotted refs an ``if`` test proves non-None (``x is not None``,
    possibly inside an ``and`` chain)."""
    guards: set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            guards |= _tracer_guards(value, ctx)
        return guards
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        ref = ctx.qualify(test.left)
        if ref is not None:
            guards.add(ref)
    return guards


def _is_tracer_ref(ref: str) -> bool:
    """True when a dotted ref's terminal name looks like a tracer."""
    return "tracer" in ref.rsplit(".", 1)[-1].lower()


def check_rep008(ctx: ModuleContext) -> list[Finding]:
    """Flag tracer ``.emit()`` calls outside an ``is not None`` guard.

    The observability layer's zero-cost-when-off contract (the MemSan
    discipline, docs/observability.md) requires every emission site to
    load the tracer once and test it::

        tracer = self.tracer
        if tracer is not None:
            tracer.emit("thp.promotion", ...)

    An unguarded ``self.tracer.emit(...)`` either crashes when tracing
    is off (tracer is None) or — worse — hides an always-on event
    construction on a hot path.
    """
    if OBS_PATH_FRAGMENT in ctx.relpath.replace("\\", "/"):
        return []
    findings: list[Finding] = []

    def visit(node: ast.AST, guarded: frozenset[str]) -> None:
        if isinstance(node, ast.If):
            visit(node.test, guarded)
            inner = guarded | _tracer_guards(node.test, ctx)
            for child in node.body:
                visit(child, inner)
            for child in node.orelse:
                visit(child, guarded)
            return
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr == "emit":
            ref = ctx.qualify(node.func.value)
            if ref is not None and _is_tracer_ref(ref) and ref not in guarded:
                findings.append(
                    _finding(
                        ctx, node, "REP008",
                        f"unguarded tracer emission {ref}.emit(...); bind "
                        "the tracer to a local and wrap the emit in "
                        "'if tracer is not None:' so tracing stays "
                        "zero-cost when off",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(ctx.tree, frozenset())
    return findings


# ----------------------------------------------------------------------
# REP011 — crash consistency (torn-write stories)
# ----------------------------------------------------------------------

DURABLE_STATE_HINTS = (
    "journal",
    "pidfile",
    "bench",
    "result",
    "figure_id",
)
"""Name fragments marking durable state files: REP007's hints plus
pidfiles and ``BENCH_*.json``."""

ATOMIC_WRITERS = frozenset({"atomic_write_text", "append_durable_line"})
"""The sanctioned torn-write-safe entry points in repro.runstate.atomic."""

_TOLERANT_EXC_NAMES = frozenset(
    {"ValueError", "JSONDecodeError", "Exception", "BaseException"}
)


def _module_stem_hint(relpath: str) -> Optional[str]:
    stem = relpath.replace("\\", "/").rsplit("/", 1)[-1].lower()
    for hint in DURABLE_STATE_HINTS:
        if hint in stem:
            return hint
    return None


def _calls_atomic_writer(ctx: ModuleContext) -> bool:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            qual = ctx.qualify(node.func)
            if qual is not None and qual.rsplit(".", 1)[-1] in ATOMIC_WRITERS:
                return True
    return False


def _handler_tolerates_parse_errors(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in _TOLERANT_EXC_NAMES:
            return True
    return False


def check_rep011(ctx: ModuleContext) -> list[Finding]:
    """Torn-write stories for durable state files.

    A module is *durable-relevant* when its filename carries a durable
    hint (journal/pidfile/bench/...) or it calls the runstate atomic
    writers.  In relevant modules:

    - write sites (``open('w'/'a')``, ``json.dump``, ``write_text``)
      must go through ``repro.runstate.atomic`` — ``runstate/`` itself
      is the sanctioned implementation and exempt on the write side;
    - every ``json.load``/``json.loads`` must sit under a ``try``
      whose handlers catch ``ValueError`` (torn record == absent
      record), including inside ``runstate/``.
    """
    relpath = ctx.relpath.replace("\\", "/")
    stem_hint = _module_stem_hint(relpath)
    if stem_hint is None and not _calls_atomic_writer(ctx):
        return []
    findings: list[Finding] = []
    in_runstate = RUNSTATE_PATH_FRAGMENT in relpath

    # Walk with an explicit stack so parse sites can see their
    # enclosing try handlers.
    def _walk(node: ast.AST, tolerant: bool) -> None:
        if isinstance(node, ast.Try):
            body_tolerant = tolerant or any(
                _handler_tolerates_parse_errors(h) for h in node.handlers
            )
            for child in node.body:
                _walk(child, body_tolerant)
            for child in (
                node.handlers + node.orelse + node.finalbody
            ):
                _walk(child, tolerant)
            return
        if isinstance(node, ast.Call):
            qual = ctx.qualify(node.func)
            if qual in ("json.load", "json.loads") and not tolerant:
                findings.append(
                    _finding(
                        ctx, node, "REP011",
                        f"{qual}(...) parses durable state without "
                        "torn-record tolerance; a crash mid-write "
                        "leaves a torn tail that must read as "
                        "absent — wrap the parse in try/except "
                        "ValueError",
                    )
                )
            if not in_runstate:
                what = None
                if qual == "open" and node.args:
                    mode = _open_write_mode(node)
                    hinted = (
                        _hint_in(node.args[0], DURABLE_STATE_HINTS) is not None
                        or stem_hint is not None
                    )
                    if mode is not None and hinted:
                        what = f"open(..., {mode!r})"
                elif qual == "json.dump" and (
                    _hint_in(node, DURABLE_STATE_HINTS) is not None
                    or stem_hint is not None
                ):
                    what = "json.dump(...)"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write_text", "write_bytes")
                    and (
                        _hint_in(node.func.value, DURABLE_STATE_HINTS)
                        is not None
                        or stem_hint is not None
                    )
                ):
                    what = f".{node.func.attr}(...)"
                if what is not None:
                    findings.append(
                        _finding(
                            ctx, node, "REP011",
                            f"{what} writes durable state without a "
                            "torn-write story; route it through "
                            "repro.runstate.atomic "
                            "(atomic_write_text / "
                            "append_durable_line) or document why "
                            "tearing is safe",
                        )
                    )
        for child in ast.iter_child_nodes(node):
            _walk(child, tolerant)

    _walk(ctx.tree, False)
    return findings


# ----------------------------------------------------------------------
# REP012 — vectorized trace discipline
# ----------------------------------------------------------------------

TLB_ENGINE_FILES = ("tlb/engine.py", "tlb/hierarchy.py")
"""The two modules allowed to walk TlbTrace arrays element-wise (the
exact reference simulator and the batch engine's decision procedures)."""

TRACE_ARRAY_ATTRS = frozenset(
    {
        "run_keys",
        "run_counts",
        "run_array_ids",
        "lookup_keys",
        "lookup_array_ids",
    }
)
"""TlbTrace array fields (and the conventional names of
``lookup_view()`` unpacks) whose per-element iteration REP012 bans."""

_ARRAY_PROPAGATORS = frozenset({"astype", "copy", "reshape", "view"})
"""Methods that return (a view of) the same array — taint flows through."""

_ITER_WRAPPERS = frozenset(
    {"enumerate", "iter", "list", "map", "filter", "reversed", "tuple", "zip"}
)


def _trace_array_like(node: ast.AST, tainted: set[str]) -> bool:
    """Whether ``node`` statically looks like a TlbTrace array value."""
    if isinstance(node, ast.Name):
        return node.id in tainted or node.id in TRACE_ARRAY_ATTRS
    if isinstance(node, ast.Attribute):
        return node.attr in TRACE_ARRAY_ATTRS
    if isinstance(node, ast.Subscript):
        return _trace_array_like(node.value, tainted)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "lookup_view":
            return True
        if node.func.attr in _ARRAY_PROPAGATORS:
            return _trace_array_like(node.func.value, tainted)
    return False


def _collect_trace_taint(tree: ast.Module) -> set[str]:
    """Names bound (transitively) to TlbTrace arrays."""
    tainted: set[str] = set()
    while True:
        before = len(tainted)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and _trace_array_like(
                    node.value, tainted
                ):
                    tainted.add(target.id)
                elif isinstance(target, ast.Tuple) and (
                    isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "lookup_view"
                ):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            tainted.add(elt.id)
        if len(tainted) == before:
            return tainted


def _is_per_element_iter(iterated: ast.AST, tainted: set[str]) -> bool:
    """Whether an iterated expression walks a trace array element-wise."""
    if _trace_array_like(iterated, tainted):
        return True
    if not isinstance(iterated, ast.Call):
        return False
    func = iterated.func
    if isinstance(func, ast.Attribute) and func.attr == "tolist":
        return _trace_array_like(func.value, tainted)
    if not isinstance(func, ast.Name):
        return False
    if func.id in _ITER_WRAPPERS:
        return any(
            _is_per_element_iter(arg, tainted) for arg in iterated.args
        )
    if func.id == "range" and len(iterated.args) == 1:
        # range(len(keys)) / range(keys.size): indexed element loops.
        arg = iterated.args[0]
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id == "len"
            and arg.args
        ):
            return _trace_array_like(arg.args[0], tainted)
        if isinstance(arg, ast.Attribute) and arg.attr == "size":
            return _trace_array_like(arg.value, tainted)
    return False


def check_rep012(ctx: ModuleContext) -> list[Finding]:
    """Flag per-element Python loops over TlbTrace arrays.

    Interpreting a translation stream one lookup at a time is the
    ~100ns-per-element pattern the batch engine exists to replace
    (docs/performance.md); outside the two sanctioned modules, trace
    arrays must be consumed through numpy set-wise operations or handed
    to a hierarchy's ``simulate``.
    """
    relpath = ctx.relpath.replace("\\", "/")
    if relpath.endswith(TLB_ENGINE_FILES):
        return []
    tainted = _collect_trace_taint(ctx.tree)
    findings: list[Finding] = []
    seen: set[tuple[int, int]] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            sources = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            sources = [comp.iter for comp in node.generators]
        else:
            continue
        if not any(_is_per_element_iter(src, tainted) for src in sources):
            continue
        key = (node.lineno, node.col_offset)
        if key in seen:
            continue
        seen.add(key)
        findings.append(
            _finding(
                ctx, node, "REP012",
                "per-element Python loop over TlbTrace arrays; use "
                "numpy set-wise operations or the batch translation "
                "engine (repro.tlb.engine) — only tlb/engine.py and "
                "tlb/hierarchy.py may walk translation streams "
                "element-wise",
            )
        )
    return findings


# ----------------------------------------------------------------------
# REP013 — policy hook sandbox
# ----------------------------------------------------------------------

HOOK_METHODS = frozenset(
    {"on_fault", "on_khugepaged_scan", "on_demote_scan", "on_iteration"}
)
"""The :class:`repro.policy.hooks.PagePolicy` decision points, plus the
epoch step of :class:`repro.mem.heuristics.HugePageManager`."""

POLICY_IMPORT_ALLOWLIST = frozenset(
    {
        "bisect",
        "collections",
        "dataclasses",
        "enum",
        "functools",
        "heapq",
        "itertools",
        "math",
        "numpy",
        "operator",
        "repro",
        "typing",
    }
)
"""Module roots a policy hook body may import from.  Everything else —
clocks, entropy, filesystems, processes — is outside the sandbox."""

_POLICY_BANNED_ROOTS: dict[str, str] = {
    "time": "clock reads are nondeterministic",
    "datetime": "wall-clock time is nondeterministic",
    "random": "ambient RNG breaks bit-for-bit reproducibility",
    "secrets": "entropy sources are nondeterministic",
    "uuid": "uuid state mixes in clock and entropy",
    "os": "ambient process/filesystem state is outside the sandbox",
    "sys": "interpreter state is outside the sandbox",
    "subprocess": "process spawning is outside the sandbox",
    "socket": "network I/O is outside the sandbox",
    "pathlib": "filesystem I/O is outside the sandbox",
    "shutil": "filesystem I/O is outside the sandbox",
    "tempfile": "filesystem I/O is outside the sandbox",
}
"""Module roots whose *calls* inside a hook body violate the sandbox."""

_POLICY_BANNED_BUILTINS: dict[str, str] = {
    "open": "file I/O is outside the sandbox",
    "input": "console input is nondeterministic",
    "eval": "dynamic code execution is outside the sandbox",
    "exec": "dynamic code execution is outside the sandbox",
}

_VIEW_MUTATION_CALLS = frozenset({"setattr", "delattr"})


def _hook_view_param(node: ast.AST) -> Optional[str]:
    """The PolicyView parameter name of a hook method (by convention
    ``view``; falls back to the last positional parameter)."""
    args = getattr(node, "args", None)
    if args is None:
        return None
    names = [
        a.arg
        for a in list(args.posonlyargs) + list(args.args)
        if a.arg not in ("self", "cls")
    ]
    if "view" in names:
        return "view"
    return names[-1] if names else None


def _rooted_at(node: ast.AST, name: str) -> bool:
    """Whether an Attribute/Subscript chain bottoms out at Name(name)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


def _check_hook_body(
    ctx: ModuleContext, hook: ast.AST, findings: list[Finding]
) -> None:
    view = _hook_view_param(hook)
    for node in ast.walk(hook):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in POLICY_IMPORT_ALLOWLIST:
                    findings.append(
                        _finding(
                            ctx, node, "REP013",
                            f"policy hook imports {alias.name!r}: only "
                            + ", ".join(sorted(POLICY_IMPORT_ALLOWLIST))
                            + " may be imported inside a hook body",
                        )
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = (node.module or "").split(".")[0]
            if root and root not in POLICY_IMPORT_ALLOWLIST:
                findings.append(
                    _finding(
                        ctx, node, "REP013",
                        f"policy hook imports from {node.module!r}: only "
                        + ", ".join(sorted(POLICY_IMPORT_ALLOWLIST))
                        + " may be imported inside a hook body",
                    )
                )
        elif isinstance(node, ast.Call):
            qual = ctx.qualify(node.func)
            if qual is not None:
                root = qual.split(".")[0]
                reason = _POLICY_BANNED_ROOTS.get(root)
                if reason is None and qual.startswith("numpy.random."):
                    reason = (
                        "ambient RNG breaks bit-for-bit reproducibility"
                    )
                if reason is None:
                    reason = _POLICY_BANNED_BUILTINS.get(qual)
                if reason is not None:
                    findings.append(
                        _finding(
                            ctx, node, "REP013",
                            f"policy hook calls {qual}(): {reason}; "
                            "hooks must be pure functions of their "
                            "FaultContext/candidates and PolicyView",
                        )
                    )
                    continue
            if (
                view is not None
                and isinstance(node.func, ast.Name)
                and node.func.id in _VIEW_MUTATION_CALLS
                and node.args
                and _rooted_at(node.args[0], view)
            ):
                findings.append(
                    _finding(
                        ctx, node, "REP013",
                        f"policy hook mutates the PolicyView via "
                        f"{node.func.id}(); the view is read-only — "
                        "hooks act through their return values",
                    )
                )
        elif view is not None and isinstance(
            node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
        ):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _rooted_at(target, view):
                    findings.append(
                        _finding(
                            ctx, node, "REP013",
                            "policy hook writes through the PolicyView; "
                            "the view is read-only — hooks act through "
                            "their return values",
                        )
                    )


def check_rep013(ctx: ModuleContext) -> list[Finding]:
    """Flag sandbox violations inside PagePolicy hook bodies.

    Policy callbacks (``on_fault`` / ``on_khugepaged_scan`` /
    ``on_demote_scan`` / ``on_iteration``) must be deterministic, side-effect-free
    functions of their inputs (docs/policies.md): no wall clocks, no
    ambient RNG, no writes through the read-only PolicyView, no
    filesystem/process/network escape hatches, and no imports beyond a
    numeric/stdlib-container allowlist.  The PolicyView's
    ``__setattr__`` guard is this rule's runtime twin.
    """
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in HOOK_METHODS
        ):
            _check_hook_body(ctx, node, findings)
    return findings


PER_FILE_RULES: dict[str, RuleFunc] = {
    "REP001": check_rep001,
    "REP002": check_rep002,
    "REP003": check_rep003,
    "REP005": check_rep005,
    "REP006": check_rep006,
    "REP007": check_rep007,
    "REP008": check_rep008,
    "REP011": check_rep011,
    "REP012": check_rep012,
    "REP013": check_rep013,
}
"""Per-file rule registry; REP004 is project-wide (see ``project.py``)."""
