"""Finding records and the rule registry for ``repro.analysis.lint``.

A :class:`Finding` is one rule violation anchored to a file and line.
Findings are ordered (path, line, column, rule) so reports are stable
regardless of the order rules run in — the analyzer's own output must be
as deterministic as the simulator it audits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (``--format=json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


RULE_SUMMARIES: dict[str, str] = {
    "REP000": (
        "unused suppression: a line-level 'repro: noqa' pragma that "
        "suppresses no finding; delete it so stale suppressions rot "
        "visibly"
    ),
    "REP001": (
        "no nondeterminism sources (wall clocks, unseeded RNGs, "
        "os.urandom, id()-keyed ordering) inside the simulator"
    ),
    "REP002": (
        "no iteration over set/frozenset values where hash order could "
        "leak into metrics or fault sequencing; iterate sorted(...) "
        "instead"
    ),
    "REP003": (
        "no +/-/comparison mixing identifiers of different memory units "
        "(_bytes/_frames/_pages/_regions) without a repro.units helper"
    ),
    "REP004": (
        "fault-site completeness: every FaultSite member is wired to an "
        "injector.check() call site and every reference names a real "
        "member"
    ),
    "REP005": (
        "ledger hygiene: KernelLedger counters are only mutated inside "
        "repro/mem/stats.py (everything else goes through the charge "
        "helpers)"
    ),
    "REP006": (
        "__all__ must list exactly the public names a package's "
        "__init__ binds"
    ),
    "REP007": (
        "durable-write discipline: journal/results paths are only "
        "written through repro.runstate.atomic (atomic_write_text / "
        "append_durable_line), never via direct open('w')/json.dump/"
        "write_text"
    ),
    "REP008": (
        "tracer emission discipline: every obs .emit() site binds the "
        "tracer to a local and sits inside an 'is not None' guard, so "
        "tracing is zero-cost when off"
    ),
    "REP011": (
        "crash consistency: every durable state file (journal, "
        "pidfiles, BENCH_*.json, results) has a torn-write story — "
        "writes go through runstate.atomic and json parses of durable "
        "state tolerate torn records"
    ),
    "REP012": (
        "vectorized trace discipline: no per-element Python loops over "
        "TlbTrace arrays (run_keys/run_counts/lookup_view views) "
        "outside repro/tlb/engine.py and repro/tlb/hierarchy.py; "
        "consume translation streams through numpy set-wise ops or a "
        "hierarchy's simulate()"
    ),
    "REP013": (
        "policy hook sandbox: PagePolicy callbacks (on_fault / "
        "on_khugepaged_scan / on_demote_scan) are deterministic pure "
        "functions of their inputs — no wall clocks, no ambient RNG, "
        "no writes through the read-only PolicyView, no filesystem/"
        "process/network access, imports limited to an allowlist "
        "(docs/policies.md)"
    ),
}
"""One-line summary per rule, used by ``--list-rules`` and the docs."""

ALL_RULES: tuple[str, ...] = tuple(sorted(RULE_SUMMARIES))
"""Every known rule code, sorted."""
