"""Result container + table formatting for experiment runners."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


class ExperimentResult:
    """Rows regenerated for one paper table/figure, plus paper values."""

    def __init__(self, exp_id: str, title: str,
                 columns: Sequence[str], rows: Sequence[Sequence[Any]],
                 notes: str = ""):
        self.exp_id = exp_id
        self.title = title
        self.columns = list(columns)
        self.rows = [list(row) for row in rows]
        self.notes = notes

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-safe form: everything __init__ took, nothing
        derived.  ``from_dict(to_dict(r))`` preserves ``row_dicts()``
        and ``table_str()`` exactly, which is what lets results survive
        the control-plane RunStore round-trip byte-for-byte."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (extra keys are rejected so a
        schema drift shows up as an error, not silent data loss)."""
        extra = set(data) - {"exp_id", "title", "columns", "rows", "notes"}
        if extra:
            raise ValueError(
                f"unknown ExperimentResult fields: {sorted(extra)}")
        return cls(data["exp_id"], data["title"], data["columns"],
                   data["rows"], notes=data.get("notes", ""))

    def row_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def table_str(self) -> str:
        """A monospace table, the way the bench harness prints it."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1000:
                    return f"{value:,.0f}"
                if abs(value) >= 10:
                    return f"{value:.1f}"
                return f"{value:.3f}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [
            f"== {self.exp_id}: {self.title} ==",
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExperimentResult {self.exp_id} rows={len(self.rows)}>"


def obs_stage_table(report: Dict[str, Any]) -> ExperimentResult:
    """Per-stage latency + cycles table from an Observability report
    (the dict returned by ``repro.obs.Observability.report``)."""
    rows = [
        [stage["stage"], stage["count"], stage["p50_us"], stage["p95_us"],
         stage["p99_us"], stage["max_us"], stage["cycles"]]
        for stage in report["stages"]
    ]
    return ExperimentResult(
        "obs", "Per-stage NQE latency (guest -> CE -> NSM -> guest)",
        ["stage", "count", "p50_us", "p95_us", "p99_us", "max_us", "cycles"],
        rows)


def obs_ops_table(report: Dict[str, Any]) -> ExperimentResult:
    """Per-op end-to-end latency table from an Observability report."""
    rows = [
        [op["kind"], op["op"], op["vm"], op["count"], op["p50_us"],
         op["p99_us"], op["max_us"]]
        for op in report["ops"]
    ]
    return ExperimentResult(
        "obs-ops", "Per-op NQE latency by VM",
        ["kind", "op", "vm", "count", "p50_us", "p99_us", "max_us"],
        rows)


def qualitative(measured: float, paper: float) -> str:
    """A short verdict string for the printed tables."""
    if paper == 0:
        return "n/a"
    delta = (measured - paper) / paper * 100.0
    return f"{delta:+.0f}%"
