"""Markdown / CSV report generation from experiment results.

The benches print human-readable tables; downstream tooling (paper
drafts, dashboards, regression tracking) wants structured artifacts.
This module renders the experiment result dataclasses to GitHub
markdown and CSV without any formatting logic leaking into the
experiment code.

Since the campaign redesign this is the *one* artifact-writer module:
:func:`rows_to_csv` and :func:`rows_to_markdown` are the generic
tabular writers (the campaign engine's report layer renders through
them), the ``mesh_results_*`` / :func:`robustness_csv` emitters are
thin presets over them with their historical bytes pinned by
``tests/experiments/test_report.py``, and the console-table helpers
:func:`format_row` / :func:`print_table` live here too.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Mapping, Optional, Sequence

from .common import MeshResult

__all__ = [
    "format_row",
    "mesh_results_csv",
    "mesh_results_markdown",
    "print_table",
    "robustness_csv",
    "rows_to_csv",
    "rows_to_markdown",
]


# ----------------------------------------------------------------------
# generic tabular writers
# ----------------------------------------------------------------------

def rows_to_csv(columns: Sequence[str], rows: Sequence[Mapping]) -> str:
    """CSV (header + one line per row dict) of a flat table.

    Values are written as-is (``csv`` stringifies them), so callers
    control number formatting by pre-formatting the dict values.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def rows_to_markdown(
    columns: Sequence[str],
    rows: Sequence[Mapping],
    title: str = "",
    aligns: Optional[Sequence[str]] = None,
) -> str:
    """GitHub-markdown table of a flat table of row dicts.

    ``aligns`` is the separator-row cell list (``"---"`` left,
    ``"---:"`` right); it defaults to all-left.
    """
    if aligns is None:
        aligns = ["---"] * len(columns)
    if len(aligns) != len(columns):
        raise ValueError(
            f"{len(aligns)} aligns for {len(columns)} columns"
        )
    lines: List[str] = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(str(c) for c in columns) + " |")
    lines.append("|" + "|".join(aligns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(row[c]) for c in columns) + " |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# mesh-result presets (bytes pinned by tests/experiments/test_report.py)
# ----------------------------------------------------------------------

_MESH_MD_COLUMNS = ("design", "#CR", "#DC", "#Blk", "window (k µm²)",
                    "footprint (k µm²)", "accuracy (%)")
_MESH_MD_ALIGNS = ("---", "---:", "---:", "---:", "---", "---:", "---:")
_MESH_CSV_COLUMNS = ("design", "n_cr", "n_dc", "n_blocks", "window_lo_kum2",
                     "window_hi_kum2", "footprint_kum2", "accuracy_percent")


def _window_str(r: MeshResult) -> str:
    if r.window is None:
        return "-"
    return f"[{r.window[0]:.0f}, {r.window[1]:.0f}]"


def mesh_results_markdown(rows: Sequence[MeshResult], title: str = "") -> str:
    """GitHub-markdown table of one Table-1/2 style result set."""
    table = []
    for r in rows:
        fb = r.footprint
        table.append({
            "design": r.name,
            "#CR": fb.n_cr,
            "#DC": fb.n_dc,
            "#Blk": fb.n_blocks,
            "window (k µm²)": _window_str(r),
            "footprint (k µm²)": f"{fb.in_paper_units():.1f}",
            "accuracy (%)": f"{r.accuracy:.2f}",
        })
    return rows_to_markdown(_MESH_MD_COLUMNS, table, title=title,
                            aligns=_MESH_MD_ALIGNS)


def mesh_results_csv(rows: Sequence[MeshResult]) -> str:
    """CSV (header + one line per design) of a result set."""
    table = []
    for r in rows:
        fb = r.footprint
        lo, hi = r.window if r.window is not None else ("", "")
        table.append({
            "design": r.name,
            "n_cr": fb.n_cr,
            "n_dc": fb.n_dc,
            "n_blocks": fb.n_blocks,
            "window_lo_kum2": lo,
            "window_hi_kum2": hi,
            "footprint_kum2": f"{fb.in_paper_units():.3f}",
            "accuracy_percent": f"{r.accuracy:.3f}",
        })
    return rows_to_csv(_MESH_CSV_COLUMNS, table)


def robustness_csv(curves: Dict[str, List[tuple]]) -> str:
    """CSV of Fig. 4-style noise curves: design, sigma, mean, std."""
    table = []
    for name, points in curves.items():
        for sigma, mean, std in points:
            table.append({
                "design": name,
                "noise_std": sigma,
                "accuracy_mean": f"{mean:.4f}",
                "accuracy_std": f"{std:.4f}",
            })
    return rows_to_csv(("design", "noise_std", "accuracy_mean",
                        "accuracy_std"), table)


# ----------------------------------------------------------------------
# console tables (moved here from common.py)
# ----------------------------------------------------------------------

def format_row(r: MeshResult) -> str:
    fb = r.footprint
    window = (
        f"[{r.window[0]:.0f}, {r.window[1]:.0f}]" if r.window else "-"
    )
    return (
        f"{r.name:<12} CR/DC/Blk={fb.n_cr}/{fb.n_dc}/{fb.n_blocks:<3} "
        f"window={window:<14} F={fb.in_paper_units():7.1f}k "
        f"acc={r.accuracy:6.2f}%"
    )


def print_table(title: str, rows: Sequence[MeshResult]) -> None:
    print(f"\n=== {title} ===")
    for r in rows:
        print("  " + format_row(r))
