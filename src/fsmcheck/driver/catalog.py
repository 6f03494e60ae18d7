"""Failure catalog and target-mode matrix files.

Both are comma-separated text with a header row: diff-friendly,
hand-editable, trivially parseable. The catalog lists failure entries in
injection order; composite entries are computed inside the model and are
excluded from the injection axes.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Optional

KINDS = ("ecu", "power", "bus", "p2p", "composite")
FATAL = "FATAL"


class CatalogError(Exception):
    pass


class MatrixError(Exception):
    pass


@dataclass(frozen=True)
class FailureEntry:
    index: int  # 1-based, contiguous
    id: str
    variable: str
    kind: str


@dataclass(frozen=True)
class FailureCatalog:
    entries: tuple[FailureEntry, ...]

    @property
    def axes(self) -> tuple[FailureEntry, ...]:
        """Injection axes: the non-composite entries, in file order."""
        return tuple(e for e in self.entries if e.kind != "composite")

    def axis(self, index: int) -> FailureEntry:
        return self.axes[index - 1]


def load_failure_catalog(path) -> FailureCatalog:
    text = Path(path).read_text()
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows or (len(rows) == 1 and rows[0][0].strip() == "index"):
        raise CatalogError(f"{path}: empty catalog")
    header = [c.strip() for c in rows[0]]
    if header != ["index", "id", "variable", "kind"]:
        raise CatalogError(f"{path}: expected header 'index,id,variable,kind'")
    entries = []
    seen_ids: set[str] = set()
    seen_vars: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise CatalogError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        idx_s, id_, var, kind = (c.strip() for c in row)
        try:
            idx = int(idx_s)
        except ValueError:
            raise CatalogError(f"{path}:{lineno}: bad index {idx_s!r}")
        if idx != len(entries) + 1:
            raise CatalogError(
                f"{path}:{lineno}: indices must be contiguous from 1 (got {idx})"
            )
        if kind not in KINDS:
            raise CatalogError(f"{path}:{lineno}: unknown kind {kind!r}")
        if id_ in seen_ids:
            raise CatalogError(f"{path}:{lineno}: duplicate id {id_!r}")
        if var in seen_vars:
            raise CatalogError(f"{path}:{lineno}: duplicate variable {var!r}")
        seen_ids.add(id_)
        seen_vars.add(var)
        entries.append(FailureEntry(idx, id_, var, kind))
    catalog = FailureCatalog(tuple(entries))
    if not catalog.axes:
        raise CatalogError(f"{path}: catalog has no injectable axes")
    return catalog


@dataclass(frozen=True)
class TargetModeMatrix:
    ids: tuple[str, ...]  # axis ids; rows = first failure, cols = second
    cells: tuple[tuple[str, ...], ...]  # mode name or FATAL

    def target(self, row: int, col: int) -> str:
        """1-based lookup; returns a mode name or FATAL."""
        return self.cells[row - 1][col - 1]


def load_target_matrix(path, catalog: FailureCatalog,
                       modes: Optional[AbstractSet[str]] = None) -> TargetModeMatrix:
    """Load and dimension-check the N x N matrix against the catalog axes.

    Mode names are validated when the template's mode universe is supplied;
    otherwise that check happens at plan time.
    """
    text = Path(path).read_text()
    rows = [r for r in csv.reader(text.splitlines()) if r and any(c.strip() for c in r)]
    if not rows:
        raise MatrixError(f"{path}: empty matrix")
    axes = catalog.axes
    header = [c.strip() for c in rows[0]]
    ids = tuple(header[1:])
    expected = tuple(e.id for e in axes)
    if ids != expected:
        raise MatrixError(
            f"{path}: header axes do not match the catalog "
            f"({len(ids)} columns for {len(expected)} axes)"
        )
    if len(rows) - 1 != len(axes):
        raise MatrixError(
            f"{path}: dimension mismatch: {len(rows) - 1} rows for {len(axes)} axes"
        )
    cells = []
    for lineno, row in enumerate(rows[1:], start=2):
        name = row[0].strip()
        want = axes[lineno - 2].id
        if name != want:
            raise MatrixError(f"{path}:{lineno}: expected row {want!r}, got {name!r}")
        values = [c.strip() for c in row[1:]]
        if len(values) != len(axes):
            raise MatrixError(
                f"{path}:{lineno}: {len(values)} cells for {len(axes)} axes"
            )
        for value in values:
            if value != FATAL and modes is not None and value not in modes:
                raise MatrixError(f"{path}:{lineno}: unknown mode {value!r}")
        cells.append(tuple(values))
    return TargetModeMatrix(tuple(ids), tuple(cells))
