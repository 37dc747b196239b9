"""Dataset ingestion, normalization and export of reports, curves and SVG plots."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CpmFitError, DegenerateInputError, ParseError
from .metrics import EvalMode, MetricKind
from .model import (
    SPEED_TOLERANCE,
    CompressorMap,
    OperatingPoint,
    Speedline,
    same_speed,
    sample_curve,
)
from .predict import PredictionReport

CSV_HEADER = ("speed", "m_dot", "pi")


@dataclass(frozen=True)
class RawRecord:
    speed: float
    m_dot: float
    pi: float

    def __post_init__(self):
        for v in (self.speed, self.m_dot, self.pi):
            if not math.isfinite(v):
                raise ValueError(f"RawRecord with non-finite value {v!r}")
        if self.pi <= 0.0:
            raise ValueError(f"RawRecord requires pi > 0, got {self.pi}")


@dataclass(frozen=True)
class ScaleRecord:
    """Min-max extents of the raw data; enables exact denormalization."""

    m_min: float
    m_max: float
    pi_min: float
    pi_max: float

    def __post_init__(self):
        if not (self.m_max > self.m_min and self.pi_max > self.pi_min):
            raise ValueError("ScaleRecord requires nonzero spans")


def parse_map_csv(text: str) -> list[RawRecord]:
    """Parse `speed,m_dot,pi` CSV text; blank lines and `#` comments are skipped."""
    lines = text.splitlines()
    header = None
    records = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")]
        if header is None:
            if tuple(fields) != CSV_HEADER:
                raise ParseError(
                    f"line {lineno}: expected header {','.join(CSV_HEADER)!r}, "
                    f"got {stripped!r}", line=lineno)
            header = fields
            continue
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(fields)}",
                             line=lineno)
        try:
            speed, m_dot, pi = (float(f) for f in fields)
            records.append(RawRecord(speed, m_dot, pi))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}", line=lineno) from exc
    if header is None:
        raise ParseError("missing header row", line=None)
    return records


def group_speedlines(records, speed_tolerance: float = SPEED_TOLERANCE,
                     map_id: str = "", type_label: str = "") -> CompressorMap:
    """Cluster records into speedlines by speed (relative tolerance).

    Each group is keyed by its mean speed; points within a line are sorted
    by mass flow and duplicate abscissae are a data-quality error.
    """
    if not records:
        raise CpmFitError("group_speedlines on empty input")
    ordered = sorted(records, key=lambda r: (r.speed, r.m_dot, r.pi))
    groups: list[list[RawRecord]] = []
    for rec in ordered:
        if groups:
            if same_speed(rec.speed, groups[-1][0].speed, speed_tolerance):
                groups[-1].append(rec)
                continue
        groups.append([rec])
    lines = []
    for grp in groups:
        speed = float(np.mean([r.speed for r in grp]))
        # Jittered speeds within a tolerance group can break the global sort
        # order, so each line is re-sorted by mass flow.
        grp = sorted(grp, key=lambda r: (r.m_dot, r.pi))
        m_vals = [r.m_dot for r in grp]
        if len(set(m_vals)) != len(m_vals):
            raise CpmFitError(f"duplicate m_dot within speedline at speed {speed}")
        pts = tuple(OperatingPoint(r.m_dot, r.pi) for r in grp)
        lines.append(Speedline(speed, pts))
    return CompressorMap(map_id, type_label, tuple(lines))


def normalize_map(cpm: CompressorMap) -> tuple[CompressorMap, ScaleRecord]:
    """Min-max normalize both axes over all points of the map."""
    m = np.concatenate([sl.m_array() for sl in cpm.speedlines])
    pi = np.concatenate([sl.pi_array() for sl in cpm.speedlines])
    if m.min() == m.max() or pi.min() == pi.max():
        raise DegenerateInputError("map spans a zero range")
    scale = ScaleRecord(float(m.min()), float(m.max()), float(pi.min()), float(pi.max()))
    dm = scale.m_max - scale.m_min
    dpi = scale.pi_max - scale.pi_min
    lines = tuple(
        Speedline(sl.speed, tuple(
            OperatingPoint((p.m_dot - scale.m_min) / dm, (p.pi - scale.pi_min) / dpi)
            for p in sl.points))
        for sl in cpm.speedlines)
    return CompressorMap(cpm.id, cpm.type_label, lines), scale


def denormalize_map(cpm: CompressorMap, scale: ScaleRecord) -> CompressorMap:
    dm = scale.m_max - scale.m_min
    dpi = scale.pi_max - scale.pi_min
    lines = tuple(
        Speedline(sl.speed, tuple(
            OperatingPoint(p.m_dot * dm + scale.m_min, p.pi * dpi + scale.pi_min)
            for p in sl.points))
        for sl in cpm.speedlines)
    return CompressorMap(cpm.id, cpm.type_label, lines)


# ---------------------------------------------------------------------------
# Report export


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return ""
    return format(x, ".10g")


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _report_row(index: int, report: PredictionReport, mode: EvalMode) -> dict:
    row = dict.fromkeys(REPORT_COLUMNS)
    row.update(index=index, speed=report.target_speed, kind=report.kind.value.upper(),
               status=report.status.upper(), flags=flags_string(report))
    if report.status == "ok":
        summ = report.metrics[mode]
        for key, kind in (("rmse", MetricKind.RMSE), ("mape", MetricKind.MAPE),
                          ("ortho", MetricKind.ORTHO)):
            row[f"{key}_mean"] = summ[kind].mean
            row[f"{key}_sd"] = summ[kind].sd
    return row


def flags_string(report: PredictionReport) -> str:
    parts = []
    if report.repair.cur_clamped:
        parts.append("cur_clamped")
    if report.repair.nonneg_clamped:
        parts.append("nonneg_clamped")
    if report.repair.degree_reduced:
        parts.append("degree_reduced")
    if report.out_of_domain:
        parts.append(f"out_of_domain={report.out_of_domain}")
    if report.underdetermined_fits:
        parts.append(f"underdetermined_fits={report.underdetermined_fits}")
    if report.failed_fits:
        parts.append(f"failed_fits={report.failed_fits}")
    return ";".join(parts)


REPORT_COLUMNS = ("index", "speed", "kind", "rmse_mean", "rmse_sd",
                  "mape_mean", "mape_sd", "ortho_mean", "ortho_sd",
                  "status", "flags")


def export_report(reports, fmt: str = "csv", mode: EvalMode = EvalMode.PRESSURE) -> str:
    """One row per prediction report, fixed column order, CSV or JSON."""
    if not reports:
        raise CpmFitError("export_report on empty input")
    rows = [_report_row(i, r, mode) for i, r in enumerate(reports)]
    if fmt == "json":
        return json_text([{k: None if isinstance(v, float) and not math.isfinite(v) else v
                           for k, v in row.items()} for row in rows])
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    return csv_text(REPORT_COLUMNS, [[v if isinstance(v, str) else _fmt(v) for v in row.values()]
                                     for row in rows])


# ---------------------------------------------------------------------------
# SVG export

SVG_W, SVG_H = 640, 480
SVG_PAD = 48


def _svg_scales(m_all: np.ndarray, pi_all: np.ndarray):
    m_lo, m_hi = float(m_all.min()), float(m_all.max())
    p_lo, p_hi = float(pi_all.min()), float(pi_all.max())
    m_margin = 0.05 * (m_hi - m_lo or 1.0)
    p_margin = 0.05 * (p_hi - p_lo or 1.0)
    m_lo, m_hi = m_lo - m_margin, m_hi + m_margin
    p_lo, p_hi = p_lo - p_margin, p_hi + p_margin

    def sx(m):
        return SVG_PAD + (m - m_lo) / (m_hi - m_lo) * (SVG_W - 2 * SVG_PAD)

    def sy(p):
        return SVG_H - SVG_PAD - (p - p_lo) / (p_hi - p_lo) * (SVG_H - 2 * SVG_PAD)

    return sx, sy


def _path(xs, ys, sx, sy) -> str:
    cmds = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        cmds.append(f"{'M' if i == 0 else 'L'} {sx(x):.3f} {sy(y):.3f}")
    return " ".join(cmds)


def export_curve_svg(measured, predicted) -> str:
    """Measured speedlines (solid, with markers) and predicted curves (dashed).

    `measured` is a sequence of Speedline, `predicted` a sequence of
    (speed, BetaVector).  Output is deterministic for identical input.
    """
    m_parts = [sl.m_array() for sl in measured]
    p_parts = [sl.pi_array() for sl in measured]
    curves = []
    for speed, beta in predicted:
        pts = sample_curve(beta, 200)
        cm = np.array([p.m_dot for p in pts])
        cp = np.array([p.pi for p in pts])
        curves.append((speed, cm, cp))
        m_parts.append(cm)
        p_parts.append(cp)
    if not m_parts:
        m_parts, p_parts = [np.array([0.0, 1.0])], [np.array([0.0, 1.0])]
    sx, sy = _svg_scales(np.concatenate(m_parts), np.concatenate(p_parts))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect x="0" y="0" width="{SVG_W}" height="{SVG_H}" fill="white"/>',
    ]
    for sl in measured:
        m, pi = sl.m_array(), sl.pi_array()
        if m.size > 1:
            out.append(f'<path d="{_path(m, pi, sx, sy)}" fill="none" '
                       f'stroke="black" stroke-width="1.5"/>')
        for x, y in zip(m, pi):
            out.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="3" fill="black"/>')
    for speed, cm, cp in curves:
        out.append(f'<path d="{_path(cm, cp, sx, sy)}" fill="none" stroke="crimson" '
                   f'stroke-width="1.5" stroke-dasharray="6 4"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
