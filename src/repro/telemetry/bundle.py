"""``repro telemetry bundle``: a single-file, self-contained ops report.

Renders one HTML file — no external scripts, stylesheets, fonts, or
network fetches; pure stdlib on the write side — that embeds everything
a reviewer needs to judge a fleet drain:

* the drain timeline (worker lanes as inline SVG, per-worker
  queue-wait/execute/idle decomposition, straggler/critical path);
* the per-phase engine breakdown and cache-efficacy table from the
  registry aggregation (:func:`repro.telemetry.report.aggregate_events`);
* the fleet counters;
* the committed ``BENCH_engine.json`` baseline for side-by-side
  comparison, when provided;
* the ``BENCH_history.jsonl`` perf trend (``--bench-history``), one
  row per committed benchmark run with per-mode deltas; and
* decision-audit report sections (``--audit``), one per shard, with
  allocation shares and the anomaly sweep.

Determinism is a contract, not an accident: the renderer reads no
clock, generates no ids, and serialises every embedded JSON blob with
sorted keys — rendering the same merged stream twice yields the same
bytes (CI diffs a double render).  Output goes through the repo's
one atomic writer, like the figure catalog's exports.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path

from repro.reliability.durability import atomic_write
from repro.telemetry.report import aggregate_events
from repro.telemetry.timeline import drain_timeline

__all__ = ["render_bundle", "write_bundle"]

_CSS = """
body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:980px;
 color:#1a1a2e;background:#fafafa}
h1{font-size:20px}h2{font-size:16px;margin-top:28px;border-bottom:1px solid
 #ddd;padding-bottom:4px}
table{border-collapse:collapse;margin:8px 0;font-variant-numeric:tabular-nums}
th,td{padding:3px 10px;text-align:right;border-bottom:1px solid #eee}
th{background:#f0f0f5}th:first-child,td:first-child{text-align:left}
.tiles{display:flex;gap:12px;flex-wrap:wrap;margin:12px 0}
.tile{background:#fff;border:1px solid #ddd;border-radius:6px;
 padding:8px 14px;min-width:90px}
.tile b{display:block;font-size:18px}
.lane-label{font-size:11px;fill:#444}
details{margin-top:24px}pre{font-size:11px;overflow-x:auto}
"""


def _fmt(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _tile(label: str, value: str) -> str:
    return f'<div class="tile"><b>{_esc(value)}</b>{_esc(label)}</div>'


def _lanes_svg(timeline: dict) -> str:
    """Worker lanes as inline SVG: one row per worker, one rect per
    lease (claim→ack), opacity scaled by the job's execute share."""
    workers = timeline["workers"]
    jobs = [job for job in timeline["jobs"] if job["ack_t"] is not None]
    drain = timeline["drain"]
    wall = drain["wall_s"]
    if not workers or not jobs or wall <= 0:
        return "<p>no acked jobs to draw.</p>"
    t0 = drain["started_t"]
    left, width, row_h = 150, 800, 22
    height = len(workers) * row_h + 24
    rows = sorted(workers)
    parts = [
        f'<svg viewBox="0 0 {left + width + 10} {height}" '
        f'width="{left + width + 10}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]

    def x(t: float) -> float:
        return left + (t - t0) / wall * width

    for lane_index, owner in enumerate(rows):
        y = lane_index * row_h + 14
        parts.append(
            f'<text class="lane-label" x="4" y="{y + 12}">'
            f"{_esc(owner)}</text>"
        )
        parts.append(
            f'<line x1="{left}" y1="{y + 8}" x2="{left + width}" '
            f'y2="{y + 8}" stroke="#ddd"/>'
        )
    for job in jobs:
        lane_index = rows.index(job["owner"])
        y = lane_index * row_h + 14
        x0, x1 = x(job["claim_t"]), x(job["ack_t"])
        share = (
            job["execute_s"] / job["wall_s"] if job["wall_s"] > 0 else 0.0
        )
        opacity = 0.35 + 0.6 * min(1.0, max(0.0, share))
        parts.append(
            f'<rect x="{x0:.2f}" y="{y}" '
            f'width="{max(x1 - x0, 1.5):.2f}" height="16" rx="2" '
            f'fill="#3b6ea5" fill-opacity="{opacity:.2f}">'
            f"<title>{_esc(job['id'])}\n"
            f"wall {_fmt(job['wall_s'])}, execute "
            f"{_fmt(job['execute_s'])}</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _workers_table(timeline: dict) -> str:
    rows = [
        "<table><tr><th>worker</th><th>jobs</th><th>wall</th>"
        "<th>queue-wait</th><th>execute</th><th>idle</th>"
        "<th>util</th></tr>"
    ]
    for owner, lane in timeline["workers"].items():
        rows.append(
            f"<tr><td>{_esc(owner)}</td><td>{lane['jobs']}</td>"
            f"<td>{_fmt(lane['wall_s'])}</td>"
            f"<td>{_fmt(lane['queue_wait_s'])}</td>"
            f"<td>{_fmt(lane['execute_s'])}</td>"
            f"<td>{_fmt(lane['idle_s'])}</td>"
            f"<td>{lane['utilization'] * 100:.0f}%</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _phases_table(timeline: dict) -> str:
    if not timeline["phases"]:
        return "<p>no engine phase spans in the stream.</p>"
    rows = [
        "<table><tr><th>phase</th><th>count</th><th>total</th>"
        "<th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>"
    ]
    for name, stats in timeline["phases"].items():
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{stats['count']}</td>"
            f"<td>{_fmt(stats['total_s'])}</td>"
            f"<td>{_fmt(stats['p50_s'])}</td>"
            f"<td>{_fmt(stats['p90_s'])}</td>"
            f"<td>{_fmt(stats['p99_s'])}</td>"
            f"<td>{_fmt(stats['max_s'])}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _counters_table(report: dict) -> str:
    if not report["counters"]:
        return "<p>no counters recorded.</p>"
    rows = ["<table><tr><th>counter</th><th>value</th></tr>"]
    for name, value in report["counters"].items():
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{value:.0f}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _bench_table(bench: dict) -> str:
    cells = bench.get("cells", {})
    rows = [
        "<table><tr><th>cell</th><th>queries</th><th>seconds</th>"
        "<th>qps</th></tr>"
    ]
    for name in sorted(cells):
        cell = cells[name]
        rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td>{cell.get('queries', 0)}</td>"
            f"<td>{cell.get('seconds', 0.0):.3f}</td>"
            f"<td>{cell.get('qps', 0.0):,.0f}</td></tr>"
        )
    rows.append(
        f"</table><p>aggregate qps "
        f"{bench.get('aggregate_qps', 0.0):,.0f} "
        f"(engine v{_esc(bench.get('engine_version', '?'))}, "
        f"mode {_esc(bench.get('mode', '?'))})</p>"
    )
    return "".join(rows)


def _history_table(rows: list[dict]) -> str:
    """The perf trend as a table (oldest row first).

    Deterministic by construction: timestamps come from the rows (UTC,
    so the rendering does not depend on the reader's timezone), never
    from the clock, and the delta column compares each row against the
    previous row of the *same* mode, mirroring ``repro perf history``.
    """
    if not rows:
        return "<p>no perf history rows.</p>"
    parts = [
        "<table><tr><th>when (UTC)</th><th>mode</th><th>engine</th>"
        "<th>aggregate qps</th><th>delta</th><th>cells</th></tr>"
    ]
    last_by_mode: dict[str, float] = {}
    for row in rows:
        stamp = row.get("t")
        when = (
            time.strftime("%Y-%m-%d %H:%M", time.gmtime(stamp))
            if isinstance(stamp, (int, float))
            else "baseline"
        )
        mode = str(row.get("mode", "?"))
        aggregate = float(row.get("aggregate_qps", 0.0))
        previous = last_by_mode.get(mode)
        delta = (
            f"{(aggregate / previous - 1.0) * 100:+.0f}%" if previous else "-"
        )
        last_by_mode[mode] = aggregate
        parts.append(
            f"<tr><td>{_esc(when)}</td><td>{_esc(mode)}</td>"
            f"<td>{_esc(row.get('engine_version', '?'))}</td>"
            f"<td>{aggregate:,.0f}</td><td>{_esc(delta)}</td>"
            f"<td>{len(row.get('cells', {}))}</td></tr>"
        )
    parts.append("</table>")
    return "".join(parts)


def _audit_section(payload: dict, top: int = 8) -> str:
    """One decision-audit report payload as tiles + tables."""
    tiles = [
        _tile("decisions", str(payload["decisions"])),
        _tile("unserved", str(payload["unserved"])),
        _tile("imposed", str(payload["imposed"])),
        _tile("anomalies", str(payload["anomaly_count"])),
    ]
    ranked = sorted(
        payload["providers"],
        key=lambda row: (-row["allocations"], row["provider"]),
    )
    parts = [
        f"<h2>Decision audit — {_esc(payload['method'])} "
        f"seed {_esc(payload['seed'])}</h2>",
        f'<div class="tiles">{"".join(tiles)}</div>',
        "<table><tr><th>provider</th><th>allocations</th><th>share</th>"
        "<th>capacity share</th><th>imposed</th></tr>",
    ]
    for row in ranked[:top]:
        parts.append(
            f"<tr><td>{row['provider']}</td><td>{row['allocations']}</td>"
            f"<td>{row['share'] * 100:.1f}%</td>"
            f"<td>{row['capacity_share'] * 100:.1f}%</td>"
            f"<td>{row['imposed']}</td></tr>"
        )
    parts.append("</table>")
    if payload["anomalies"]:
        parts.append("<ul>")
        for anomaly in payload["anomalies"]:
            detail = {
                key: value
                for key, value in sorted(anomaly.items())
                if key != "kind"
            }
            parts.append(
                f"<li><b>{_esc(anomaly['kind'])}</b> "
                f"{_esc(json.dumps(detail, sort_keys=True))}</li>"
            )
        parts.append("</ul>")
    else:
        parts.append("<p>no anomalies detected.</p>")
    return "".join(parts)


def render_bundle(
    events: list[dict],
    bench: dict | None = None,
    title: str = "repro fleet ops bundle",
    bench_history: list[dict] | None = None,
    audit: list[dict] | None = None,
) -> str:
    """The full HTML document for ``events`` (a merged stream)."""
    timeline = drain_timeline(events)
    report = aggregate_events(events)
    drain = timeline["drain"]
    critical = timeline["critical_path"]

    tiles = [
        _tile("jobs", str(drain["jobs"])),
        _tile("workers", str(drain["workers"])),
        _tile("processes", str(drain["processes"])),
        _tile("drain wall", _fmt(drain["wall_s"])),
        _tile("events", str(drain["events"])),
        _tile("orphan spans", str(drain["orphan_spans"])),
    ]
    critical_html = ""
    if critical:
        longest = critical["longest_job"]
        critical_html = (
            f"<p>straggler <b>{_esc(critical['straggler'])}</b> "
            f"(chain {_fmt(critical['chain_s'])} over "
            f"{len(critical['jobs'])} jobs); longest job "
            f"<b>{_esc(longest['id'])}</b> on "
            f"{_esc(longest['owner'])} "
            f"({_fmt(longest['wall_s'])} wall, "
            f"{_fmt(longest['execute_s'])} execute).</p>"
        )

    # Embedded machine-readable copy: sorted keys, NaN refused — the
    # same canonical-JSON discipline as the figure catalog's exports.
    # "</" must not appear inside a <script> element's text.
    blob = json.dumps(
        {
            "timeline": timeline,
            "report": report,
            "bench": bench,
            "bench_history": bench_history,
            "audit": audit,
        },
        sort_keys=True,
        allow_nan=False,
        indent=1,
    ).replace("</", "<\\/")

    sections = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<div class="tiles">{"".join(tiles)}</div>',
        "<h2>Worker lanes</h2>",
        _lanes_svg(timeline),
        "<h2>Drain decomposition</h2>",
        _workers_table(timeline),
        critical_html,
        "<h2>Engine phases (count-weighted merged quantiles)</h2>",
        _phases_table(timeline),
        "<h2>Fleet counters</h2>",
        _counters_table(report),
    ]
    if bench is not None:
        sections += ["<h2>Committed benchmark baseline</h2>",
                     _bench_table(bench)]
    if bench_history is not None:
        sections += ["<h2>Benchmark history</h2>",
                     _history_table(bench_history)]
    for payload in audit or ():
        sections.append(_audit_section(payload))
    sections += [
        "<details><summary>Machine-readable data</summary>",
        f'<pre><script type="application/json" id="bundle-data">{blob}'
        "</script></pre></details>",
        "</body></html>",
    ]
    return "\n".join(section for section in sections if section) + "\n"


def write_bundle(
    path: Path | str,
    events: list[dict],
    bench: dict | None = None,
    title: str = "repro fleet ops bundle",
    bench_history: list[dict] | None = None,
    audit: list[dict] | None = None,
) -> Path:
    """Render and atomically write the bundle; returns the path."""
    path = Path(path)
    atomic_write(
        path,
        render_bundle(
            events, bench, title, bench_history=bench_history, audit=audit
        ).encode("utf-8"),
    )
    return path
