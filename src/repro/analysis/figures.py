"""The paper-figure catalog: declarative figures over a result store.

Each :class:`FigureSpec` names one paper-style figure — satisfaction /
utilization / response-time evolution bands, departure-fraction bars,
method-vs-baseline deltas — and the catalog renders any store that
carries sweep manifests (shard- or queue-produced; the cells come
through the :func:`~repro.sweeps.runner.manifest_cells` contract, or
from an explicit cell list for partially drained queues).

Two output paths, deliberately asymmetric in their dependencies:

* **JSON data export** — always available, no third-party plotting
  dependency.  The payload carries the full-resolution bands (mean,
  p50, p90, 95 % CI half-width per sample) with NaN encoded as
  ``null``, serialised with sorted keys so a warm store exports
  *byte-identical* files on every run — diffable in CI and across
  machines.
* **SVG/PNG rendering** — an optional matplotlib backend
  (:func:`matplotlib_available`), rendered deterministically: fixed
  figure geometry, a fixed per-method colour assignment (colour
  follows the method *name*, never its position in a filtered list),
  an svg hashsalt, and no embedded timestamps.

Rendering never simulates: cells whose results are absent from the
store are reported in the payload's ``missing`` section and skipped.
A catalog render reads every stored run at most once, scenario by
scenario, and builds all requested figures from that one read.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from repro.allocation.registry import PAPER_METHODS, available_methods
from repro.analysis.metrics import get_metric
from repro.analysis.series import (
    CellRuns,
    cell_band,
    cell_scalar_map,
    cell_scalars,
    cells_from_store,
    jsonable,
)
from repro.experiments.store import ResultStore, StoredSeries, key_scope
from repro.reliability.durability import atomic_write
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.aggregate import ci_halfwidth

__all__ = [
    "FIGURE_CATALOG",
    "FigureSpec",
    "RenderReport",
    "available_figures",
    "figure_payload",
    "figure_payloads",
    "matplotlib_available",
    "payload_bytes",
    "render_catalog",
]

#: Fixed categorical colour slots (colour-blind-validated order); a
#: method keeps its colour no matter which subset of methods a figure
#: shows.  The paper's three methods take the first three slots.
_COLOR_SLOTS = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

_TEXT_SECONDARY = "#52514e"
_GRID_COLOR = "#e3e2de"


def method_order(methods: list[str]) -> list[str]:
    """Canonical method ordering: the paper's methods first (in their
    registry order), then everything else alphabetically."""
    paper = [m for m in PAPER_METHODS if m in methods]
    rest = sorted(m for m in methods if m not in PAPER_METHODS)
    return paper + rest


def method_color(method: str) -> str:
    """The fixed colour of one method, everywhere.

    The slot comes from the method's position in the *global* canonical
    order (the whole registry, paper methods first) — never from its
    position within whatever subset one figure or one store happens to
    show, so 'capacity' is the same orange in a two-method sweep, a
    filtered figure, and a delta plot whose baseline is hidden.
    Unregistered names (hand-built cells) fall back to the last slot.
    """
    global_order = method_order(list(available_methods()))
    if method in global_order:
        index = global_order.index(method)
    else:
        index = len(_COLOR_SLOTS) - 1
    return _COLOR_SLOTS[index % len(_COLOR_SLOTS)]


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """One declared figure.

    ``kind`` is ``series`` (per-scenario evolution bands of one sampled
    series), ``departures`` (provider/consumer departure-fraction bars
    per cell), ``delta`` (per-scenario metric deltas of every method
    against the baseline method), ``curve`` (the across-seed mean of a
    metric per cell) or ``reasons`` (Table 3's departure reasons by
    class band, per cell).  The catalog declares the first three; the
    paper's Figure 4(i)-6 curves and Table 3 are ``curve`` and
    ``reasons`` specs (see :mod:`repro.experiments.paper`).
    """

    name: str
    title: str
    kind: str
    ylabel: str
    series: str | None = None
    metric: str | None = None


FIGURE_CATALOG: tuple[FigureSpec, ...] = (
    FigureSpec(
        name="provider_satisfaction",
        title="Provider satisfaction (intentions)",
        kind="series",
        ylabel="satisfaction",
        series="provider_intention_satisfaction_mean",
    ),
    FigureSpec(
        name="consumer_satisfaction",
        title="Consumer satisfaction",
        kind="series",
        ylabel="satisfaction",
        series="consumer_satisfaction_mean",
    ),
    FigureSpec(
        name="satisfaction_fairness",
        title="Provider satisfaction fairness",
        kind="series",
        ylabel="fairness",
        series="provider_intention_satisfaction_fairness",
    ),
    FigureSpec(
        name="utilization",
        title="Mean provider utilization",
        kind="series",
        ylabel="utilization",
        series="utilization_mean",
    ),
    FigureSpec(
        name="response_time",
        title="Response time evolution",
        kind="series",
        ylabel="response time (s)",
        series="response_time_mean",
    ),
    FigureSpec(
        name="departures",
        title="Departure fractions",
        kind="departures",
        ylabel="departed (%)",
    ),
    FigureSpec(
        name="response_time_delta",
        title="Response time vs. baseline method",
        kind="delta",
        ylabel="relative delta",
        metric="response_time_post_warmup",
    ),
)


def available_figures() -> tuple[str, ...]:
    return tuple(spec.name for spec in FIGURE_CATALOG)


def matplotlib_available() -> bool:
    """Whether the optional rendering backend can be imported."""
    return importlib.util.find_spec("matplotlib") is not None


# -- payload construction ------------------------------------------------


def _group_cells(
    cells: list[CellRuns],
) -> dict[str, dict[str, CellRuns]]:
    grouped: dict[str, dict[str, CellRuns]] = {}
    for cell in cells:
        grouped.setdefault(cell.scenario, {})[cell.method] = cell
    return grouped


def _series_payload(
    store: ResultStore, spec: FigureSpec, cells: list[CellRuns]
) -> dict:
    scenarios: dict[str, dict] = {}
    missing: list[dict] = []
    for scenario, by_method in sorted(_group_cells(cells).items()):
        ordered = method_order(list(by_method))
        methods: dict[str, dict] = {}
        times: np.ndarray | None = None
        for method in ordered:
            band = cell_band(store, by_method[method], spec.series)
            if band.missing_seeds:
                missing.append(
                    {
                        "scenario": scenario,
                        "method": method,
                        "seeds": list(band.missing_seeds),
                    }
                )
            if not band.seeds:
                continue
            if times is None:
                times = band.times
            methods[method] = {
                "seeds": list(band.seeds),
                "mean": band.mean,
                "p50": band.quantiles[0.5],
                "p90": band.quantiles[0.9],
                "ci_halfwidth": band.ci_halfwidth,
            }
        if methods:
            scenarios[scenario] = {
                "times": times,
                "method_order": [m for m in ordered if m in methods],
                "methods": methods,
            }
    return {"scenarios": scenarios, "missing": missing}


def _departures_payload(
    store: ResultStore, spec: FigureSpec, cells: list[CellRuns]
) -> dict:
    provider = get_metric("provider_departure_fraction")
    consumer = get_metric("consumer_departure_fraction")
    scenarios: dict[str, dict] = {}
    missing: list[dict] = []
    for scenario, by_method in sorted(_group_cells(cells).items()):
        ordered = method_order(list(by_method))
        methods: dict[str, dict] = {}
        for method in ordered:
            cell = by_method[method]
            entry: dict[str, dict] = {}
            # Both fractions come from one result load per seed.
            by_kind, absent = cell_scalar_map(
                store,
                cell,
                {
                    "provider": provider.extract,
                    "consumer": consumer.extract,
                },
            )
            if absent:
                missing.append(
                    {
                        "scenario": scenario,
                        "method": method,
                        "seeds": list(absent),
                    }
                )
            for kind in ("provider", "consumer"):
                values = by_kind[kind]
                if not values:
                    continue
                ordered_values = [values[s] for s in sorted(values)]
                entry[kind] = {
                    "per_seed": {
                        str(s): values[s] for s in sorted(values)
                    },
                    "mean": float(np.mean(ordered_values)),
                    "ci_halfwidth": ci_halfwidth(ordered_values),
                }
            if entry:
                methods[method] = entry
        if methods:
            scenarios[scenario] = {
                "method_order": [m for m in ordered if m in methods],
                "methods": methods,
            }
    return {"scenarios": scenarios, "missing": missing}


def _scenario_means(
    store: ResultStore,
    metric,
    scenario: str,
    by_method: dict[str, CellRuns],
    missing: list[dict],
) -> dict[str, float]:
    """Across-seed NaN-aware mean of one metric per method, in method
    order, over the seeds in sorted order; unreadable seeds are added
    to ``missing``."""
    means: dict[str, float] = {}
    for method in method_order(list(by_method)):
        values, absent = cell_scalars(
            store, by_method[method], metric.extract
        )
        if absent:
            missing.append(
                {"scenario": scenario, "method": method, "seeds": list(absent)}
            )
        if values:
            # errstate does not silence nanmean's all-NaN
            # RuntimeWarning — that needs the warnings filter, the
            # same pattern aggregate_band uses.
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "Mean of empty slice", RuntimeWarning
                )
                means[method] = float(
                    np.nanmean([values[s] for s in sorted(values)])
                )
    return means


def _curve_payload(
    store: ResultStore, spec: FigureSpec, cells: list[CellRuns]
) -> dict:
    metric = get_metric(spec.metric)
    scenarios: dict[str, dict] = {}
    missing: list[dict] = []
    for scenario, by_method in sorted(_group_cells(cells).items()):
        means = _scenario_means(store, metric, scenario, by_method, missing)
        if means:
            scenarios[scenario] = {
                "method_order": list(means),
                "methods": {m: {"mean": v} for m, v in means.items()},
            }
    return {"scenarios": scenarios, "missing": missing}


#: Table 3's breakdown: provider departure reasons, the three class
#: dimensions a provider is banded along, and the bands (index order).
REASONS = ("dissatisfaction", "starvation", "overutilization")
DIMENSIONS = ("interest", "adaptation", "capacity")
BANDS = ("low", "medium", "high")


def _reason_shares(results: list, n_providers: int) -> dict:
    """Table 3 for one cell: the percentage of the initial provider
    population that left for each reason, in total and per band along
    each dimension (so every dimension's row sums to the total)."""
    share = 100.0 / (n_providers * len(results))
    cells = {
        reason: {dim: dict.fromkeys(BANDS, 0.0) for dim in DIMENSIONS}
        for reason in REASONS
    }
    totals = dict.fromkeys(REASONS, 0.0)
    for result in results:
        for record in result.departures:
            if record.kind != "provider":
                continue
            totals[record.reason] += share
            classes = (
                record.interest_class,
                record.adaptation_class,
                record.capacity_class,
            )
            for dimension, band in zip(DIMENSIONS, classes):
                cells[record.reason][dimension][BANDS[band]] += share
    return {"cells": cells, "totals": totals}


def _reasons_payload(
    store: ResultStore, spec: FigureSpec, cells: list[CellRuns]
) -> dict:
    scenarios: dict[str, dict] = {}
    missing: list[dict] = []
    for scenario, by_method in sorted(_group_cells(cells).items()):
        methods: dict[str, dict] = {}
        for method in method_order(list(by_method)):
            cell = by_method[method]
            results, absent = [], []
            for seed in sorted(cell.seeds):
                result = store.get(cell.config, method, seed)
                if result is None:
                    absent.append(seed)
                else:
                    results.append(result)
            if absent:
                missing.append(
                    {"scenario": scenario, "method": method, "seeds": absent}
                )
            if results:
                methods[method] = _reason_shares(
                    results, cell.config.n_providers
                )
        if methods:
            scenarios[scenario] = {
                "method_order": list(methods),
                "methods": methods,
            }
    return {"scenarios": scenarios, "missing": missing}


def _delta_payload(
    store: ResultStore, spec: FigureSpec, cells: list[CellRuns]
) -> dict:
    metric = get_metric(spec.metric)
    scenarios: dict[str, dict] = {}
    missing: list[dict] = []
    for scenario, by_method in sorted(_group_cells(cells).items()):
        means = _scenario_means(store, metric, scenario, by_method, missing)
        present = list(means)
        if len(present) < 2:
            continue  # a delta needs a baseline and a comparator
        baseline = present[0]
        base = means[baseline]
        methods: dict[str, dict] = {}
        for method in present[1:]:
            delta = means[method] - base
            methods[method] = {
                "mean": means[method],
                "baseline_mean": base,
                "delta": delta,
                "relative": (
                    delta / abs(base)
                    if base != 0.0 and not math.isnan(base)
                    else float("nan")
                ),
            }
        scenarios[scenario] = {
            "baseline": baseline,
            "method_order": present[1:],
            "methods": methods,
        }
    return {"scenarios": scenarios, "missing": missing}


#: kind → the function building that kind's ``scenarios``/``missing``.
_PAYLOADS = {
    "series": _series_payload,
    "departures": _departures_payload,
    "delta": _delta_payload,
    "curve": _curve_payload,
    "reasons": _reasons_payload,
}


def figure_payload(
    store: ResultStore, spec: FigureSpec, cells: list[CellRuns]
) -> dict:
    """The JSON-ready data payload of one figure over given cells.

    Scenarios are independent: the payload over several scenarios is
    the union of the payloads over each one (``scenarios`` merged,
    ``missing`` concatenated in scenario order), which is how
    :func:`render_catalog` assembles it.
    """
    try:
        build = _PAYLOADS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown figure kind {spec.kind!r}") from None
    body = build(store, spec, cells)
    payload = {
        "figure": spec.name,
        "title": spec.title,
        "kind": spec.kind,
        "ylabel": spec.ylabel,
        "series": spec.series,
        "metric": spec.metric,
        "engine_version": ENGINE_VERSION,
        **body,
    }
    return jsonable(payload)


def payload_bytes(payload: dict) -> bytes:
    """The canonical serialisation: sorted keys, fixed indentation.

    Byte-identical across runs of a warm store — floats round-trip
    through ``repr`` and every container is ordered — so CI can diff
    exports and a re-render is a no-op diff.
    """
    return (
        json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
        + "\n"
    ).encode("utf-8")


# -- rendering -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RenderReport:
    """What one catalog render produced."""

    out_dir: Path
    written: tuple[Path, ...]
    skipped: tuple[str, ...]
    stale_manifests: int


class _ScenarioReads:
    """One scenario's stored runs, each read from the store at most once.

    Stands in for the store in the per-kind payload functions, which
    call only ``get`` and ``load_series``.  The read is chosen from the
    figures being built: one ``get`` per run when any of them needs a
    scalar metric (only those figures' functions call ``get``, and
    every series is then served from the result), otherwise one
    ``load_series`` per run over the union of their series, which is
    several times cheaper.  A scenario has one cell per method, so
    (method, seed) names a run; the runs live as long as this object.
    ``runs`` seeds it with whole results already in memory, keyed the
    same way; those are served without a read.
    """

    def __init__(
        self,
        store: ResultStore | None,
        specs: list[FigureSpec],
        runs: dict | None = None,
    ) -> None:
        self._store = store
        self._runs: dict = dict(runs or {})
        self._whole = bool(self._runs) or any(
            spec.kind != "series" for spec in specs
        )
        self._names = tuple(
            sorted({spec.series for spec in specs if spec.kind == "series"})
        )

    def get(self, config, method: str, seed: int):
        key = (method, seed)
        if key not in self._runs:
            if self._whole:
                run = self._store.get(config, method, seed)
            else:
                run = self._store.load_series(
                    config, method, seed, names=self._names
                )
            self._runs[key] = run
        return self._runs[key]

    def load_series(
        self, config, method: str, seed: int, names: tuple[str, ...]
    ) -> StoredSeries | None:
        run = self.get(config, method, seed)
        if run is None or not self._whole:
            return run  # already a StoredSeries (or a miss)
        return StoredSeries(
            times=run.times(),
            series={name: run.series(name) for name in names},
        )


def figure_payloads(
    store: ResultStore | None,
    specs: list[FigureSpec],
    cells: list[CellRuns],
    runs: dict[str, dict] | None = None,
) -> dict[str, dict]:
    """Each spec's payload over ``cells``, built one scenario at a time.

    Every run is read at most once for all the specs (see
    :class:`_ScenarioReads`), and memory holds one scenario's runs at a
    time.  ``runs`` maps a scenario to its ``(method, seed) → result``
    runs already in memory, which are used instead of store reads, so a
    caller that has just simulated a grid builds its figures from the
    same code a render uses.
    """
    # Each figure starts empty; every scenario's part is merged in.
    payloads = {spec.name: figure_payload(store, spec, []) for spec in specs}
    for scenario, by_method in sorted(_group_cells(cells).items()):
        reads = _ScenarioReads(store, specs, (runs or {}).get(scenario))
        for spec in specs:
            part = figure_payload(reads, spec, list(by_method.values()))
            payloads[spec.name]["scenarios"].update(part["scenarios"])
            payloads[spec.name]["missing"].extend(part["missing"])
    return payloads


@key_scope()
def render_catalog(
    store_root: Path | str,
    out_dir: Path | str,
    formats: tuple[str, ...] = ("json",),
    only: tuple[str, ...] | None = None,
    cells: list[CellRuns] | None = None,
) -> RenderReport:
    """Render the figure catalog from a store into ``out_dir``.

    ``formats`` may contain ``json``, ``svg``, and ``png``; image
    formats need matplotlib and are skipped (with a note) without it.
    ``cells`` overrides manifest discovery — the queue monitor passes
    the cells of a partially drained queue here.  Rendering is
    read-only: nothing is ever simulated.  Each stored run is read at
    most once: the figures are built scenario by scenario, so memory
    holds one scenario's runs at a time.  Bad ``formats`` or ``only``
    raise before anything is read or created.
    """
    unknown = [f for f in formats if f not in ("json", "svg", "png")]
    if unknown:
        raise ValueError(
            f"unknown figure formats {unknown}; choose from json/svg/png"
        )
    if only is not None:
        unknown_figures = set(only) - {s.name for s in FIGURE_CATALOG}
        if unknown_figures:
            raise ValueError(
                f"unknown figures {sorted(unknown_figures)}; "
                f"available: {', '.join(available_figures())}"
            )
    store = ResultStore(store_root)
    stale = 0
    if cells is None:
        cells, stale = cells_from_store(store_root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    image_formats = [f for f in formats if f in ("svg", "png")]
    written: list[Path] = []
    skipped: list[str] = []
    use_images = bool(image_formats)
    if use_images and not matplotlib_available():
        skipped.extend(
            f"{fmt}: matplotlib is not installed (pip install "
            "matplotlib to render images; the JSON export needs no "
            "extra dependency)"
            for fmt in image_formats
        )
        use_images = False
    specs = [
        spec
        for spec in FIGURE_CATALOG
        if only is None or spec.name in only
    ]
    payloads = figure_payloads(store, specs, cells)
    for spec in specs:
        payload = payloads[spec.name]
        if not payload["scenarios"]:
            skipped.append(
                f"{spec.name}: no readable cells in the store"
            )
            continue
        if "json" in formats:
            path = out_dir / f"{spec.name}.json"
            atomic_write(path, payload_bytes(payload))
            written.append(path)
        if use_images:
            for fmt in image_formats:
                path = out_dir / f"{spec.name}.{fmt}"
                atomic_write(path, _render_matplotlib(payload, fmt))
                written.append(path)
    return RenderReport(
        out_dir=out_dir,
        written=tuple(written),
        skipped=tuple(skipped),
        stale_manifests=stale,
    )


def _style_axis(ax) -> None:
    ax.grid(True, color=_GRID_COLOR, linewidth=0.6)
    ax.set_axisbelow(True)
    for side in ("top", "right"):
        ax.spines[side].set_visible(False)
    for side in ("left", "bottom"):
        ax.spines[side].set_color(_TEXT_SECONDARY)
    ax.tick_params(colors=_TEXT_SECONDARY, labelsize=8)


def _subplot_grid(figure, count: int):
    cols = min(3, max(1, count))
    rows = -(-count // cols)
    figure.set_size_inches(4.2 * cols, 3.0 * rows)
    return [
        figure.add_subplot(rows, cols, index + 1)
        for index in range(count)
    ]


def _render_matplotlib(payload: dict, fmt: str) -> bytes:
    """Render one figure payload to SVG/PNG bytes, deterministically.

    Determinism levers: a fixed hashsalt (SVG ids), no Date metadata,
    fixed geometry/dpi, and colours assigned from the payload's own
    ``method_order`` (which is itself canonical).
    """
    import matplotlib

    matplotlib.use("Agg")
    from matplotlib.figure import Figure
    from matplotlib.lines import Line2D

    matplotlib.rcParams["svg.hashsalt"] = "repro-analysis"
    figure = Figure(dpi=100)
    scenarios = sorted(payload["scenarios"])
    axes = _subplot_grid(figure, len(scenarios))
    plotted = sorted(
        {
            m
            for body in payload["scenarios"].values()
            for m in body["method_order"]
        }
    )
    if payload["kind"] == "series":
        _draw_series(axes, payload, scenarios)
    elif payload["kind"] == "departures":
        _draw_departures(axes, payload, scenarios)
    else:
        _draw_delta(axes, payload, scenarios)
    handles = [
        Line2D(
            [],
            [],
            color=method_color(m),
            linewidth=2.0,
            label=m,
        )
        for m in method_order(plotted)
    ]
    figure.legend(
        handles=handles,
        loc="lower center",
        ncol=max(1, len(handles)),
        frameon=False,
        fontsize=8,
    )
    figure.suptitle(payload["title"], fontsize=11)
    figure.tight_layout(rect=(0, 0.06, 1, 0.95))
    metadata = {"Date": None} if fmt == "svg" else None
    buffer = io.BytesIO()
    figure.savefig(buffer, format=fmt, metadata=metadata)
    return buffer.getvalue()


def _clean(values: list) -> np.ndarray:
    """null → NaN, back into an array."""
    return np.asarray(
        [float("nan") if v is None else float(v) for v in values]
    )


def _draw_series(axes, payload, scenarios) -> None:
    for ax, scenario in zip(axes, scenarios):
        body = payload["scenarios"][scenario]
        times = _clean(body["times"])
        for method in body["method_order"]:
            band = body["methods"][method]
            color = method_color(method)
            mean = _clean(band["mean"])
            ci = _clean(band["ci_halfwidth"])
            ax.plot(times, mean, color=color, linewidth=1.6)
            defined = ~np.isnan(ci) & ~np.isnan(mean)
            if defined.any():
                ax.fill_between(
                    times,
                    np.where(defined, mean - ci, np.nan),
                    np.where(defined, mean + ci, np.nan),
                    color=color,
                    alpha=0.18,
                    linewidth=0,
                )
        _style_axis(ax)
        ax.set_title(scenario, fontsize=9)
        ax.set_xlabel("time (s)", fontsize=8)
        ax.set_ylabel(payload["ylabel"], fontsize=8)


def _draw_departures(axes, payload, scenarios) -> None:
    for ax, scenario in zip(axes, scenarios):
        body = payload["scenarios"][scenario]
        methods = body["method_order"]
        positions = np.arange(len(methods), dtype=float)
        width = 0.38
        for offset, kind, hatch in (
            (-width / 2, "provider", None),
            (width / 2, "consumer", "//"),
        ):
            for index, method in enumerate(methods):
                entry = body["methods"][method].get(kind)
                if entry is None:
                    continue
                color = method_color(method)
                mean = 100.0 * entry["mean"]
                ci = entry["ci_halfwidth"]
                ax.bar(
                    positions[index] + offset,
                    mean,
                    width=width * 0.92,
                    color=color,
                    hatch=hatch,
                    edgecolor="white",
                    linewidth=0.8,
                    yerr=(
                        None
                        if ci is None
                        else 100.0 * float(ci)
                    ),
                    ecolor=_TEXT_SECONDARY,
                    capsize=2,
                )
        _style_axis(ax)
        ax.set_title(
            f"{scenario}  (plain: providers, hatched: consumers)",
            fontsize=8,
        )
        ax.set_xticks(positions)
        ax.set_xticklabels(methods, fontsize=8)
        ax.set_ylabel(payload["ylabel"], fontsize=8)


def _draw_delta(axes, payload, scenarios) -> None:
    for ax, scenario in zip(axes, scenarios):
        body = payload["scenarios"][scenario]
        methods = body["method_order"]
        positions = np.arange(len(methods), dtype=float)
        values = []
        for method in methods:
            relative = body["methods"][method]["relative"]
            values.append(
                float("nan") if relative is None else 100.0 * relative
            )
        ax.barh(
            positions,
            values,
            height=0.55,
            color=[method_color(m) for m in methods],
        )
        ax.axvline(0.0, color=_TEXT_SECONDARY, linewidth=0.8)
        _style_axis(ax)
        ax.set_title(
            f"{scenario}  vs. {body['baseline']}", fontsize=9
        )
        ax.set_yticks(positions)
        ax.set_yticklabels(methods, fontsize=8)
        ax.set_xlabel("relative delta (%)", fontsize=8)
