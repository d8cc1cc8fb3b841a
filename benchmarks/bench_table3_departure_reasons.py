"""Table 3 — provider departure reasons at 80 % workload, broken down
by consumer-interest, adaptation, and capacity class.

Paper shape: Capacity based loses providers primarily by
dissatisfaction; the Mariposa-like method loses them primarily through
load pathologies (overutilisation of the adapted providers /
starvation of the others); SQLB loses much less overall, and what it
loses is concentrated in the low-value classes — it "mainly maintains
the high-interest, high-adaptation, and high-capacity providers".
"""

from __future__ import annotations

from conftest import BENCH_SEEDS, bench_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_table3_departure_reasons(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("table3",),
        kwargs={"seeds": BENCH_SEEDS, "base": bench_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "table3_departure_reasons", format_figure("table3", payload)
    )
    tables = figure_values("table3", payload)

    for table in tables.values():
        # The paper's structural invariant: each class-dimension row of
        # a reason sums to that reason's total.
        for reason, dims in table["cells"].items():
            for bands in dims.values():
                row_sum = sum(bands.values())
                assert abs(row_sum - table["totals"][reason]) <= 1e-6

    sqlb = tables["sqlb"]["totals"]
    capacity = tables["capacity"]["totals"]
    mariposa = tables["mariposa"]["totals"]

    # Capacity based: dissatisfaction is the dominant reason.
    assert capacity["dissatisfaction"] >= max(
        capacity["starvation"], capacity["overutilization"]
    )
    # Mariposa-like: load pathologies claim a substantial share.
    load_pathologies = (
        mariposa["starvation"] + mariposa["overutilization"]
    )
    assert load_pathologies > 0.0
    # SQLB loses the fewest providers overall.
    assert sum(sqlb.values()) < sum(capacity.values())
    assert sum(sqlb.values()) < sum(mariposa.values())
