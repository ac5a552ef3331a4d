"""``compare A.json B.json``: the fixed bounds applied to two result files.

Each file is what ``run --out`` wrote; ``A`` is the baseline.  Per
(end-to-end metric, workload) pair present in both: both medians over
the files' untraced runs, the ratio B/A, and a verdict —

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  either side's run-to-run spread (interquartile range
                over the median) is wider than the bound, so the pair
                cannot tell a regression from noise — unless every run
                of B reads better than every run of A;
``ok``          otherwise.
"""

import statistics

from benchmarks.e2e.bounds import HIGHER, end_to_end_index


def _values(result, workload, metric):
    return [
        run["end_to_end"][metric]["value"]
        for run in result["workloads"][workload]["untraced"]
        if metric in run["end_to_end"]
    ]


def _spread(values):
    """Interquartile range over the median; None below two values."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / median if median else 0.0


def compare(a, b):
    """One row per (metric, workload) pair both results measured."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric, (unit, better, bound) in end_to_end_index().items():
            base = _values(a, workload, metric)
            new = _values(b, workload, metric)
            if not base or not new:
                continue
            base_median = statistics.median(base)
            new_median = statistics.median(new)
            if better == HIGHER:
                worsening = (base_median - new_median)
                all_better = min(new) > max(base)
            else:
                worsening = (new_median - base_median)
                all_better = max(new) < min(base)
            if base_median:
                worsening /= abs(base_median)
            elif worsening > 0:
                worsening = float("inf")  # e.g. failed_frac leaving 0
            spreads = [s for s in (_spread(base), _spread(new))
                       if s is not None]
            if worsening > bound:
                verdict = "worse"
            elif any(s > bound for s in spreads) and not all_better \
                    and bound > 0:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "a": base_median, "b": new_median, "runs": (len(base),
                                                            len(new)),
                "ratio": new_median / base_median if base_median else None,
                "bound": bound, "spread": max(spreads, default=None),
                "verdict": verdict,
            })
    return rows


def render(rows):
    lines = ["%-12s %-18s %12s %12s %-6s %8s %7s %7s  %s" % (
        "workload", "metric", "A median", "B median", "unit", "B/A",
        "bound", "spread", "verdict")]
    for row in rows:
        lines.append("%-12s %-18s %12.6g %12.6g %-6s %8s %6.0f%% %7s  %s" % (
            row["workload"], row["metric"], row["a"], row["b"], row["unit"],
            "-" if row["ratio"] is None else "%.3f" % row["ratio"],
            100 * row["bound"],
            "-" if row["spread"] is None else "%.1f%%" % (100 * row["spread"]),
            row["verdict"],
        ))
    lines.append("(B/A has A's median as its base; A ran %s, B ran %s "
                 "times per workload)" % (
                     sorted({r["runs"][0] for r in rows}),
                     sorted({r["runs"][1] for r in rows})))
    return "\n".join(lines)
