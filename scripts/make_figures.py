"""Regenerate every paper figure/table into the figures/ directory.

Runs the same experiments as the benchmark suite but writes artifacts
to disk: plain-text tables, ASCII bar charts, and CSVs suitable for
external plotting.

Usage:  python scripts/make_figures.py [--out figures] [--quick]

``--quick`` limits the sweeps to the two smallest model sizes so a
full artifact set builds in about a minute.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.plotting import grouped_bars
from repro.analysis.reporting import format_series, format_table, save_csv
from repro.analysis.sweep import COLUMNS, pivot, run_sweep
from repro.baselines.zero import run_zero
from repro.core.profiler import Profiler
from repro.hardware import dgx1_server, dgx2_server
from repro.hardware.bandwidth import effective_bandwidth
from repro.hardware.links import NVLINK2, PCIE3_X16
from repro.job import dapple_job, pipedream_job
from repro.models import bert_variant, gpt_variant
from repro.units import GB, GBps, KB, MB


def write(out_dir: str, name: str, text: str) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"wrote {path}")


def figure4(out_dir: str) -> None:
    sizes = [64 * KB, 1 * MB, 16 * MB, 256 * MB, 1 * GB]
    labels = ["64KB", "1MB", "16MB", "256MB", "1GB"]
    lines = ["Figure 4: effective unidirectional bandwidth (GB/s)"]
    curves = {"PCIe": PCIE3_X16}
    for lanes in (2, 4, 6):
        values = [effective_bandwidth(s, NVLINK2, lanes=lanes) / GBps for s in sizes]
        lines.append(format_series(f"NV{lanes}", labels, values))
    lines.insert(1, format_series(
        "PCIe", labels, [effective_bandwidth(s, PCIE3_X16) / GBps for s in sizes]
    ))
    write(out_dir, "figure4_bandwidth.txt", "\n".join(lines))


def table2(out_dir: str, quick: bool) -> None:
    server = dgx1_server()
    bert_sizes = (0.35, 0.64) if quick else (0.35, 0.64, 1.67, 4.0, 6.2)
    gpt_sizes = (5.3,) if quick else (5.3, 10.3, 15.4, 20.4, 25.5)
    rows = []
    for billions in bert_sizes:
        profile = Profiler(pipedream_job(bert_variant(billions), server)).run()
        peaks = [p / 1e9 for p in profile.stage_peaks]
        rows.append([f"Bert-{billions}B", f"{sum(peaks):.1f}",
                     f"{max(peaks):.1f}", f"{min(peaks):.1f}"])
    for billions in gpt_sizes:
        profile = Profiler(dapple_job(gpt_variant(billions), server)).run()
        peaks = [p / 1e9 for p in profile.stage_peaks]
        rows.append([f"GPT-{billions}B", f"{sum(peaks):.1f}",
                     f"{max(peaks):.1f}", f"{min(peaks):.1f}"])
    write(out_dir, "table2_memory_demand.txt", format_table(
        ["job", "total GB", "max/stage", "min/stage"], rows,
        title="Table II: GPU memory demands",
    ))


def figure7(out_dir: str, quick: bool) -> None:
    server = dgx1_server()
    sizes = (0.35, 0.64) if quick else (0.35, 0.64, 1.67, 4.0, 6.2)
    systems = ["none", "recomputation", "gpu-cpu-swap", "mpress"]
    jobs = {
        f"Bert-{billions}B": pipedream_job(bert_variant(billions), server)
        for billions in sizes
    }
    cells = run_sweep(jobs, systems)
    save_csv(cells, COLUMNS, os.path.join(out_dir, "figure7_bert.csv"))
    table = pivot(cells)
    series = {
        system: [
            table[model][system].tflops if table[model][system].ok else None
            for model in jobs
        ]
        for system in systems
    }
    write(out_dir, "figure7_bert.txt", grouped_bars(
        list(jobs), series, unit=" TF",
        title="Figure 7: Bert + PipeDream on DGX-1 (TFLOPS)",
    ))


def figure8(out_dir: str, quick: bool) -> None:
    sizes = (5.3,) if quick else (5.3, 10.3, 15.4, 20.4, 25.5)
    for tag, server in (("a_dgx1", dgx1_server()), ("b_dgx2", dgx2_server())):
        jobs = {
            f"GPT-{billions}B": dapple_job(gpt_variant(billions), server)
            for billions in sizes
        }
        cells = run_sweep(jobs, ["none", "recomputation", "mpress"])
        save_csv(cells, COLUMNS, os.path.join(out_dir, f"figure8{tag}.csv"))
        table = pivot(cells)
        series = {
            system: [
                table[model][system].tflops if table[model][system].ok else None
                for model in jobs
            ]
            for system in ("none", "recomputation", "mpress")
        }
        for model_name, job in jobs.items():
            for variant in ("offload", "infinity"):
                zero = run_zero(job.model, server, variant, job.samples_per_minibatch)
                series.setdefault(f"zero-{variant}", []).append(
                    zero.tflops if zero.ok else None
                )
        write(out_dir, f"figure8{tag}.txt", grouped_bars(
            list(jobs), series, unit=" TF",
            title=f"Figure 8{tag[0]}: GPT + DAPPLE on {server.name} (TFLOPS)",
        ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    figure4(args.out)
    table2(args.out, args.quick)
    figure7(args.out, args.quick)
    figure8(args.out, args.quick)
    print("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
