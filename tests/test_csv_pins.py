"""Every sweep-table CSV, pinned byte for byte.

The five analysis sweeps run on small jobs; the runtime-record table
runs through ``repro sweep --csv`` on two preset grids and on a
``--models`` grid.  The expected texts are the files the CSV writers
produced before they were folded into one writer, so any change to a
column name, a column order or a float precision shows here.
"""

import pytest

from repro.analysis.reporting import to_csv
from repro.cli import main
from repro.hardware.cluster import Cluster
from repro.inference import InferenceConfig
from repro.units import MiB

from tests.conftest import small_server, tiny_job, tiny_model

EXPECTED = {
    "cluster-scaling": [
        "tp,dp,pp,ok,samples_per_second,tflops,minibatch_time,exposed_tp_sync,exposed_allreduce,peak_gib,placement_mode",
        "1,2,2,1,22850.665,45.378,0.000700,0.000000,0.000239,0.095,packed",
        "2,2,2,1,9445.843,18.758,0.001694,0.001196,0.000242,0.073,packed",
        "2,4,2,0,0.000,0.000,0.000000,0.000000,0.000000,0.000,",
    ],
    "dp-scaling": [
        "dp,ok,samples_per_second,tflops,minibatch_time,exposed_allreduce,peak_gib,scaling_efficiency",
        "1,1,21356.844,42.411,0.000375,0.000000,0.030,1.0000",
        "2,1,27091.635,53.800,0.000591,0.000130,0.095,0.6343",
    ],
    "models-grid": [
        "label,system,ok,tflops,samples_per_second,minibatch_time,peak_gib",
        "bert-0.35/none,none,1,61.811,76.189,0.157503,27.382",
        "bert-0.35/mpress,mpress,1,61.811,76.189,0.157503,27.382",
    ],
    "preset-hybrid-dgx1": [
        "label,system,ok,tflops,samples_per_second,minibatch_time,peak_gib",
        "hybrid/DGX-1-V100/bert-0.35/dp=1,recomputation,1,61.811,76.189,0.157503,27.382",
        "hybrid/DGX-1-V100/bert-0.35/dp=2,recomputation,1,70.338,86.700,0.276818,27.450",
        "hybrid/DGX-1-V100/bert-0.35/dp=4,recomputation,1,73.624,90.749,0.528929,30.597",
    ],
    "preset-serving-dgx1": [
        "label,system,ok,tflops,samples_per_second,minibatch_time,peak_gib",
        "serving/DGX-1-V100/gpt-5.3/kv=d2d,mpress,1,8.740,124.678,2.029225,10.081",
        "serving/DGX-1-V100/gpt-5.3/kv=pcie,mpress,1,8.625,123.046,2.056142,10.081",
        "serving/DGX-1-V100/gpt-5.3/kv=none,mpress,1,9.482,112.195,2.255001,10.035",
    ],
    "resilience": [
        "mtbf,trial,seed,n_faults,n_failures,ok,fault_free_samples_per_second,goodput_samples_per_second,goodput_ratio,recovery_seconds,lost_seconds,makespan",
        "2.000,0,7,1,0,1,21356.844,21162.836,0.9909,0.000000,0.000000,0.000756",
        "2.000,1,8,1,1,1,21356.844,6171.682,0.2890,0.001836,0.000007,0.002592",
        "0.500,0,9,3,1,1,21356.844,7589.726,0.3554,0.001352,0.000235,0.002108",
        "0.500,1,10,2,0,1,21356.844,20943.076,0.9806,0.000000,0.000000,0.000764",
    ],
    "serving": [
        "kv_swap,ok,tokens_per_second,ttft_p50,ttft_p95,ttft_p99,tpot_p50,tpot_p95,tpot_p99,makespan,decode_stall_seconds,swapped_bytes,preemptions",
        "d2d,1,33471.292,0.000020,0.000056,0.000056,0.000021,0.000036,0.000036,0.014819,0.000000,1376256,0",
        "pcie,1,33471.292,0.000020,0.000151,0.000151,0.000021,0.000038,0.000038,0.014819,0.000025,1376256,0",
        "none,1,33471.292,0.000020,0.000698,0.000698,0.000021,0.000021,0.000021,0.014819,0.000000,0,11",
    ],
    "sweep": [
        "model,system,ok,tflops,samples_per_second,minibatch_time,peak_gib",
        "tiny,none,1,42.411,21356.844,0.000375,0.030",
        "tiny,mpress,1,42.411,21356.844,0.000375,0.030",
        "doomed,none,0,0.000,0.000,0.000000,0.000",
        "doomed,mpress,0,0.000,0.000,0.000000,0.000",
    ],
}


def _sweep():
    from repro.analysis.sweep import COLUMNS, run_sweep

    doomed = tiny_job(server=small_server(gpu_memory=4 * MiB), model=tiny_model())
    cells = run_sweep({"tiny": tiny_job(), "doomed": doomed}, ["none", "mpress"])
    return to_csv(cells, COLUMNS)


def _dp_scaling():
    from repro.analysis.dp_scaling import COLUMNS, dp_scaling_sweep

    cells = dp_scaling_sweep(tiny_job(system="dapple", n_minibatches=2),
                             dp_grid=(1, 2), system="none")
    return to_csv(cells, COLUMNS)


def _cluster_scaling():
    from repro.analysis.cluster_scaling import COLUMNS, cluster_scaling_sweep

    cluster = Cluster(name="2x-small", servers=(small_server(), small_server()))
    cells = cluster_scaling_sweep(tiny_job(), cluster,
                                  shapes=((1, 2, 2), (2, 2, 2), (2, 4, 2)))
    return to_csv(cells, COLUMNS)


def _resilience():
    from repro.analysis.resilience import COLUMNS, resilience_sweep

    cells = resilience_sweep(tiny_job(), system="none", mtbf_grid=(2.0, 0.5),
                             trials=2, seed=7)
    return to_csv(cells, COLUMNS)


def _serving():
    from repro.analysis.serving_sweep import COLUMNS, serving_sweep

    # A 1 MiB pool the workload overflows: d2d and pcie spill, none preempts.
    config = InferenceConfig(seed=3, n_requests=12, arrival_rate=1000.0,
                             prompt_mean=40, prompt_max=64, output_mean=40,
                             output_max=64, max_batch=8, kv_pool_mib=1)
    cells = serving_sweep(tiny_job(), config)
    return to_csv(cells, COLUMNS)


def _cli(tmp_path, *args):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", *args, "--quiet", "--csv", str(path)]) == 0
    with open(path, newline="") as handle:
        return handle.read()


ANALYSIS = {
    "sweep": _sweep,
    "dp-scaling": _dp_scaling,
    "cluster-scaling": _cluster_scaling,
    "resilience": _resilience,
    "serving": _serving,
}

CLI = {
    "preset-hybrid-dgx1": ("--preset", "hybrid-dgx1"),
    "preset-serving-dgx1": ("--preset", "serving-dgx1"),
    "models-grid": ("--models", "bert-0.35", "--systems", "none,mpress"),
}


def _text(name):
    return "".join(line + "\r\n" for line in EXPECTED[name])


@pytest.mark.parametrize("name", sorted(ANALYSIS))
def test_analysis_sweep_csv_is_pinned(name):
    assert ANALYSIS[name]() == _text(name)


@pytest.mark.parametrize("name", sorted(CLI))
def test_sweep_cli_csv_is_pinned(name, tmp_path):
    assert _cli(tmp_path, *CLI[name]) == _text(name)
