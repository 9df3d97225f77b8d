"""Command-line interface tests (fast paths on the small fixtures)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.jobspec import parse_model


class TestModelSpecParsing:
    def test_bert_spec(self):
        model = parse_model("bert-0.35")
        assert model.config.name == "Bert-0.35B"

    def test_gpt_spec_case_insensitive(self):
        model = parse_model("GPT-5.3b")
        assert model.config.name == "GPT-5.3B"

    def test_bad_specs_rejected(self):
        for spec in ("bert", "llama-7", "bert-xx"):
            with pytest.raises(ConfigurationError):
                parse_model(spec)


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "profile", "plan", "zero", "capacity", "project"):
            assert command in text

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--model", "bert-0.35"])
        assert args.server == "dgx1"
        assert args.system == "mpress"


class TestCommands:
    def test_project_command(self, capsys):
        assert main(["project"]) == 0
        out = capsys.readouterr().out
        assert "GPT-3-175B" in out

    def test_zero_command(self, capsys):
        assert main(["zero", "--model", "gpt-5.3", "--variant", "offload"]) == 0
        out = capsys.readouterr().out
        assert "TFLOPS" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--model", "bert-0.35"]) == 0
        out = capsys.readouterr().out
        assert "stage 0" in out and "breakdown" in out

    def test_run_small_model_ok(self, capsys, tmp_path):
        plan_path = str(tmp_path / "plan.json")
        code = main([
            "run", "--model", "bert-0.35", "--system", "none",
            "--save-plan", plan_path,
        ])
        assert code == 0
        with open(plan_path) as handle:
            payload = json.load(handle)
        assert payload["device_map"] == list(range(8))

    def test_run_oom_returns_nonzero(self):
        assert main(["run", "--model", "bert-0.64", "--system", "none"]) == 1

    def test_bad_model_returns_error_code(self, capsys):
        assert main(["run", "--model", "nope-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_chrome_trace_export(self, tmp_path):
        trace_path = str(tmp_path / "trace.json")
        code = main([
            "run", "--model", "bert-0.35", "--system", "none",
            "--chrome-trace", trace_path,
        ])
        assert code == 0
        with open(trace_path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]


class TestFaultFlags:
    def test_seeded_campaign_prints_goodput(self, capsys, tmp_path):
        report_path = str(tmp_path / "resilience.json")
        code = main([
            "run", "--model", "bert-0.35", "--system", "none",
            "--faults", "seed:7", "--faults-report", report_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out and "goodput" in out
        with open(report_path) as handle:
            payload = json.load(handle)
        assert "goodput_samples_per_second" in payload
        assert payload["schedule"]["faults"]

    def test_schedule_file_accepted(self, capsys, tmp_path):
        from repro.faults import FaultKind, FaultSchedule, FaultSpec, save_faults

        schedule = FaultSchedule(faults=(
            FaultSpec(kind=FaultKind.DEVICE_SLOWDOWN, start=0.0, duration=100.0,
                      device=0, factor=0.5),
        ))
        path = str(tmp_path / "faults.json")
        save_faults(schedule, path)
        code = main([
            "run", "--model", "bert-0.35", "--system", "none", "--faults", path,
        ])
        assert code == 0
        assert "fault campaign" in capsys.readouterr().out

    def test_bad_seed_spec_is_config_error(self, capsys):
        code = main([
            "run", "--model", "bert-0.35", "--system", "none",
            "--faults", "seed:abc",
        ])
        assert code == 2
        assert "seed" in capsys.readouterr().err


class TestSweepAndCache:
    def test_sweep_runs_and_writes_csv(self, capsys, tmp_path):
        csv_path = str(tmp_path / "sweep.csv")
        code = main([
            "sweep", "--models", "bert-0.35", "--systems", "none",
            "--quiet", "--csv", csv_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bert-0.35/none" in out
        assert "executed=1" in out
        with open(csv_path) as handle:
            header, row = handle.read().strip().splitlines()
        assert header.startswith("label,system,ok")
        assert row.startswith("bert-0.35/none,none,1,")

    def test_sweep_rerun_is_fully_cached(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--models", "bert-0.35", "--systems", "none",
                "--quiet", "--cache", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed=1 cached=0" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "executed=0 cached=1" in second

    def test_sweep_requires_preset_or_models(self, capsys):
        assert main(["sweep", "--systems", "none"]) == 2
        assert "either --preset or --models" in capsys.readouterr().err

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["sweep", "--preset", "fig99"]) == 2

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["sweep", "--models", "bert-0.35", "--systems", "none",
              "--quiet", "--cache", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache", cache_dir]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_stats_json(self, capsys, tmp_path):
        import json as jsonlib

        cache_dir = str(tmp_path / "cache")
        main(["sweep", "--models", "bert-0.35", "--systems", "none",
              "--quiet", "--cache", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", cache_dir, "--json"]) == 0
        stats = jsonlib.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["shards"] == 1
        assert stats["total_bytes"] > 0
        assert stats["root"] == cache_dir
        # A fresh CLI-side ResultCache has served no lookups itself.
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_cache_stats_json_on_missing_directory(self, capsys, tmp_path):
        import json as jsonlib

        cache_dir = str(tmp_path / "never-created")
        assert main(["cache", "stats", "--cache", cache_dir, "--json"]) == 0
        stats = jsonlib.loads(capsys.readouterr().out)
        assert stats == {"root": cache_dir, "entries": 0, "total_bytes": 0,
                         "shards": 0, "hits": 0, "misses": 0,
                         "evictions": 0, "hit_rate": 0.0, "max_bytes": None}

    def test_cache_stats_json_reports_evictions_and_hit_rate(
            self, capsys, tmp_path):
        import json as jsonlib

        from repro.runtime import ResultCache

        cache_dir = str(tmp_path / "cache")
        # Force one eviction via a tiny cap, outside the CLI.
        cache = ResultCache(cache_dir, max_bytes=10)
        cache.put("aa" + "0" * 62, {"label": "one"})
        cache.put("bb" + "0" * 62, {"label": "two"})
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", cache_dir, "--json"]) == 0
        stats = jsonlib.loads(capsys.readouterr().out)
        assert stats["evictions"] == 1      # read back from _meta.json
        assert stats["entries"] == 1
        assert "hit_rate" in stats

    def test_cache_clear_keep_newer_than_spares_fresh_entries(
            self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["sweep", "--models", "bert-0.35", "--systems", "none",
              "--quiet", "--cache", cache_dir])
        capsys.readouterr()
        # Everything was written milliseconds ago: a guarded clear
        # removes nothing.
        assert main(["cache", "clear", "--cache", cache_dir,
                     "--keep-newer-than", "3600"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache", cache_dir]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_cache_evict_requires_max_mib(self, capsys, tmp_path):
        assert main(["cache", "evict",
                     "--cache", str(tmp_path / "cache")]) == 2

    def test_cache_evict_to_cap(self, capsys, tmp_path):
        import json as jsonlib

        cache_dir = str(tmp_path / "cache")
        main(["sweep", "--models", "bert-0.35", "--systems",
              "none,recomputation", "--quiet", "--cache", cache_dir])
        capsys.readouterr()
        assert main(["cache", "evict", "--cache", cache_dir,
                     "--max-mib", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert main(["cache", "stats", "--cache", cache_dir,
                     "--json"]) == 0
        stats = jsonlib.loads(capsys.readouterr().out)
        assert stats["entries"] < 2          # at least one LRU victim
        assert stats["total_bytes"] <= int(0.001 * 2**20)
        assert stats["evictions"] >= 1       # persisted in _meta.json


class TestPlannerKnobs:
    def test_no_striping_and_identity_mapping(self, capsys):
        code = main([
            "run", "--model", "bert-0.35", "--system", "mpress",
            "--no-striping", "--mapping", "identity",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Identity mapping shows in the printed plan.
        assert "[0, 1, 2, 3, 4, 5, 6, 7]" in out

    def test_mapping_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "x", "--mapping", "best"])


class TestHybridCommand:
    def test_registered_in_help(self):
        assert "hybrid" in build_parser().format_help()

    def test_defaults(self):
        args = build_parser().parse_args(["hybrid", "--model", "bert-0.35"])
        assert args.dp == 2
        assert args.system == "mpress"
        assert args.algorithm == "auto"
        assert args.bucket_mib == 25.0
        assert args.placement == "auto"
        assert not args.no_overlap

    def test_hybrid_run(self, capsys):
        code = main([
            "hybrid", "--model", "bert-0.35", "--system", "none",
            "--dp", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dp=2" in out
        assert "gradient synchronisation" in out
        assert "exposed" in out

    def test_hybrid_dp_must_divide(self, capsys):
        assert main(["hybrid", "--model", "bert-0.35", "--dp", "3"]) == 2

    def test_hybrid_explicit_algorithm_and_placement(self, capsys):
        code = main([
            "hybrid", "--model", "bert-0.35", "--system", "none",
            "--dp", "2", "--algorithm", "ring", "--placement", "contiguous",
            "--no-overlap",
        ])
        assert code == 0
        assert "ring" in capsys.readouterr().out

    def test_hybrid_dp4_prints_the_strided_layout(self, capsys):
        code = main([
            "hybrid", "--model", "bert-0.35", "--system", "none",
            "--dp", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tp=1 dp=4 pp=2" in out
        assert "placement (strided): 0,4 | 1,5 | 2,6 | 3,7" in out

    def test_explicit_pp_takes_the_cluster_path(self, capsys):
        code = main([
            "hybrid", "--model", "bert-0.35", "--system", "none",
            "--dp", "2", "--pp", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tp=1 dp=2 pp=3" in out
        assert "placement (packed): 0,1,2 | 3,4,5" in out

    @pytest.mark.parametrize("flags,named", [
        (["--sp"], "--sp"),
        (["--cluster-placement", "spread"], "--cluster-placement"),
        (["--nodes", "2", "--placement", "strided"], "--placement"),
        (["--tp", "2", "--placement", "islands"], "--placement"),
    ])
    def test_flag_the_path_cannot_read_is_an_error(self, capsys, flags,
                                                   named):
        code = main(["hybrid", "--model", "bert-0.35", "--system", "none",
                     *flags])
        assert code == 2
        assert named in capsys.readouterr().err


class TestZeroOptionsFlags:
    def test_flag_defaults_preserve_output(self, capsys):
        argv = ["zero", "--model", "gpt-5.3", "--variant", "offload"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        assert main(argv + ["--ring-efficiency", "0.8",
                            "--comm-overlap", "0.5",
                            "--comm-model", "analytic"]) == 0
        assert capsys.readouterr().out == baseline

    def test_comm_model_collective_changes_comm(self, capsys):
        # bert-0.35 has little compute to hide behind, so the pricier
        # schedule-based comm model visibly changes the exposed time.
        argv = ["zero", "--model", "bert-0.35", "--variant", "offload"]
        assert main(argv) == 0
        analytic = capsys.readouterr().out
        assert main(argv + ["--comm-model", "collective"]) == 0
        collective = capsys.readouterr().out
        assert collective != analytic


class TestCacheEdgeCases:
    def test_stats_on_missing_directory(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "never-created")
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_clear_on_missing_directory(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "never-created")
        assert main(["cache", "clear", "--cache", cache_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_stats_and_clear_on_empty_directory(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "empty")
        (tmp_path / "empty").mkdir()
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache", cache_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out


class TestServeCommand:
    def test_registered_in_help(self):
        assert "serve" in build_parser().format_help()

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.jobs == 1
        assert args.cache is None
        assert args.cache_max_mib is None
        assert args.retries == 2
        assert not args.quiet

    def test_cache_cap_flag_parses(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--jobs", "4",
            "--cache", "/tmp/c", "--cache-max-mib", "64",
        ])
        assert args.cache == "/tmp/c"
        assert args.cache_max_mib == 64.0


class TestAutoplanCommand:
    def test_registered_in_help(self):
        assert "autoplan" in build_parser().format_help()

    def test_defaults(self):
        args = build_parser().parse_args(["autoplan", "--model", "bert-0.35"])
        assert args.system == "mpress"
        assert args.budget_gib is None
        assert args.frontier_fraction == 0.25
        assert args.max_frontier is None
        assert not args.json

    def test_autoplan_run(self, capsys):
        code = main([
            "autoplan", "--model", "bert-0.35", "--max-frontier", "1",
            "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "autoplan over" in out
        assert "simulated" in out

    def test_autoplan_json(self, capsys):
        code = main([
            "autoplan", "--model", "bert-0.35", "--max-frontier", "1",
            "--quiet", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"]["simulated"] is True
        assert payload["counters"]["n_simulated"] == 1
        assert payload["ranked"]
        for key in ("tp", "dp", "pp", "samples_per_second",
                    "exposed_allreduce", "peak_demand_gib"):
            assert key in payload["best"]

    def test_infeasible_budget_fails(self, capsys):
        code = main([
            "autoplan", "--model", "gpt-5.3", "--budget-gib", "0.001",
            "--quiet",
        ])
        assert code == 1
        assert "rejected" in capsys.readouterr().out


class TestPlanJson:
    def test_plan_json(self, capsys):
        code = main(["plan", "--model", "bert-0.35", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["shape"] is None
        assert len(payload["per_gpu_peak_gib"]) == 8
        # BERT-0.35 fits without D2D demand, so no mapping search ran.
        assert payload["mapping"] is None
        assert payload["n_emulations"] >= 1
        assert "search" not in payload

    def test_search_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["plan", "--model", "bert-0.35", "--search", "emulate"])
        assert info.value.code == 2
        assert "--search" in capsys.readouterr().err

    def test_plan_json_reports_mapping_search(self, capsys):
        code = main(["plan", "--model", "bert-0.64", "--json"])
        assert code == 0
        mapping = json.loads(capsys.readouterr().out)["mapping"]
        assert mapping["device_map"] == [0, 7, 5, 6, 2, 1, 4, 3]
        assert mapping["mappings_evaluated"] == 40320
        assert mapping["distinct_evaluations"] == 2340
        assert mapping["bound_pruned"] == 2274
        assert mapping["score"] > 0
        assert 0.0 < mapping["placed_fraction"] <= 1.0

    def test_plan_json_peaks_are_the_returned_plans_emulated_peaks(
            self, capsys, tmp_path):
        from repro import bert_variant, dgx1_server, pipedream_job
        from repro.core.emulator import Emulator
        from repro.core.serialization import load_plan
        from repro.units import GiB

        out = tmp_path / "plan.json"
        code = main(["plan", "--model", "bert-0.64", "--json",
                     "--out", str(out)])
        assert code == 0
        peaks = json.loads(capsys.readouterr().out)["per_gpu_peak_gib"]
        job = pipedream_job(bert_variant(0.64), dgx1_server())
        assert all(peak <= job.server.gpu_memory / GiB for peak in peaks)
        emulated = Emulator(job, prefetch_lead=2).run(load_plan(out))
        assert peaks == [peak / GiB for peak in emulated.device_peaks]

    def test_plan_json_cluster_shape(self, capsys):
        code = main([
            "plan", "--model", "gpt-5.3", "--nodes", "2", "--tp", "2",
            "--dp", "2", "--pp", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        shape = payload["shape"]
        assert (shape["tp"], shape["dp"], shape["pp"]) == (2, 2, 2)
        assert shape["cluster"] == "2x-dgx1"
        assert shape["score"] > 0

    @pytest.mark.parametrize("flags,dp,pp", [
        (["--dp", "2"], 2, 4),
        (["--pp", "3"], 1, 3),
    ])
    def test_explicit_dp_or_pp_plans_one_chain(self, capsys, flags, dp, pp):
        code = main(["plan", "--model", "bert-0.35", "--json", *flags])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        shape = payload["shape"]
        assert (shape["tp"], shape["dp"], shape["pp"]) == (1, dp, pp)
        assert shape["cluster"] == "1x-dgx1"
        assert len(payload["per_gpu_peak_gib"]) == pp

    def test_sp_without_tp_is_an_error(self, capsys):
        code = main(["plan", "--model", "bert-0.35", "--json", "--sp"])
        assert code == 2
        assert "--sp" in capsys.readouterr().err


class TestServeSim:
    def test_reports_latency_and_throughput(self, capsys):
        code = main([
            "serve-sim", "--model", "gpt-5.3", "--requests", "6",
            "--kv-swap", "d2d",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tokens/sec" in out
        assert "TTFT p50/p95/p99" in out
        assert "TPOT p50/p95/p99" in out

    def test_json_metrics(self, capsys):
        code = main([
            "serve-sim", "--model", "gpt-5.3", "--requests", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requests"] == 4
        assert payload["kv_swap"] == "d2d"
        assert payload["tokens_per_second"] > 0

    def test_swap_forcing_pool_reports_spill(self, capsys):
        code = main([
            "serve-sim", "--model", "gpt-5.3", "--requests", "10",
            "--seed", "3", "--arrival-rate", "32", "--max-batch", "6",
            "--kv-pool-mib", "199", "--kv-swap", "pcie", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["swapped_bytes"] > 0

    def test_bad_kv_pool_rejected(self, capsys):
        code = main([
            "serve-sim", "--model", "gpt-5.3", "--kv-pool-mib", "-1",
        ])
        assert code == 2
        assert "kv_pool_mib" in capsys.readouterr().err


class TestSingleNodeGuard:
    def test_guard_names_the_offending_flag(self, capsys):
        code = main(["run", "--model", "bert-0.35", "--nodes", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--nodes 2" in err
        assert "'run' simulates one server" in err

    def test_profile_guard_names_the_offending_flag(self, capsys):
        code = main(["profile", "--model", "bert-0.35", "--nodes", "3"])
        assert code == 2
        assert "--nodes 3" in capsys.readouterr().err
