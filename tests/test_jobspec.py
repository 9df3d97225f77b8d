"""JSON job spec tests."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.jobspec import job_from_spec, job_to_spec, load_job


class TestJobFromSpec:
    def test_minimal_spec(self):
        job = job_from_spec({"model": "bert-0.35", "server": "dgx1"})
        assert job.model.config.name == "Bert-0.35B"
        assert job.system == "pipedream"  # defaulted from the family

    def test_gpt_defaults_to_dapple(self):
        job = job_from_spec({"model": "gpt-5.3", "server": "dgx1"})
        assert job.system == "dapple"

    def test_full_spec(self):
        job = job_from_spec({
            "model": "gpt-5.3",
            "server": "dgx2",
            "pipeline": "gpipe",
            "microbatch_size": 4,
            "microbatches_per_minibatch": 8,
            "n_minibatches": 3,
            "mfu": 0.4,
        })
        assert job.system == "gpipe"
        assert job.microbatch_size == 4
        assert job.microbatches_per_minibatch == 8
        assert job.n_minibatches == 3
        assert job.mfu == 0.4

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="model"):
            job_from_spec({"server": "dgx1"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            job_from_spec({"model": "bert-0.35", "server": "dgx1", "gpu": 8})

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            job_from_spec({"model": "bert-0.35", "server": "dgx1",
                           "pipeline": "megatron"})


class TestFileLoading:
    def test_load_job(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"model": "bert-0.35", "server": "dgx1"}))
        job = load_job(str(path))
        assert job.model.config.name == "Bert-0.35B"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_job(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="object"):
            load_job(str(path))


class TestRoundTrip:
    def test_spec_to_job_to_spec(self):
        spec = {
            "model": "gpt-5.3",
            "server": "dgx1",
            "pipeline": "dapple",
            "microbatch_size": 2,
            "microbatches_per_minibatch": 16,
            "n_minibatches": 2,
        }
        job = job_from_spec(spec)
        back = job_to_spec(job, "gpt-5.3", "dgx1")
        rebuilt = job_from_spec(back)
        assert rebuilt.schedule.mode == job.schedule.mode
        assert rebuilt.samples_per_minibatch == job.samples_per_minibatch

    def test_cli_spec_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "job.json"
        path.write_text(json.dumps({"model": "bert-0.35", "server": "dgx1"}))
        assert main(["profile", "--spec", str(path)]) == 0
        assert "Bert-0.35B" in capsys.readouterr().out


class TestInferenceSpecs:
    def test_inference_spec_builds_a_serving_task(self):
        from repro.jobspec import task_from_spec

        task = task_from_spec({
            "model": "gpt-5.3", "server": "dgx1",
            "workload": "inference",
            "inference": {"n_requests": 8, "kv_swap": "pcie"},
        })
        assert task.inference is not None
        assert task.inference.n_requests == 8
        assert task.inference.kv_swap == "pcie"
        assert task.label == "serving/gpt-5.3/dgx1/kv=pcie"

    def test_workload_defaults_to_training(self):
        from repro.jobspec import inference_config_from_spec

        assert inference_config_from_spec(
            {"model": "gpt-5.3", "server": "dgx1"}) is None

    def test_trace_lists_become_tuples(self):
        from repro.jobspec import inference_config_from_spec

        config = inference_config_from_spec({
            "model": "gpt-5.3", "server": "dgx1",
            "workload": "inference",
            "inference": {"arrival": "trace",
                          "trace": [[0.0, 32, 8], [0.5, 16, 4]]},
        })
        assert config.trace == ((0.0, 32, 8), (0.5, 16, 4))

    @pytest.mark.parametrize("extra,match", [
        ({"workload": "batch"}, "unknown workload"),
        ({"inference": {"n_requests": 4}}, "workload"),
        ({"workload": "inference", "nodes": 2}, "cluster key"),
        ({"workload": "inference", "tp": 2}, "cluster key"),
        ({"workload": "inference", "shape": "auto"}, "training-shape"),
        ({"workload": "inference", "inference": {"bogus": 1}},
         "unknown inference keys"),
        ({"workload": "inference", "inference": [1]}, "JSON object"),
        ({"workload": "inference", "faults_seed": 1}, "fault injection"),
        ({"workload": "inference", "hybrid_dp": 2}, "hybrid_dp"),
    ])
    def test_contradictory_specs_rejected(self, extra, match):
        from repro.jobspec import task_from_spec

        spec = {"model": "gpt-5.3", "server": "dgx1"}
        spec.update(extra)
        with pytest.raises(ConfigurationError, match=match):
            task_from_spec(spec)

    def test_inference_spec_executes(self):
        from repro.jobspec import task_from_spec
        from repro.runtime.task import execute_task

        record = execute_task(task_from_spec({
            "model": "gpt-5.3", "server": "dgx1",
            "workload": "inference",
            "inference": {"n_requests": 4},
        }))
        assert record["ok"]
        assert record["inference"]["n_requests"] == 4


class TestTrainingTaskSpecs:
    BERT = {"model": "bert-0.35", "server": "dgx1"}

    def test_plain_spec_is_a_train_task(self):
        from repro.jobspec import cluster_from_spec, task_from_spec

        assert cluster_from_spec(self.BERT) is None
        task = task_from_spec(self.BERT)
        assert task.kind == "train"
        assert task.label == "bert-0.35/dgx1/mpress"

    @pytest.mark.parametrize("extra,shape", [
        ({"dp": 2}, "tp=1,dp=2,pp=0"),
        ({"pp": 3}, "tp=1,dp=1,pp=3"),
        ({"nodes": 1, "tp": 1, "dp": 2, "pp": 4}, "tp=1,dp=2,pp=4"),
    ])
    def test_single_box_degrees_take_the_cluster_path(self, extra, shape):
        from repro.jobspec import task_from_spec

        task = task_from_spec(dict(self.BERT, **extra))
        assert task.kind == "cluster"
        assert task.cluster.n_servers == 1
        assert task.label.endswith(shape)
        assert "cluster_config" in task.key_payload()
        assert task.cache_key() != task_from_spec(self.BERT).cache_key()

    @pytest.mark.parametrize("key", ["nodes", "tp", "dp", "pp"])
    def test_non_integer_degree_rejected(self, key):
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match="integer"):
            task_from_spec(dict(self.BERT, **{key: "two"}))

    @pytest.mark.parametrize("extra,key", [
        ({"nodes": 0}, "nodes"),
        ({"nodes": -1}, "nodes"),
        ({"tp": 0}, "tp"),
        ({"tp": -2}, "tp"),
        ({"dp": 0}, "dp"),
        ({"dp": -1}, "dp"),
        ({"pp": -1}, "pp"),
        ({"tp": 0, "dp": 2}, "tp"),
        ({"nodes": 0, "shape": "auto"}, "nodes"),
        ({"dp": 0, "hybrid_dp": 2}, "dp"),
    ])
    def test_non_positive_degree_rejected(self, extra, key):
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match=f"^{key} must be >= "):
            task_from_spec(dict(self.BERT, **extra))

    def test_zero_pp_means_auto(self):
        from repro.jobspec import cluster_from_spec, task_from_spec

        assert cluster_from_spec(dict(self.BERT, pp=0)) is None
        assert task_from_spec(dict(self.BERT, pp=0)).kind == "train"

    def test_hybrid_dp_with_explicit_dp_rejected(self):
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match="hybrid_dp"):
            task_from_spec(dict(self.BERT, hybrid_dp=2, dp=2))
        assert task_from_spec(dict(self.BERT, hybrid_dp=2)).kind == "hybrid"

    @pytest.mark.parametrize("dp", [0, 3, 5, 8])
    def test_hybrid_dp_must_split_the_server_into_pipelines(self, dp):
        # DGX-1 has 8 GPUs: dp must divide them into replicas of >= 2.
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match="^hybrid_dp: "):
            task_from_spec(dict(self.BERT, hybrid_dp=dp))

    @pytest.mark.parametrize("dp", [1, 2, 4])
    def test_hybrid_dp_that_splits_the_server_accepted(self, dp):
        from repro.jobspec import task_from_spec

        task = task_from_spec(dict(self.BERT, hybrid_dp=dp))
        assert task.hybrid.dp == dp

    def test_zero_task_with_faults_rejected(self):
        from repro.jobspec import task_from_spec

        spec = {"model": "gpt-5.3", "server": "dgx1",
                "system": "zero-offload"}
        assert task_from_spec(spec).kind == "zero"
        with pytest.raises(ConfigurationError, match="faults"):
            task_from_spec(dict(spec, faults_seed=3))


class TestMistypedSpecValues:
    """Spec values arrive as client JSON: a wrong type is a
    ConfigurationError naming the key, never a bare ValueError or
    TypeError (which ``repro serve`` would not answer)."""

    BERT = {"model": "bert-0.35", "server": "dgx1"}

    @pytest.mark.parametrize("extra,key", [
        ({"faults_seed": "two"}, "faults_seed"),
        ({"faults_seed": True}, "faults_seed"),
        ({"faults_seed": 1.5}, "faults_seed"),
        ({"faults_seed": 1, "faults_horizon": None}, "faults_horizon"),
        ({"faults_seed": 1, "faults_horizon": float("inf")},
         "faults_horizon"),
        ({"hybrid_dp": "x"}, "hybrid_dp"),
        ({"nodes": 2, "shape": "auto", "budget_gib": "lots"}, "budget_gib"),
        ({"tp": 2, "sequence_parallel": "false"}, "sequence_parallel"),
        ({"nodes": 2, "shape": "auto", "sequence_parallel": 1},
         "sequence_parallel"),
        ({"tp": None, "dp": 2}, "tp"),
        ({"microbatch_size": "x"}, "microbatch_size"),
        ({"mfu": "x"}, "mfu"),
        ({"model": 5}, "model"),
        ({"server": []}, "server"),
        ({"pipeline": [1]}, "pipeline"),
        ({"nodes": 2, "fabric": []}, "fabric"),
        ({"label": 5}, "label"),
    ])
    def test_rejected_with_the_key_named(self, extra, key):
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match=key):
            task_from_spec(dict(self.BERT, **extra))

    def test_mistyped_inference_settings_rejected(self):
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match="inference settings"):
            task_from_spec({"model": "gpt-5.3", "server": "dgx1",
                            "workload": "inference",
                            "inference": {"n_requests": "x"}})

    @pytest.mark.parametrize("body,key", [
        ('{"arrival_rate": NaN, "n_requests": 4}', "arrival_rate"),
        ('{"arrival_rate": Infinity}', "arrival_rate"),
        ('{"mfu": NaN}', "mfu"),
        ('{"shared_prefix_fraction": NaN}', "shared_prefix_fraction"),
        ('{"n_requests": 4.5}', "n_requests"),
        ('{"max_batch": 2.5}', "max_batch"),
        ('{"pp": true}', "pp"),
        ('{"kv_pool_mib": 99.5}', "kv_pool_mib"),
        ('{"arrival": "trace", "trace": [[NaN, 8, 4]]}', "trace entry"),
        ('{"arrival": "trace", "trace": [[0.0, 8.5, 4]]}', "trace entry"),
    ])
    def test_non_finite_or_fractional_inference_values_rejected(self, body, key):
        """JSON admits NaN and Infinity; neither reaches the scheduler."""
        from repro.jobspec import task_from_spec

        with pytest.raises(ConfigurationError, match=key):
            task_from_spec({"model": "gpt-5.3", "server": "dgx1",
                            "workload": "inference",
                            "inference": json.loads(body)})

    def test_service_benchmark_deck_accepted(self):
        """Every spec the sweep-service benchmark POSTs still parses."""
        from perfbench import inputs
        from repro.jobspec import task_from_spec

        specs = inputs.warmup_specs() + [
            spec for jobs in inputs.service_mix(1) for spec in jobs]
        for spec in specs:
            task_from_spec(spec)
