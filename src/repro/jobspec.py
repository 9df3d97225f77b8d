"""JSON job specifications for the CLI and scripting.

A job spec is a small JSON document describing one training job —
model, server, pipeline system, batch geometry — so experiments are
reproducible from checked-in files instead of command lines::

    {
      "model": "gpt-10.3",
      "server": "dgx1",
      "pipeline": "dapple",
      "microbatch_size": 2,
      "microbatches_per_minibatch": 16,
      "n_minibatches": 2
    }

Cluster keys (``nodes``, ``fabric``, ``tp``, ``dp``, ``pp``,
``sequence_parallel``) describe a 3D-parallel run; they are ignored by
:func:`load_job` (which builds the per-replica job) and consumed by
:func:`cluster_from_spec` / :func:`cluster_config_from_spec`.

``"shape": "auto"`` hands the (tp, dp, pp) choice to the unified
auto-parallel planner (:mod:`repro.autoplan`) instead of reading the
explicit degrees; ``budget_gib`` optionally tightens the per-GPU
memory budget the shape search plans under.

``"workload": "inference"`` switches a task spec to an LLM-serving
simulation (:mod:`repro.inference`); the optional ``"inference"``
object carries the arrival process, KV pool cap, and swap policy::

    {"model": "gpt-5.3", "server": "dgx1", "workload": "inference",
     "inference": {"n_requests": 32, "kv_swap": "d2d"}}
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.hardware.server import Server, dgx1_server, dgx2_server
from repro.job import TrainingJob, dapple_job, gpipe_job, pipedream_job
from repro.models import bert_variant, gpt_variant

SERVERS = {"dgx1": dgx1_server, "dgx2": dgx2_server}
PIPELINES = {"pipedream": pipedream_job, "dapple": dapple_job,
             "gpipe": gpipe_job}
# Memory-saving pipeline systems (the paper's Figure 7 columns) and
# the analytic ZeRO baselines.
SYSTEMS = ("none", "recomputation", "gpu-cpu-swap", "d2d-only", "mpress")
ZERO_SYSTEMS = ("zero-offload", "zero-infinity")

_REQUIRED = ("model", "server")
_OPTIONAL = {
    "pipeline": None,
    "microbatch_size": None,
    "microbatches_per_minibatch": None,
    "n_minibatches": None,
    "mfu": None,
}
_CLUSTER = {
    "nodes": 1,
    "fabric": "ib-edr",
    "tp": 1,
    "dp": 1,
    "pp": 0,
    "sequence_parallel": False,
    "shape": "explicit",
    "budget_gib": None,
}
_SERVING = {
    "workload": "training",
    "inference": None,
}


# Typed readers for spec values.  A spec arrives as parsed JSON (from a
# file or an HTTP body), so a wrong type is the client's error: each
# reader raises a ConfigurationError naming the key instead of letting
# a bare int()/float() escape as ValueError or TypeError.

def _integer(key: str, value) -> int:
    """``value`` if it is a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value):
    """``value`` if it is a finite JSON number."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigurationError(
            f"{key} must be a finite number, got {value!r}")
    return value


def _flag(key: str, value) -> bool:
    """``value`` if it is a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    return value


def _name(key: str, value) -> str:
    """``value`` if it is a JSON string."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{key} must be a string, got {value!r}")
    return value


def parse_model(spec: str):
    """'bert-0.64' / 'gpt-10.3' -> a model variant."""
    try:
        family, size = spec.split("-", 1)
        billions = float(size.rstrip("bB"))
    except ValueError:
        raise ConfigurationError(
            f"model spec {spec!r} must look like 'bert-0.64' or 'gpt-10.3'"
        )
    if family.lower() == "bert":
        return bert_variant(billions)
    if family.lower() == "gpt":
        return gpt_variant(billions)
    raise ConfigurationError(f"unknown model family {family!r}")


def build_server(name: str) -> Server:
    """A fresh server of the named type."""
    builder = SERVERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown server {name!r}; options: {sorted(SERVERS)}")
    return builder()


def default_pipeline(model_spec: str) -> str:
    """PipeDream for BERT, DAPPLE for GPT (the paper's pairing)."""
    return "pipedream" if model_spec.lower().startswith("bert") else "dapple"


def build_cluster(server: str, nodes: int, fabric: str):
    """``nodes`` copies of the named server over the named fabric."""
    from repro.hardware.cluster import make_cluster
    from repro.hardware.links import FABRICS

    nodes = _integer("nodes", nodes or 1)
    link = FABRICS.get(_name("fabric", fabric))
    if link is None:
        raise ConfigurationError(
            f"unknown fabric {fabric!r}; options: {sorted(FABRICS)}")
    if _name("server", server) not in SERVERS:
        raise ConfigurationError(
            f"unknown server {server!r}; options: {sorted(SERVERS)}")
    return make_cluster(SERVERS[server], nodes, name=f"{nodes}x-{server}",
                        fabric=link)


def job_from_spec(spec: Dict) -> TrainingJob:
    """Build a :class:`TrainingJob` from a parsed spec dict."""
    unknown = (set(spec) - set(_REQUIRED) - set(_OPTIONAL) - set(_CLUSTER)
               - set(_SERVING))
    if unknown:
        raise ConfigurationError(f"unknown job spec keys: {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in spec:
            raise ConfigurationError(f"job spec missing required key {key!r}")

    model = parse_model(_name("model", spec["model"]))
    server = build_server(_name("server", spec["server"]))
    pipeline = spec.get("pipeline") or default_pipeline(spec["model"])
    builder = PIPELINES.get(_name("pipeline", pipeline))
    if builder is None:
        raise ConfigurationError(f"unknown pipeline {pipeline!r}")

    kwargs = {}
    for key in ("microbatch_size", "microbatches_per_minibatch",
                "n_minibatches"):
        if spec.get(key) is not None:
            kwargs[key] = _integer(key, spec[key])
    if spec.get("mfu") is not None:
        kwargs["mfu"] = _number("mfu", spec["mfu"])
    return builder(model, server, **kwargs)


def load_job(path: str) -> TrainingJob:
    """Read a job spec file and build the job."""
    with open(path) as handle:
        try:
            spec = json.load(handle)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"{path}: invalid JSON ({error})")
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{path}: job spec must be a JSON object")
    return job_from_spec(spec)


def _explicit_degrees(spec: Dict, keys=("nodes", "tp", "dp", "pp")
                      ) -> List[str]:
    """The parallelism ``keys`` the spec sets away from their defaults.

    Each degree is checked whether or not it is explicit: nodes, tp
    and dp must be at least 1, and pp at least 0 (0 picks the depth).
    """
    explicit = []
    for key in keys:
        default = _CLUSTER[key]
        value = _integer(key, spec.get(key, default))
        least = 0 if key == "pp" else 1
        if value < least:
            raise ConfigurationError(f"{key} must be >= {least}, got {value}")
        if value != default:
            explicit.append(key)
    return explicit


def cluster_from_spec(spec: Dict, force: bool = False):
    """The spec's :class:`~repro.hardware.cluster.Cluster`, or ``None``.

    ``None`` when the spec leaves nodes, tp, dp and pp at their
    defaults — callers fall back to the plain job path.  Any explicit
    degree, even on one box, takes the cluster path, so it reaches the
    task's label and cache key.  ``force`` builds the (one-server)
    cluster anyway; the autoplan path needs a real cluster even for a
    single box, since the shape search itself decides the degrees.
    """
    explicit = _explicit_degrees(spec)   # checks every degree, forced or not
    if not explicit and not force:
        return None
    return build_cluster(spec["server"], spec.get("nodes", 1),
                         spec.get("fabric", "ib-edr"))


def cluster_config_from_spec(spec: Dict):
    """The spec's :class:`~repro.parallel.cluster.ClusterConfig`."""
    from repro.parallel.cluster import ClusterConfig

    return ClusterConfig(
        tp=_integer("tp", spec.get("tp", 1)),
        dp=_integer("dp", spec.get("dp", 1)),
        pp=_integer("pp", spec.get("pp", 0)),
        sequence_parallel=_flag("sequence_parallel",
                                spec.get("sequence_parallel", False)),
    )


def autoplan_config_from_spec(spec: Dict):
    """The spec's :class:`~repro.autoplan.AutoPlanConfig`, or ``None``.

    ``None`` unless the spec says ``"shape": "auto"``.  Explicit
    parallelism degrees contradict an automatic shape search, so
    mixing them is an error rather than a silent override.
    """
    shape = spec.get("shape", "explicit")
    if shape not in ("explicit", "auto"):
        raise ConfigurationError(
            f"unknown shape {shape!r}; options: ['auto', 'explicit']")
    if shape != "auto":
        if spec.get("budget_gib") is not None:
            raise ConfigurationError(
                'budget_gib only applies to "shape": "auto" specs')
        return None
    for key in _explicit_degrees(spec, ("tp", "dp", "pp")):
        raise ConfigurationError(
            f'"shape": "auto" picks tp/dp/pp itself; drop the '
            f"explicit {key}={spec[key]}")
    from repro.autoplan import AutoPlanConfig

    budget = spec.get("budget_gib")
    return AutoPlanConfig(
        budget_gib=(float(_number("budget_gib", budget))
                    if budget is not None else None),
        sequence_parallel=_flag("sequence_parallel",
                                spec.get("sequence_parallel", False)),
    )


def inference_config_from_spec(spec: Dict):
    """The spec's :class:`~repro.inference.InferenceConfig`, or ``None``.

    ``None`` for training specs.  ``"workload": "inference"`` switches
    the spec to a serving simulation; the optional ``"inference"``
    object carries :class:`InferenceConfig` fields (arrival process,
    KV pool cap, swap policy, ...).  Cluster keys describe training
    sharding and contradict a serving spec, so mixing is an error.
    """
    workload = spec.get("workload", "training")
    if workload not in ("training", "inference"):
        raise ConfigurationError(
            f"unknown workload {workload!r}; options: "
            f"['inference', 'training']")
    if workload != "inference":
        if spec.get("inference") is not None:
            raise ConfigurationError(
                '"inference" settings only apply to '
                '"workload": "inference" specs')
        return None
    for key in _explicit_degrees(spec):
        raise ConfigurationError(
            f'"workload": "inference" specs describe one server; '
            f"drop the cluster key {key}={spec[key]}")
    if spec.get("shape", "explicit") == "auto":
        raise ConfigurationError(
            '"shape": "auto" is a training-shape search; inference '
            "specs set pp inside the \"inference\" object instead")

    from repro.inference import InferenceConfig

    params = spec.get("inference") or {}
    if not isinstance(params, dict):
        raise ConfigurationError('"inference" must be a JSON object')
    fields = {f.name for f in dataclasses.fields(InferenceConfig)}
    unknown = set(params) - fields
    if unknown:
        raise ConfigurationError(
            f"unknown inference keys: {sorted(unknown)}")
    params = dict(params)
    try:
        if params.get("trace") is not None:
            params["trace"] = tuple(tuple(entry) for entry in params["trace"])
        return InferenceConfig(**params)
    except (TypeError, ValueError, ConfigurationError) as error:
        raise ConfigurationError(f"invalid inference settings ({error})")


_TASK = {
    "label": None,
    "system": "mpress",
    "faults_seed": None,
    "faults_horizon": 60.0,
    "hybrid_dp": None,
}


def task_from_spec(spec: Dict) -> "SimTask":
    """Build a runtime :class:`~repro.runtime.SimTask` from a spec dict.

    This is the deserialization path of the sweep server (``repro
    serve``): one task spec is a job spec plus task-level keys —
    ``system`` (default ``"mpress"``), a cosmetic ``label``,
    ``faults_seed``/``faults_horizon`` (a seeded random campaign over
    ``n_gpus`` devices), and ``hybrid_dp`` (a DP×PP hybrid run).
    Cluster specs (``nodes``/``tp``/...) lower to cluster tasks, the
    same split as :func:`cluster_from_spec`; ``"shape": "auto"``
    specs lower to autoplan tasks (the shape search picks tp/dp/pp).
    """
    from repro.faults.spec import random_schedule
    from repro.runtime.task import SimTask

    if not isinstance(spec, dict):
        raise ConfigurationError("task spec must be a JSON object")
    spec = dict(spec)
    task_keys = {key: spec.pop(key, default)
                 for key, default in _TASK.items()}
    if task_keys["label"] is not None:
        _name("label", task_keys["label"])
    job = job_from_spec(spec)
    inference = inference_config_from_spec(spec)
    if inference is not None:
        if task_keys["faults_seed"] is not None:
            raise ConfigurationError(
                "fault injection applies to training tasks, not "
                '"workload": "inference"')
        if task_keys["hybrid_dp"] is not None:
            raise ConfigurationError(
                "hybrid_dp applies to training tasks, not "
                '"workload": "inference"')
        label = task_keys["label"]
        if label is None:
            label = (f"serving/{spec['model']}/{spec['server']}"
                     f"/kv={inference.kv_swap}")
        return SimTask(label=label, job=job, system=task_keys["system"],
                       inference=inference)
    if task_keys["hybrid_dp"] is not None and _explicit_degrees(spec, ("dp",)):
        raise ConfigurationError(
            "hybrid_dp and dp both set the data-parallel degree; "
            "give one of them")
    autoplan = autoplan_config_from_spec(spec)
    if autoplan is not None:
        cluster = cluster_from_spec(spec, force=True)
        cluster_config = None
    else:
        cluster = cluster_from_spec(spec)
        cluster_config = cluster_config_from_spec(spec) \
            if cluster is not None else None
    system = task_keys["system"]
    faults = None
    seed = task_keys["faults_seed"]
    if seed is not None:
        seed = _integer("faults_seed", seed)
        faults = random_schedule(
            seed=seed,
            n_devices=job.server.n_gpus,
            horizon=float(_number("faults_horizon",
                                  task_keys["faults_horizon"])),
        )
    hybrid = None
    if task_keys["hybrid_dp"] is not None:
        from repro.parallel.hybrid import HybridConfig
        from repro.parallel.placement import replica_size

        dp = _integer("hybrid_dp", task_keys["hybrid_dp"])
        try:
            replica_size(job.server.n_gpus, dp)
        except ConfigurationError as error:
            raise ConfigurationError(f"hybrid_dp: {error}") from None
        hybrid = HybridConfig(dp=dp)
    label = task_keys["label"]
    if label is None:
        label = f"{spec['model']}/{spec['server']}/{system}"
        if autoplan is not None:
            label += "/shape=auto"
        if cluster_config is not None:
            label += (f"/tp={cluster_config.tp},dp={cluster_config.dp},"
                      f"pp={cluster_config.pp}")
        if hybrid is not None:
            label += f"/dp={hybrid.dp}"
        if seed is not None:
            label += f"/faults={seed}"
    return SimTask(label=label, job=job, system=system, faults=faults,
                   hybrid=hybrid, cluster=cluster,
                   cluster_config=cluster_config, autoplan=autoplan)


def job_to_spec(job: TrainingJob, model_spec: str, server_name: str) -> Dict:
    """Render a job back into a spec dict (for saving experiments)."""
    return {
        "model": model_spec,
        "server": server_name,
        "pipeline": job.system,
        "microbatch_size": job.microbatch_size,
        "microbatches_per_minibatch": job.microbatches_per_minibatch,
        "n_minibatches": job.n_minibatches,
        "mfu": job.mfu,
    }
