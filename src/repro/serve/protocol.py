"""Request validation, canonicalization, and response envelopes.

The service speaks plain JSON.  A simulate request names one experiment
cell with the same vocabulary the CLI uses (design style, workload, link
width, seed, ...); this module validates it field by field, folds it into
the **same** frozen :class:`~repro.exec.jobs.JobSpec` the sweep engine
runs, and addresses it with the **same**
:func:`~repro.exec.jobs.job_digest` the result store keys on.  That
shared address is what makes the serving tier cheap: a request whose
digest is already on disk is answered warm, and identical in-flight
requests coalesce onto one computation (see
:mod:`repro.serve.scheduler`).

Every response — success or error — is wrapped in an *envelope* carrying
the service name and package version, so clients can gate on
compatibility before trusting the payload shape.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.jobs import (
    JobSpec, SpecError, cell_extra, check_cell, job_digest, normalize_spec,
    sweep_grid,
)
from repro.experiments.config import ExperimentConfig
from repro.obs.result import RunResult
from repro.params import ArchitectureParams
from repro.version import package_version


class RequestError(ValueError):
    """A syntactically or semantically invalid service request (HTTP 400)."""


def envelope(**fields) -> dict:
    """A response envelope: service identity + version + ``fields``."""
    return {"service": "repro.serve", "version": package_version(), **fields}


def error_envelope(message: str, **fields) -> dict:
    """The error shape every non-2xx response carries."""
    return envelope(status="error", error=str(message), **fields)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _opt_int(payload: dict, name: str) -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name!r} must be an integer")
    return value


def check_fields(payload, allowed: frozenset) -> None:
    """A JSON-object body carrying only ``allowed`` fields, else 400."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - allowed
    _require(not unknown, f"unknown request fields {sorted(unknown)}")


def _cell_requests(payload: dict) -> dict:
    """The type-checked per-cell requests, as :func:`cell_extra` keywords.

    ``"online": true`` means the default control config, a string is a
    :class:`~repro.control.loop.ControlConfig` spec, ``false``/absent is
    the offline cell.  Names and spec syntax are the vocabulary's job
    (:mod:`repro.exec.jobs`); only JSON types are checked here.
    """
    online = payload.get("online")
    if online is None or online is False:
        control = None
    else:
        control = "" if online is True else online
        _require(isinstance(control, str),
                 "'online' must be a boolean or a control spec string")
    faults = payload.get("faults")
    _require(faults is None or isinstance(faults, str),
             "'faults' must be a spec string")
    topology = payload.get("topology")
    _require(topology is None or isinstance(topology, str),
             "'topology' must be a provider name")
    return {"faults": faults, "topology": topology, "control": control}


def _adaptive(payload: dict) -> bool:
    adaptive = payload.get("adaptive_routing", False)
    _require(isinstance(adaptive, bool), "'adaptive_routing' must be boolean")
    return adaptive


#: Fields a simulate request may carry (anything else is rejected).
SIMULATE_FIELDS = frozenset({
    "design", "workload", "width", "seed", "access_points",
    "adaptive_routing", "faults", "topology", "timeout_s", "online",
})


def parse_simulate(payload: dict) -> JobSpec:
    """Validate one simulate request body into a :class:`JobSpec`.

    Raises :class:`RequestError` on unknown fields, unknown names, or
    wrong types; the spec comes back un-normalized (the scheduler
    normalizes against its own config so equal cells share one digest).
    """
    check_fields(payload, SIMULATE_FIELDS)
    requests = _cell_requests(payload)
    design = payload.get("design", "baseline")
    workload = payload.get("workload", "uniform")
    width = payload.get("width", 16)
    access_points = _opt_int(payload, "access_points")
    _require(access_points is None or access_points > 0,
             "'access_points' must be positive")
    try:
        check_cell(design, width, workload,
                   online=requests["control"] is not None)
        extra = cell_extra(**requests)
    except SpecError as exc:
        raise RequestError(str(exc)) from exc
    return JobSpec(
        kind="unicast",
        style=design,
        link_bytes=width,
        workload=workload,
        seed=_opt_int(payload, "seed"),
        num_access_points=access_points,
        adaptive_routing=_adaptive(payload),
        extra=extra,
    )


#: Fields a sweep request may carry.
SWEEP_FIELDS = frozenset({
    "styles", "widths", "workloads", "seeds", "adaptive_routing", "faults",
    "topology", "online",
})


def _axis(payload: dict, name: str, default: list) -> list:
    value = payload.get(name, default)
    _require(isinstance(value, list) and value,
             f"{name!r} must be a non-empty list")
    return value


def parse_sweep(payload: dict) -> list[JobSpec]:
    """Validate one sweep request body into the grid of specs it names."""
    check_fields(payload, SWEEP_FIELDS)
    requests = _cell_requests(payload)
    seeds = _axis(payload, "seeds", [None])
    for seed in seeds:
        _require(seed is None or (isinstance(seed, int)
                                  and not isinstance(seed, bool)),
                 "'seeds' entries must be integers or null")
    try:
        return sweep_grid(
            _axis(payload, "styles", ["baseline"]),
            _axis(payload, "widths", [16]),
            _axis(payload, "workloads", ["uniform"]),
            adaptive_routing=_adaptive(payload), seeds=seeds, **requests)
    except SpecError as exc:
        raise RequestError(str(exc)) from exc


def spec_fields(spec: JobSpec) -> dict:
    """A (normalized) unicast spec as a ``/v1/simulate`` request body.

    The inverse of :func:`parse_simulate`, shared by the campaign runner
    and the cluster router's sweep fan-out so every driver speaks the
    same request vocabulary.
    """
    fields = {
        "design": spec.style,
        "workload": spec.workload,
        "width": spec.link_bytes,
    }
    if spec.seed is not None:
        fields["seed"] = spec.seed
    if spec.num_access_points is not None:
        fields["access_points"] = spec.num_access_points
    if spec.adaptive_routing:
        fields["adaptive_routing"] = True
    extra = dict(spec.extra)
    if extra.get("faults"):
        fields["faults"] = extra["faults"]
    if extra.get("topology"):
        fields["topology"] = extra["topology"]
    if extra.get("control") is not None:
        fields["online"] = extra["control"]
    return fields


def request_timeout(payload: dict, maximum: float) -> Optional[float]:
    """The request's own deadline, capped by the server's ``maximum``."""
    value = payload.get("timeout_s")
    if value is None:
        return None
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and value > 0, "'timeout_s' must be a positive number")
    return min(float(value), maximum)


def canonical_digest(
    spec: JobSpec, config: ExperimentConfig, params: ArchitectureParams,
) -> tuple[JobSpec, str]:
    """Normalize a spec against the service config and address it.

    This is exactly the sweep engine's addressing scheme, so the serving
    tier, the CLI, and batch sweeps all hit the same store entries.
    """
    spec = normalize_spec(spec, config)
    return spec, job_digest(spec, config, params)


def result_fields(result: RunResult) -> dict:
    """The JSON-safe result block a successful response carries."""
    fields = result.summary()
    if result.stats is not None:
        fields["stats_digest"] = result.stats.digest()
    return fields
