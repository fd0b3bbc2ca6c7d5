"""One cell, five surfaces, one address — and one refusal.

The experiment cell (design, width, workload, seed, faults, topology,
online control) can be spelled through the CLI, ``repro.api``, the serve
protocol, a campaign spec and ``repro.control``.  All of them validate
and canonicalise through :mod:`repro.exec.jobs`, so they must agree on
every digest (pinned in ``tests/data/cell_digests.json``, generated at
the commit *before* the vocabulary moved) and on every rejection.
"""

import asyncio
import json
from pathlib import Path

import pytest

import repro
from repro.campaign.spec import CampaignError, CampaignSpec, spec_from_dict
from repro.cli import main
from repro.control.run import control_spec
from repro.exec import SpecError, job_digest, sweep_grid
from repro.experiments import FAST_CONFIG
from repro.params import DEFAULT_PARAMS
from repro.serve.protocol import RequestError, parse_simulate, parse_sweep
from repro.serve.service import SimulationService

PINNED = json.loads(
    (Path(__file__).parent / "data" / "cell_digests.json").read_text())

PHASED = "phased:hotBiDF+uniDF@1000"

#: name -> the cell, in the keyword vocabulary shared by the helpers below.
#: ``online`` is a control spec string (``""`` = defaults) or None (offline).
CASES = {
    "plain": {},
    "faulted": {"style": "static", "width": 8,
                "faults": "link:12-13@100-500;band:3"},
    "torus": {"topology": "torus"},
    "explicit-mesh": {"topology": "mesh"},
    "online-default": {"online": ""},
    "online-mesh": {"online": "", "topology": "mesh"},
    "online-phased": {"style": "adaptive", "workload": PHASED,
                      "online": "epoch=600,min=20"},
    "online-faults": {"online": "hysteresis=0.05", "faults": "band:3"},
    "seeded": {"seed": 7},
    "online-seeded": {"seed": 7, "online": ""},
}


def _cell(case: dict) -> dict:
    return {"style": "baseline", "width": 16, "workload": "uniform",
            "seed": None, "faults": None, "topology": None, "online": None,
            **case}


def _request_body(cell: dict, *, sweep: bool) -> dict:
    body = ({"styles": [cell["style"]], "widths": [cell["width"]],
             "workloads": [cell["workload"]], "seeds": [cell["seed"]]}
            if sweep else
            {"design": cell["style"], "width": cell["width"],
             "workload": cell["workload"], "seed": cell["seed"]})
    for field in ("faults", "topology"):
        if cell[field] is not None:
            body[field] = cell[field]
    if cell["online"] is not None:
        body["online"] = cell["online"] or True
    return body


def surface_specs(case: dict) -> dict:
    """The JobSpec every spec-producing surface builds for one cell."""
    cell = _cell(case)
    specs = {
        "serve-simulate": parse_simulate(_request_body(cell, sweep=False)),
        "serve-sweep": parse_sweep(_request_body(cell, sweep=True))[0],
        "sweep_grid": sweep_grid(
            [cell["style"]], [cell["width"]], [cell["workload"]],
            seeds=(cell["seed"],), faults=cell["faults"],
            topology=cell["topology"], control=cell["online"])[0],
        "campaign": CampaignSpec(
            styles=(cell["style"],), widths=(cell["width"],),
            workloads=(cell["workload"],), seeds=(cell["seed"],),
            faults=(cell["faults"] or "",),
            topologies=(cell["topology"] or "mesh",),
            control=(cell["online"],)).expand(FAST_CONFIG)[0],
    }
    if cell["online"] is not None:
        specs["control_spec"] = control_spec(
            cell["workload"], style=cell["style"], width=cell["width"],
            seed=cell["seed"], control=cell["online"], faults=cell["faults"],
            topology=cell["topology"])
    return specs


def surface_digests(case: dict) -> dict:
    return {surface: job_digest(spec, FAST_CONFIG, DEFAULT_PARAMS)
            for surface, spec in surface_specs(case).items()}


def _cli_argv(cell: dict, verb: str = "sweep") -> list:
    argv = ([verb, "--styles", cell["style"], "--widths", str(cell["width"]),
             "--workloads", cell["workload"]] if verb == "sweep" else
            [verb, "--design", cell["style"], "--width", str(cell["width"]),
             "--workload", cell["workload"]])
    argv += ["--fast", "--no-cache", "--json"]
    for field in ("seed", "faults", "topology"):
        if cell[field] is not None:
            argv += [f"--{field}", str(cell[field])]
    if cell["online"] is not None:
        argv += ["--online" if verb == "sweep" else "--control",
                 cell["online"]]
    return argv


def cli_digests(case: dict, capsys) -> dict:
    """The address the executing CLI verbs report for one cell (they run it)."""
    cell = _cell(case)
    assert main(_cli_argv(cell)) == 0
    digests = {"cli-sweep":
               json.loads(capsys.readouterr().out)["jobs"][0]["digest"]}
    if cell["online"] is not None:
        assert main(_cli_argv(cell, "control")) == 0
        digests["cli-control"] = json.loads(capsys.readouterr().out)["digest"]
    return digests


@pytest.mark.parametrize("name", CASES)
def test_surfaces_agree_on_the_address(name, capsys):
    digests = {**surface_digests(CASES[name]),
               **cli_digests(CASES[name], capsys)}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("name", PINNED)
def test_addresses_unchanged_since_the_parent(name):
    assert set(surface_digests(CASES[name]).values()) == {PINNED[name]}


def test_pinned_set_is_every_case_the_parent_agreed_on():
    # The parent's control_spec kept ("topology", "mesh") in extra, so its
    # surfaces disagreed on exactly one case — the only address that moves.
    assert set(CASES) - set(PINNED) == {"online-mesh"}


def test_explicit_mesh_shares_the_topology_less_address():
    assert (set(surface_digests(CASES["explicit-mesh"]).values())
            == {PINNED["plain"]})
    assert (set(surface_digests(CASES["online-mesh"]).values())
            == {PINNED["online-default"]})


def test_simulate_reports_the_shared_address(capsys):
    result = repro.simulate("baseline", "uniform", fast=True, online=True,
                            topology="mesh")
    assert result.provenance == PINNED["online-default"]
    assert main(["control", "--design", "baseline", "--topology", "mesh",
                 "--fast", "--no-cache", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == (
        PINNED["online-default"])


# -- rejections ---------------------------------------------------------------

#: name -> (cell, message fragment every surface must report).
REJECTIONS = {
    "unknown-design": ({"style": "warp"}, "unknown design 'warp'"),
    "width-12": ({"width": 12}, "width must be one of [16, 8, 4]"),
    "unknown-workload": ({"workload": "bogus"}, "unknown workload 'bogus'"),
    "offline-phased": ({"workload": PHASED},
                       "requires an online (closed-loop) run"),
    "online-wire": ({"style": "wire", "online": ""},
                    "online runs accept designs ['baseline', 'adaptive']"),
    "unknown-topology": ({"topology": "hypercube"},
                         "unknown topology 'hypercube'"),
    "no-fault-spec": ({"faults": ";;"}, "fault spec ';;' names no faults"),
    "bad-control-key": ({"online": "bogus=1"}, "unknown control key 'bogus'"),
}


def _api(cell: dict):
    return repro.simulate(
        cell["style"], cell["workload"], width=cell["width"], fast=True,
        seed=cell["seed"], faults=cell["faults"], topology=cell["topology"],
        online=None if cell["online"] is None else cell["online"] or True)


def _campaign(cell: dict):
    return spec_from_dict({
        "styles": [cell["style"]], "widths": [cell["width"]],
        "workloads": [cell["workload"]], "faults": [cell["faults"] or ""],
        "topologies": [cell["topology"] or "mesh"],
        "control": [cell["online"]]})


@pytest.mark.parametrize("name", REJECTIONS)
def test_every_surface_refuses_alike(name, capsys):
    case, fragment = REJECTIONS[name]
    cell = _cell(case)

    with pytest.raises(SpecError) as exc:
        _api(cell)
    assert fragment in str(exc.value)

    with pytest.raises(CampaignError) as exc:
        _campaign(cell)
    assert fragment in str(exc.value)

    # control_spec always addresses an online cell, so the offline-only
    # rejection cannot be spelled through it.
    if name != "offline-phased":
        with pytest.raises(SpecError) as exc:
            control_spec(cell["workload"], style=cell["style"],
                         width=cell["width"], control=cell["online"],
                         faults=cell["faults"], topology=cell["topology"])
        assert fragment in str(exc.value)

    service = SimulationService(fast=True)
    for parse, handler, sweep in ((parse_simulate, service.simulate, False),
                                  (parse_sweep, service.sweep, True)):
        body = _request_body(cell, sweep=sweep)
        with pytest.raises(RequestError) as exc:
            parse(body)
        assert fragment in str(exc.value)
        status, envelope, _ = asyncio.run(handler(body))
        assert status == 400 and fragment in envelope["error"]

    # argparse owns --topology's choices; everything else reaches the
    # vocabulary and comes back as the CLI's one-line JSON error.
    try:
        code = main(_cli_argv(cell))
    except SystemExit as stop:
        code = stop.code
        assert name == "unknown-topology"
    else:
        assert fragment in json.loads(capsys.readouterr().err)["error"]
    assert code == 2
