"""Config and scenario documents from outside the program: every document
either works or raises one one-line ConfigError."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_under_address_limit, tiny_config
from coopfuse import cli
from coopfuse.pipeline import (SIZE_CAP_BYTES, TICK_CAP, ConfigError, Pipeline,
                              PipelineConfig, TrainSpec, evaluate)
from coopfuse.world import (AgentSpec, ChannelConfig, Pose2D, Scenario, make_scenario,
                            save_scenario)

README = Path(__file__).parents[1] / "README.md"

# values of every JSON type, some valid for a given key and most not
ODD = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(),
                st.floats(), st.lists(st.integers(-2, 9), max_size=3),
                st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def near(default):
    """Documents or values of `default`'s JSON type, in and out of its bounds."""
    if isinstance(default, dict):
        return st.fixed_dictionaries({}, optional={k: near(v) for k, v in default.items()})
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.one_of(st.integers(-2, 2 * default + 4), st.integers(-2, 40).map(float))
    if isinstance(default, float):
        return st.floats(-0.5, 2 * default + 1)
    return st.lists(st.integers(-1, 16), max_size=3)


DEFAULT = PipelineConfig().to_json()
KEYS = [(k,) for k in DEFAULT] + [(k, sub) for k, v in DEFAULT.items()
                                  if isinstance(v, dict) for sub in v]


@st.composite
def config_documents(draw):
    """A subset of the config keys, and sometimes one key (perhaps an unknown
    one) set to a value of any JSON type."""
    doc = draw(near(DEFAULT))
    if draw(st.booleans()):
        *parents, last = draw(st.sampled_from(KEYS + [("extra",), ("channel", "extra")]))
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = draw(ODD)
    return doc


def one_line(error: ConfigError) -> bool:
    return len(str(error).splitlines()) == 1


@pytest.mark.parametrize("cls", [PipelineConfig, TrainSpec, ChannelConfig, Pose2D, AgentSpec,
                                 Scenario])
def test_every_input_field_has_a_document_key(cls):
    """A field outside the document table is state that no document reads or
    writes, so a value built in Python could differ from its round trip."""
    assert [f.name for f in dataclasses.fields(cls)
            if "key" not in f.metadata and "keys" not in f.metadata] == []


@settings(derandomize=True, deadline=None, max_examples=400)
@given(doc=config_documents())
def test_config_document_round_trips_or_is_rejected(doc):
    try:
        cfg = PipelineConfig.from_json(doc)
    except ConfigError as e:
        assert one_line(e), str(e)
        return
    out = cfg.to_json()
    json.dumps(out, allow_nan=False)                  # every number is finite
    assert leaf_types(out) == leaf_types(DEFAULT)
    assert PipelineConfig.from_json(out).to_json() == out


def leaf_types(doc: dict) -> dict:
    return {k: leaf_types(v) if isinstance(v, dict) else type(v) for k, v in doc.items()}


# every size and length field: a draw sets some of them anywhere up to 10^9
SIZE_KEYS = [("H",), ("W",), ("C",), ("K",), ("channel", "L_ticks"), ("n_agents",),
             ("n_objects",), ("anchor_points",), ("ssm_state_dim",), ("eval_scenarios",),
             ("eval_measure_ticks",), ("training", "steps"), ("training", "batch_scenes")]
SIZES = st.one_of(st.integers(0, 64), st.integers(0, 10**9),
                  st.integers(1, 10**9 // 8).map(lambda k: 8 * k))   # divides every grid


@st.composite
def sized_documents(draw):
    doc: dict = {}
    for *parents, last in draw(st.lists(st.sampled_from(SIZE_KEYS), min_size=1, unique=True)):
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = draw(SIZES)
    return doc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=sized_documents())
def test_sizes_are_capped_or_rejected(doc):
    """A config whose size and length fields run up to 10^9 is rejected in one
    line, by from_json and by the CLI (exit 2), or simulates at most TICK_CAP
    ticks and allocates at most SIZE_CAP_BYTES per parameter set and array."""
    try:
        cfg = PipelineConfig.from_json(doc)
    except ConfigError as e:
        assert one_line(e), str(e)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 2, err.getvalue()
        assert err.getvalue() == f"config error: {e}\n"
        return
    assert all(ticks <= TICK_CAP for _, ticks in cfg.tick_counts())
    assert 8 * cfg.parameter_count() <= SIZE_CAP_BYTES
    assert 8 * cfg.largest_tick_array()[0] <= SIZE_CAP_BYTES


def rejected(doc) -> bool:
    try:
        PipelineConfig.from_json(doc)
    except ConfigError:
        return True
    return False


@settings(derandomize=True, deadline=None, max_examples=10)
@given(doc=sized_documents().filter(rejected))
def test_rejected_sizes_exit_2_under_a_memory_limit(doc):
    """A sample of the documents the property above rejects, each run as a
    `coopfuse run` subprocess under a 3 GB address-space limit and a timeout,
    exits 2 with from_json's one line."""
    with pytest.raises(ConfigError) as e:
        PipelineConfig.from_json(doc)
    with tempfile.TemporaryDirectory() as tmp:
        assert run_under_address_limit(Path(tmp), doc) == f"config error: {e.value}\n"


TINY = Pipeline(PipelineConfig(height=16, width=16, channels=4, buffer_k=2, scales=(4,),
                               ssm_state_dim=4, n_objects=2,
                               channel=ChannelConfig(1, 0.0, 0.1, 0.02)))
BASE = TINY.cfg.scenario(11, TINY.cfg.channel, 8).to_json()
DELETE = object()


def paths(node, prefix=()):
    """(path, value) for every key and index path in `node`, containers included."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,), child
        yield from paths(child, prefix + (key,))


PATHS = sorted(paths(BASE), key=repr) + [(("extra",), None), (("bounds_m",), 10.0),
                                         (("agents", 0, "extra"), None)]
VALUES = st.one_of(st.integers(-2, 12), st.floats(), st.floats(-20, 20), st.booleans(),
                   st.none(), st.sampled_from(["ego", "c1", ""]), st.just(DELETE),
                   st.just([]), st.lists(st.integers(0, 3), max_size=2),
                   st.dictionaries(st.sampled_from(["x", "id"]), st.integers(0, 3),
                                   max_size=2))


def nearby(value):
    """Values of the same JSON type as `value`, most of them valid."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return st.just(copy.deepcopy(value))
    if isinstance(value, int):
        return st.integers(max(0, value - 2), value + 4)
    if isinstance(value, float):
        return st.floats(value - 4.0, value + 4.0)
    return st.sampled_from(["ego", "c1", "c2", "c9"])


@st.composite
def scenario_documents(draw):
    """The base scenario with up to three keys, indices or containers replaced
    or deleted."""
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(0, 3))):
        (*parents, last), base_value = draw(st.sampled_from(PATHS))
        node = doc
        for key in parents:
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            value = draw(st.one_of(nearby(base_value), VALUES))
            if isinstance(node, dict) and isinstance(last, str):
                node.pop(last, None) if value is DELETE else node.update({last: value})
            elif isinstance(node, list) and isinstance(last, int) and last < len(node):
                node[last] = None if value is DELETE else value
    return doc


@settings(derandomize=True, deadline=None, max_examples=120)
@given(doc=scenario_documents())
def test_scenario_document_evaluates_or_is_rejected(doc):
    try:
        scenario = Scenario.from_json(doc)
        rec = evaluate(TINY, scenario=scenario)
    except ConfigError as e:
        assert one_line(e), str(e)
        return
    assert math.isfinite(rec.occupancy_iou) and math.isfinite(rec.mse_to_clean)


# the fields that size a checkpoint's parameters
MODEL_FIELDS = st.fixed_dictionaries({"channels": st.sampled_from([2, 4]),
                                      "anchor_points": st.integers(1, 2),
                                      "ssm_state_dim": st.sampled_from([2, 4])})


@st.composite
def document_triples(draw):
    """A run config on a 16 x 16 grid; a scenario drawn for a second config,
    whose agent count and fields of view differ from it; and a third config,
    whose C, anchor_points and ssm_state_dim may differ, for the checkpoint."""
    cfg = tiny_config(eval_measure_ticks=1, **draw(MODEL_FIELDS))
    other = replace(cfg, n_agents=draw(st.integers(1, 4)), fov_ego_m=draw(st.floats(0.5, 12.0)),
                    fov_collab_m=draw(st.floats(0.5, 12.0)))
    ticks = cfg.warmup_ticks_for() + draw(st.integers(0, 2))      # 0 measures no tick
    scenario = other.scenario(draw(st.integers(0, 99)), cfg.channel, ticks)
    third = cfg if draw(st.booleans()) else replace(cfg, **draw(MODEL_FIELDS))
    return cfg, scenario, third


@settings(derandomize=True, deadline=None, max_examples=25)
@given(triple=document_triples())
def test_run_on_documents_of_three_configs(triple):
    """`coopfuse run --config --scenario --params` on a config, a scenario and
    an untrained checkpoint made for three configs exits 0, or 2 or 3 with
    one stderr line; it raises nothing, so it prints no traceback."""
    cfg, scenario, third = triple
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(cfg.to_json()))
        save_scenario(tmp / "scenario.json", scenario)
        Pipeline(third).save(tmp / "params.catp")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(tmp / "cfg.json"),
                             "--scenario", str(tmp / "scenario.json"),
                             "--params", str(tmp / "params.catp"), "--out", str(tmp / "out")])
    assert code in (0, 2, 3) and len(err.getvalue().splitlines()) == (code != 0), err.getvalue()


def test_readme_config_block_lists_every_key():
    text = README.read_text().split("## Configuration", 1)[1]
    doc = json.loads(text.split("```json", 1)[1].split("```", 1)[0])
    PipelineConfig.from_json(doc)

    def keys(d, prefix=""):
        nested = {k for key, v in d.items() if isinstance(v, dict)
                  for k in keys(v, f"{prefix}{key}.")}
        return {prefix + key for key in d} | nested

    assert keys(doc) == keys(PipelineConfig().to_json())
