"""CLI: config validation, determinism, exit codes, verbs."""

import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestlab import cli, trainer, verify
from nestlab.cli import _experiment_config, _strategies, _worker_count, load_config, main
from nestlab.errors import ConfigError
from nestlab.trainer import ExperimentConfig

SMALL_CONFIG = {
    "world": {
        "num_classes": 4,
        "feature_dim": 8,
        "prototype_rule": "independent",
        "mixture_classes": [],
        "height": 8,
        "width": 8,
        "images_per_class": 5,
        "test_images_per_class": 2,
        "seed": 2,
    },
    "sequence": {"base_count": 2, "increment": 1},
    "strategy": "nest:similarity:both",
    "pretune": {"epochs": 2, "lr": 0.05, "batch_size": 4},
    "train": {"base_epochs": 6, "base_lr": 0.1, "inc_epochs": 2, "inc_lr": 0.01, "batch_size": 4, "seeds": [1]},
    "report": {"run_id": "t"},
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if extra:
        for k, v in extra.items():
            if isinstance(v, dict):
                cfg.setdefault(k, {}).update(v)
            else:
                cfg[k] = v
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_defaults_and_class_order(tmp_path):
    resolved = load_config(write_config(tmp_path))
    assert resolved["sequence"]["class_order"] == [1, 2, 3, 4]
    assert resolved["train"]["lambda_kd"] == 1.0
    assert resolved["report"]["timing"] is False


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, {"train": {"warmup": 5}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"planner": {}}, name="cfg2.json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "extra",
    [
        {"strategy": "nonsense"},
        {"strategy": ["background", "nest:fancy"]},
        {"strategy": []},
        {"strategy": 3},
        {"train": {"base_epochs": "ten"}},
        {"train": {"base_epochs": True}},
        {"train": {"base_lr": "0.1"}},
        {"train": {"use_bias": 1}},
        {"train": {"seeds": [1, "2"]}},
        {"world": {"prototype_rule": 0}},
        {"sequence": {"class_order": "1234"}},
        {"world": {"noise_sigma": float("nan")}},
        {"pretune": {"lr": float("inf")}},
        {"sequence": {"base_count": 11}},
        {"sequence": {"base_count": 0}},
        {"sequence": {"base_count": -1}},
    ],
)
def test_load_config_rejects_bad_values(tmp_path, extra):
    # rejected while loading, before any world is built or step trained
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, extra))


def test_empty_config_is_the_default_experiment(tmp_path):
    # the CLI and the library share one set of defaults: S6-1
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert _experiment_config(load_config(str(path)), "nest:similarity:both", 1) == ExperimentConfig()


def test_load_config_takes_an_int_for_a_float(tmp_path):
    resolved = load_config(write_config(tmp_path, {"train": {"base_lr": 1, "lambda_kd": 0}}))
    assert resolved["train"]["base_lr"] == 1 and resolved["train"]["lambda_kd"] == 0


def _default_keys():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            fh.write("{}")
        resolved = load_config(path)
    return {name: sorted(section) for name, section in resolved.items() if isinstance(section, dict)}


_KEYS = _default_keys()
# any code point, lone surrogates (category Cs) included, and NUL and a
# surrogate often: neither encodes into a file name, and a surrogate not
# into a UTF-8 CSV cell
_CHAR = st.characters(exclude_categories=()) | st.sampled_from(["\x00", "\ud800"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(_CHAR, max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(_CHAR, max_size=4), inner, max_size=3),
    max_leaves=6,
)
# mostly well-typed values, so that checks past the type check run too
_VALUE = st.integers(-3, 40) | st.floats() | st.booleans() | st.lists(st.integers(-1, 12), max_size=12) | _JSON
_STRATEGY = st.sampled_from(["random", "two_stage", "nest", "nest:random:projection_only", "nest:x", "nest:similarity:both:x"])


def _section(keys):
    return st.dictionaries(st.sampled_from(keys) | st.text(_CHAR, max_size=4), _VALUE, max_size=4) | _JSON


_CONFIG = (
    st.fixed_dictionaries(
        {},
        optional={
            **{name: _section(keys) for name, keys in _KEYS.items()},
            "strategy": _STRATEGY | st.lists(_STRATEGY, max_size=3) | _JSON,
            "extra": _JSON,
        },
    )
    | _JSON
)


@settings(max_examples=300, deadline=None)
@given(_CONFIG)
def test_load_config_gives_a_valid_config_or_a_config_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        try:
            resolved = load_config(path)
        except ConfigError:
            return
        # valid: every experiment it describes can be built, which checks
        # it, and the echo of the resolved config loads back to itself
        for strategy in _strategies(resolved):
            for seed in resolved["train"]["seeds"]:
                _experiment_config(resolved, strategy, seed)
        with open(path, "w") as fh:
            json.dump(resolved, fh)
        assert load_config(path) == resolved


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"world": \n  [}')
    with pytest.raises(ConfigError, match=r":2:"):
        load_config(str(path))


def test_run_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "-o", out_a]) == 0
    assert main(["run", cfg, "-o", out_b]) == 0
    for name in ("results.csv", "curves.csv"):
        with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_run_row_counts(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["run", cfg, "-o", out]) == 0
    lines = open(os.path.join(out, "results.csv")).read().splitlines()
    # header + one row per step (4 classes, 2 base, inc 1 -> 3 steps)
    assert len(lines) == 4
    assert lines[0] == "run_id,strategy,seed,step,miou_base,miou_new,miou_all,wall_seconds"
    # without report.timing every wall column is 0
    assert all(line.rsplit(",", 1)[1] == "0.000000" for line in lines[1:])


def test_config_echo_reproduces_run(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "-o", out_a]) == 0
    echo = os.path.join(out_a, "config.echo.json")
    assert main(["run", echo, "-o", out_b]) == 0
    with open(os.path.join(out_a, "results.csv"), "rb") as fa, open(
        os.path.join(out_b, "results.csv"), "rb"
    ) as fb:
        assert fa.read() == fb.read()


def test_run_exit_code_on_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"strategy": "nonsense"})
    assert main(["run", path, "-o", str(tmp_path / "o")]) == 2
    # 2 base + steps of 3 can never reach 4 classes
    path = write_config(tmp_path, {"sequence": {"increment": 3}}, name="cfg2.json")
    assert main(["run", path, "-o", str(tmp_path / "o")]) == 2


def test_ablate_aggregates(tmp_path):
    cfg = write_config(
        tmp_path,
        {"strategy": ["background", "random"], "train": {"seeds": [1, 2]}},
    )
    out = str(tmp_path / "o")
    assert main(["ablate", cfg, "-o", out]) == 0
    lines = open(os.path.join(out, "ablation.csv")).read().splitlines()
    assert lines[0].startswith("strategy,miou_base_mean")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "background"
    # results.csv carries strategy x seed x step rows
    rows = open(os.path.join(out, "results.csv")).read().splitlines()
    assert len(rows) == 1 + 2 * 2 * 3


def test_ablate_single_arm_matches_run(tmp_path):
    cfg = write_config(tmp_path)
    out_r, out_a = str(tmp_path / "r"), str(tmp_path / "a")
    assert main(["run", cfg, "-o", out_r]) == 0
    assert main(["ablate", cfg, "-o", out_a]) == 0
    with open(os.path.join(out_r, "results.csv"), "rb") as fa, open(
        os.path.join(out_a, "results.csv"), "rb"
    ) as fb:
        assert fa.read() == fb.read()


# two classes, one base class and one step: at seed 1 no test pixel of the
# final step is, or is predicted as, background or the base class, so its
# miou_base is NaN
_NAN_BASE_CONFIG = {
    "world": {
        "num_classes": 2,
        "feature_dim": 4,
        "prototype_rule": "independent",
        "mixture_classes": [],
        "height": 4,
        "width": 4,
        "blobs_min": 1,
        "blobs_max": 3,
        "images_per_class": 3,
        "test_images_per_class": 1,
        "seed": 1,
    },
    "sequence": {"base_count": 1, "increment": 1},
    "strategy": ["background"],
    "pretune": {"epochs": 1, "batch_size": 2},
    "train": {"base_epochs": 2, "inc_epochs": 1, "batch_size": 2},
}


@pytest.mark.parametrize("seeds", [[1], [1, 2]])
def test_ablate_gives_a_nan_mean_a_nan_std_at_any_seed_count(tmp_path, seeds):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_NAN_BASE_CONFIG, "train": {**_NAN_BASE_CONFIG["train"], "seeds": seeds}}))
    out = tmp_path / "o"
    assert main(["ablate", str(path), "-o", str(out)]) == 0
    row = (out / "ablation.csv").read_text().splitlines()[1].split(",")
    assert row[:3] == ["background", "nan", "nan"], row
    # a finite single-seed mean keeps its std of 0
    if len(seeds) == 1:
        assert row[3:] == ["1.000000", "0.000000", "1.000000", "0.000000"], row


def test_gen_data_round_trip(tmp_path):
    # gen-data writes the configured world's pools, one image per line,
    # exactly as `dump_images` writes them (test_synthdata reads them back)
    from nestlab.synthdata import build_world, dump_images

    cfg = write_config(tmp_path)
    out = str(tmp_path / "data")
    assert main(["gen-data", cfg, "-o", out]) == 0
    world = build_world(_experiment_config(load_config(cfg), "background").world)
    pools = (("train", world.train_x, world.train_y, 4 * 5), ("test", world.test_x, world.test_y, 4 * 2))
    for name, x, y, count in pools:
        ref = str(tmp_path / f"{name}.ref.jsonl")
        dump_images(x, y, world.spec.height, ref)
        with open(os.path.join(out, f"{name}.jsonl"), "rb") as fa, open(ref, "rb") as fb:
            written = fa.read()
            assert written == fb.read(), name
        assert written.count(b"\n") == count, name


def test_gen_data_bytes_of_the_default_world_are_pinned(tmp_path):
    # the file format itself: a change to the layout, the float text or
    # the draws of the default world changes these digests
    import hashlib

    path = tmp_path / "cfg.json"
    path.write_text("{}")
    out = tmp_path / "data"
    assert main(["gen-data", str(path), "-o", str(out)]) == 0
    digests = {name: hashlib.sha256((out / f"{name}.jsonl").read_bytes()).hexdigest() for name in ("train", "test")}
    assert digests == {
        "train": "13b30b2d2b4192518fc6cae7a077c894de42b7f6b2e4ad1b4b65206baf8fbcfd",
        "test": "82de4b46cb11909bd67b19f713949bff5609095cc3db25221c2dc72fab0789c5",
    }


def test_report_merges(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", cfg, "-o", out_a])
    main(["run", cfg, "-o", out_b])
    merged = str(tmp_path / "merged.csv")
    assert main(["report", out_a, out_b, "-o", merged]) == 0
    lines = open(merged).read().splitlines()
    assert len(lines) == 1 + 3 + 3


def test_parallel_rows_identical(tmp_path, monkeypatch):
    # two seeds, so the worker path maps two bases and then four arms
    cfg = write_config(tmp_path, {"strategy": ["background", "random"], "train": {"seeds": [1, 2]}})
    out_s, out_p = str(tmp_path / "s"), str(tmp_path / "p")
    monkeypatch.setenv("NEST_LAB_THREADS", "1")
    assert main(["run", cfg, "-o", out_s]) == 0
    monkeypatch.setenv("NEST_LAB_THREADS", "2")
    assert main(["run", cfg, "-o", out_p]) == 0
    for name in ("results.csv", "curves.csv"):
        with open(os.path.join(out_s, name), "rb") as fa, open(os.path.join(out_p, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_verify_checks_all_pass():
    for fn in verify.ALL_CHECKS:
        name, ok, detail = fn()
        assert ok, f"{name}: {detail}"


def test_verify_mutation_detected():
    # a sign flip in the importance computation must trip the oracle check
    import nestlab.nest as nest_mod

    def broken_importance(pixels, w_old):
        return -nest_mod.init_importance(pixels, w_old)

    name, ok, detail = verify.check_matrix_init_oracle(worlds=5, importance_fn=broken_importance)
    assert not ok

    def broken_scores(p, w):
        h, s = nest_mod.similarity_scores(p, w)
        return h, s[::-1]

    name, ok, detail = verify.check_decomposition_exactness(trials=5, scores_fn=broken_scores)
    assert not ok


@pytest.mark.parametrize(
    "verb, extra, env",
    [
        ("run", None, {}),  # config file does not exist
        ("run", {}, {"NEST_LAB_THREADS": "abc"}),
        ("run", {"train": {"batch_size": 0}}, {}),
        ("ablate", {"train": {"seeds": []}}, {}),
        ("run", {"pretune": {"epochs": 0}}, {}),
        ("run", {"pretune": {"batch_size": 0}}, {}),
        ("run", {"strategy": "nonsense"}, {}),
        ("ablate", {"strategy": ["background", "nest:fancy"]}, {}),
        ("run", {"train": {"base_epochs": "ten"}}, {}),
        ("run", {"train": {"batch_size": "8"}}, {}),
        ("run", {"strategy": "nest:similarity:both:junk"}, {}),
        ("run", {"train": {"base_lr": 0}}, {}),
        ("run", {"train": {"inc_lr": -0.5}}, {}),
        ("ablate", {"train": {"backbone_dim": 0}}, {}),
        ("ablate", {"train": {"backbone_dim": -2}}, {}),
        ("ablate", {"train": {"base_epochs": -1}}, {}),
        ("ablate", {"train": {"inc_epochs": -1}}, {}),
        ("ablate", {"train": {"lambda_kd": -0.5}}, {}),
        ("ablate", {"train": {"poly_power": -0.9}}, {}),
        ("ablate", {"strategy": ["background", "background"]}, {}),
        ("ablate", {"train": {"seeds": [1, 1, 2]}}, {}),
    ],
    ids=[
        "missing_file",
        "threads_not_int",
        "train_batch_size_0",
        "ablate_no_seeds",
        "pretune_epochs_0",
        "pretune_batch_size_0",
        "strategy_unknown",
        "strategy_bad_in_list",
        "base_epochs_not_int",
        "batch_size_string",
        "strategy_extra_part",
        "base_lr_0",
        "inc_lr_negative",
        "backbone_dim_0",
        "backbone_dim_negative",
        "base_epochs_negative",
        "inc_epochs_negative",
        "lambda_kd_negative",
        "poly_power_negative",
        "strategy_repeated",
        "seed_repeated",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, verb, extra, env):
    path = str(tmp_path / "missing.json") if extra is None else write_config(tmp_path, extra)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main([verb, path, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


@pytest.mark.parametrize(
    "verb, extra",
    [
        ("gen-data", {"world": {"noise_sigma": 10**400}}),
        ("run", {"train": {"base_lr": 10**400}}),
        ("run", {"pretune": {"lr": -(10**400)}}),
    ],
    ids=["world.noise_sigma", "train.base_lr", "pretune.lr"],
)
def test_float_field_given_an_int_past_float64_exits_2_with_one_line(tmp_path, capsys, verb, extra):
    # JSON integers are unbounded; one too large for float64 is rejected
    # at load time, before any output is written
    path = write_config(tmp_path, extra)
    assert main([verb, path, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    (section, fields), = extra.items()
    assert len(err) == 1 and err[0].startswith(f"config error: {section}.{next(iter(fields))} must be a finite float64"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "report, message",
    [
        ({"run_id": "\ud800"}, "report.run_id does not encode as UTF-8"),
        ({"out_dir": "a\u0000b"}, "report.out_dir contains a NUL character"),
    ],
    ids=["run_id_surrogate", "out_dir_nul"],
)
def test_a_report_string_that_cannot_fill_a_cell_or_name_a_file_exits_2(tmp_path, capsys, report, message):
    # both are rejected while the config loads, not after the run trains
    path = write_config(tmp_path, {"report": report})
    assert main(["run", path, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message}"), err
    assert not (tmp_path / "o" / "results.csv").exists()


@pytest.mark.parametrize("bad", ["a\x00b", "\ud800"], ids=["nul", "surrogate"])
@pytest.mark.parametrize("arg", ["run", "ablate", "gen-data", "report_input", "report_out"])
def test_a_path_argument_that_cannot_name_a_file_exits_2_with_one_line(tmp_path, capsys, monkeypatch, arg, bad):
    # checked before anything is read or written; a shell's argv cannot
    # carry NUL, but a library caller's can
    cfg = write_config(tmp_path)
    good = tmp_path / "results.csv"
    good.write_text(_HEADER)
    argv = {
        "report_input": ["report", bad, "-o", "merged.csv"],
        "report_out": ["report", str(good), "-o", bad],
    }.get(arg, [arg, cfg, "-o", bad])
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    message = "contains a NUL character" if bad == "a\x00b" else "does not encode as UTF-8"
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0], err
    assert sorted(os.listdir(tmp_path)) == before


def test_integer_past_the_parsers_digit_limit_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"world": {"noise_sigma": 1' + "0" * 5000 + "}}")
    assert main(["gen-data", str(path), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path}: "), err


def test_repeated_strategy_or_seed_is_named(tmp_path):
    # a repeated entry would run one experiment twice and weight it twice
    # in ablation.csv's means
    with pytest.raises(ConfigError, match="strategy lists 'background' more than once"):
        load_config(write_config(tmp_path, {"strategy": ["background", "random", "background"]}))
    with pytest.raises(ConfigError, match="train.seeds lists 1 more than once"):
        load_config(write_config(tmp_path, {"train": {"seeds": [1, 2, 1]}}))


@pytest.mark.parametrize("case", ["report_missing_file", "report_empty_file", "gen_data_out_is_a_file"])
def test_bad_files_exit_2_with_one_line(tmp_path, capsys, case):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    argv = {
        "report_missing_file": ["report", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "m.csv")],
        "report_empty_file": ["report", str(empty), "-o", str(tmp_path / "m.csv")],
        "gen_data_out_is_a_file": ["gen-data", write_config(tmp_path), "-o", str(empty)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


_HEADER = ",".join(cli.RESULT_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "body, where",
    [
        ("abc,def\nr,s,1,0,1,1,1,0.0\x00\n", ":2: 2 columns"),
        ("r,s,1,0,1,1,1,0.0\x00\n", ":2: '0.0\\x00' is not a finite decimal number or nan"),
        ("r,s,1,1,1,1,1,0\nr,s,x,1,1,1,1,0\n", ":3: 'x' is not a plain decimal integer"),
        ('r,s," 3 ",0,1,1,1,0\n', ":2: ' 3 ' is not a plain decimal integer"),
        ("r,s,1,1_0,1,1,1,0\n", ":2: '1_0' is not a plain decimal integer"),
        ("r,s,1,0,1,inf,1,0\n", ":2: 'inf' is not a finite decimal number or nan"),
    ],
    ids=["short_row", "nul_in_wall_seconds", "seed_not_int", "seed_padded", "step_underscored", "miou_inf"],
)
def test_report_rejects_bad_rows_with_one_line(tmp_path, capsys, body, where):
    path = tmp_path / "results.csv"
    path.write_text(_HEADER + body)
    assert main(["report", str(path), "-o", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path}{where}"), err
    assert not (tmp_path / "m.csv").exists()


_CELL = st.text(st.characters(codec="utf-8"), max_size=5)
_INT = st.integers(-5, 10**6).map(str)
_FLOAT = st.floats(allow_infinity=False).map(str) | st.sampled_from(["nan", "0.500000", "1e-3"])
_GOOD_ROW = st.tuples(_CELL, _CELL, _INT, _INT, _FLOAT, _FLOAT, _FLOAT, _FLOAT).map(list)
_BAD_NUMBER = st.sampled_from(["x", "", "1\x00", "0.0.0", " 3 ", "1_0", "inf", "-inf", "NaN", "\u0663"])
_BAD_ROW = st.lists(_CELL, max_size=9) | st.tuples(_GOOD_ROW, st.integers(2, 7), _BAD_NUMBER).map(
    lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]
)
# mostly well-formed files, so that merges run too, with short rows, bad
# numbers, NUL and undecodable bytes mixed in
_FILE = st.tuples(
    st.one_of(st.just(list(cli.RESULT_COLUMNS)), st.just(list(cli.RESULT_COLUMNS)), st.lists(_CELL, max_size=9)),
    st.lists(st.one_of(_GOOD_ROW, _GOOD_ROW, _GOOD_ROW, _BAD_ROW), max_size=3),
    st.one_of(st.none(), st.none(), st.none(), st.tuples(st.integers(0, 400), st.sampled_from([b"\xff", b"\xc0", b"\x00", b"\n"]))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FILE, min_size=1, max_size=2))
def test_fuzzed_report_inputs_merge_or_exit_2(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths, rows = [], []
        for i, (header, body, damage) in enumerate(files):
            text = io.StringIO(newline="")
            csv.writer(text, lineterminator="\n").writerows([header, *body])
            content = text.getvalue().encode("utf-8")
            if damage:
                at, raw = damage
                content = content[:at] + raw + content[at:]
            paths.append(os.path.join(tmp, f"{i}.csv"))
            with open(paths[-1], "wb") as fh:
                fh.write(content)
            with open(paths[-1], newline="", encoding="utf-8", errors="replace") as fh:
                rows.extend(list(csv.reader(fh))[1:])
        out = os.path.join(tmp, "merged.csv")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["report", *paths, "-o", out])
        assert rc in (0, 2), rc
        if rc:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
            return
        with open(out, newline="", encoding="utf-8") as fh:
            merged = list(csv.reader(fh))
    assert merged[0] == list(cli.RESULT_COLUMNS)
    assert merged[1:] == rows
    for row in rows:  # and each merged row parses
        assert len(row) == 8
        for value in row[2:4]:
            int(value)
        for value in row[4:]:
            assert value == "nan" or math.isfinite(float(value))


@pytest.mark.parametrize(
    "verb, name, content",
    [
        ("run", "cfg.json", b"\xff\xfe{}"),
        ("run", "cfg.json", b"[" * 100000),
        ("report", "results.csv", ",".join(cli.RESULT_COLUMNS).encode() + b"\nrun-\xff,background,1,0,1,1,1,0\n"),
    ],
    ids=["config_not_utf8", "config_nested_too_deep", "report_not_utf8"],
)
def test_undecodable_files_exit_2_with_one_line(tmp_path, capsys, verb, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert main([verb, str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


def test_worker_count_clamped(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("NEST_LAB_THREADS", "64")
    assert _worker_count(3) == min(3, cpus)
    assert _worker_count(1000) == min(64, cpus)
    monkeypatch.setenv("NEST_LAB_THREADS", "0")
    assert _worker_count(3) == 1


# lr 1000 drives the step-1 gradients non-finite while the safe-log floor
# keeps every loss finite; a per-epoch parameter check catches it
BLOWUP_CONFIG = {
    "world": {
        "num_classes": 2,
        "feature_dim": 3,
        "mixture_classes": [],
        "height": 4,
        "width": 4,
        "images_per_class": 1,
        "test_images_per_class": 1,
        "noise_sigma": 0.01,
        "blobs_min": 1,
        "blobs_max": 3,
        "seed": 5,
    },
    "sequence": {"base_count": 1, "setting": "disjoint"},
    "strategy": "background",
    "train": {"backbone_dim": 4, "base_epochs": 1, "inc_epochs": 1, "base_lr": 1000.0, "inc_lr": 1000.0, "use_bias": True},
}


def test_numeric_blowup_exits_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_CONFIG))
    with np.errstate(all="ignore"):
        assert main(["run", str(path), "-o", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric failure: non-finite parameters at step 1, epoch 0"], err


def _cli_env():
    """The environment that imports `nestlab` from this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli(*argv, **kwargs):
    """`python -m nestlab.cli *argv` on this checkout's sources; `kwargs`
    go to `subprocess.run`."""
    return subprocess.run([sys.executable, "-m", "nestlab.cli", *argv], capture_output=True, text=True, env=_cli_env(), **kwargs)


def _limit_address_space():
    # 2 GiB, enough to import numpy; an allocation past it fails at once
    # instead of being over-committed and then written into RAM
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # the world passes its checks, but its train pool needs 38.1 GiB;
    # never run this config without the address-space limit
    world = {
        "height": 4000,
        "width": 4000,
        "num_classes": 2,
        "mixture_classes": [],
        "images_per_class": 10,
        "test_images_per_class": 1,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"world": world, "sequence": {"base_count": 1}}))
    proc = _cli("gen-data", str(path), "-o", str(tmp_path / "o"), preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: Unable to allocate 38.1 GiB"), proc.stderr


def test_a_memory_error_without_a_message_is_named(tmp_path, monkeypatch, capsys):
    def build_world(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "build_world", build_world)
    assert main(["gen-data", write_config(tmp_path), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: MemoryError"]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not hasattr(os, "wait4"), reason="glibc's malloc thresholds"
)
def test_a_fresh_run_does_not_fault_its_batch_temporaries_in_again(tmp_path):
    # the S6-1 world, 5 base epochs over 9 classes: with glibc's starting
    # thresholds each batch's temporaries went back to the kernel and were
    # faulted in again, ~51-56 k minor faults; pinned, ~8 k, half of them
    # numpy's import
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequence": {"base_count": 9}, "train": {"base_epochs": 5, "inc_epochs": 1}, "pretune": {"epochs": 1}}))
    argv = [sys.executable, "-m", "nestlab.cli", "run", str(path), "-o", str(tmp_path / "o")]
    proc = subprocess.Popen(argv, env=_cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped, so Popen does not wait again
    assert proc.returncode == 0
    assert usage.ru_minflt < 20_000, usage.ru_minflt


def test_main_pins_both_malloc_thresholds(tmp_path, monkeypatch):
    libc = mock.Mock()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert main(["gen-data", write_config(tmp_path), "-o", str(tmp_path / "o")]) == 0
    # setting either one turns glibc's adjustment off, so both are set
    assert libc.mallopt.call_args_list == [mock.call(-3, 32 << 20), mock.call(-1, 64 << 20)]


def _no_libc(name):
    raise OSError("no C library")


def _no_process_handle(name):
    raise TypeError("cannot load the process itself")


@pytest.mark.parametrize("cdll", [_no_libc, _no_process_handle, lambda name: object()])
def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main(["gen-data", write_config(tmp_path), "-o", str(tmp_path / "o")]) == 0


def test_numeric_blowup_prints_one_line_from_the_command_line(tmp_path):
    # outside pytest nothing captures numpy's RuntimeWarnings but `main`,
    # which drops them on a failure (test_losses keeps unbiased_kd's
    # zero-probability fold free of them)
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_CONFIG))
    proc = _cli("run", str(path), "-o", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["numeric failure: non-finite parameters at step 1, epoch 0"], proc.stderr


# a 4-class 4x4 world in which numpy overflows on the way to the failure
_OVERFLOWING = {
    "world": dict(SMALL_CONFIG["world"], height=4, width=4),
    "sequence": SMALL_CONFIG["sequence"],
    "train": {"base_epochs": 1, "inc_epochs": 1, "batch_size": 4},
}


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"pretune": {"lr": 1e300}}, "numeric failure: step 1: non-finite loss at tuning epoch 0, batch "),
        ({"world": {"noise_sigma": 1e308}}, "numeric failure: non-finite loss at step 0, epoch 0, batch 0"),
    ],
    ids=["pretune.lr", "world.noise_sigma"],
)
def test_a_numeric_failure_that_numpy_warns_about_prints_one_line(tmp_path, extra, message):
    # numpy's RuntimeWarnings on the way to the failure are not printed
    config = json.loads(json.dumps(_OVERFLOWING))
    for name, values in extra.items():
        config.setdefault(name, {}).update(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    proc = _cli("run", str(path), "-o", str(tmp_path / "o"))
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), proc.stderr


@pytest.mark.parametrize("ok, rc", [(True, 0), (False, 1)])
def test_warnings_of_a_verb_that_ends_in_0_or_1_are_shown(monkeypatch, ok, rc):
    from nestlab import verify as verify_mod

    def run_all():
        warnings.warn("overflow in a check", RuntimeWarning)
        return ok

    monkeypatch.setattr(verify_mod, "run_all", run_all)
    with pytest.warns(RuntimeWarning, match="overflow in a check"):
        assert main(["verify"]) == rc


def test_warnings_of_a_verb_that_fails_are_dropped(monkeypatch, capsys):
    from nestlab import verify as verify_mod
    from nestlab.errors import NumericError

    def run_all():
        warnings.warn("overflow in a check", RuntimeWarning)
        raise NumericError("a check blew up")

    monkeypatch.setattr(verify_mod, "run_all", run_all)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify"]) == 3
    assert not caught
    assert capsys.readouterr().err.splitlines() == ["numeric failure: a check blew up"]


def _warning_base(cfg, world):
    warnings.warn(f"base warning seed {cfg.seed}")
    return _TRAIN_BASE(cfg, world)


def _warning_run(cfg, world, base):
    warnings.warn(f"run warning seed {cfg.seed}")
    return _RUN_EXPERIMENT(cfg, world, base)


# module level, so that a worker process can unpickle the patched tasks
_TRAIN_BASE, _RUN_EXPERIMENT = trainer.train_base, trainer.run_experiment


def test_worker_warnings_are_shown_as_serial_ones_are(tmp_path, monkeypatch, capsys):
    # a warning in each base and each run: on exit 0, two workers show the
    # serial run's warnings in its order; on exit 3, neither shows any
    monkeypatch.setattr(trainer, "train_base", _warning_base)
    monkeypatch.setattr(trainer, "run_experiment", _warning_run)
    for extra, rc in (({}, 0), ({"pretune": {"lr": 1e300}}, 3)):
        cfg = write_config(tmp_path, dict(extra, train={"seeds": [1, 2]}))
        shown = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NEST_LAB_THREADS", threads)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                assert main(["run", cfg, "-o", str(tmp_path / threads)]) == rc
            err = capsys.readouterr().err.splitlines()
            assert len(err) == rc // 3, err
            shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        assert shown[0] == shown[1]
        expected = ["base warning seed 1", "base warning seed 2", "run warning seed 1", "run warning seed 2"]
        assert [message for message, *_ in shown[0]] == (expected if rc == 0 else [])


_FUZZ_STRATEGIES = (
    "random",
    "background",
    "two_stage",
    "nest:similarity:both",
    "nest:random:importance_only",
    "nest:similarity:projection_only",
)
# from too small to move anything to far past divergence
_FUZZ_LRS = (1e-3, 0.05, 0.5, 5.0, 100.0, 1e4)


@st.composite
def _tiny_configs(draw):
    """Whole configs over tiny worlds: sequences, strategies, lrs, batch
    sizes and switches drawn at random, a fraction of a second per run."""
    k = draw(st.integers(2, 4))
    base = draw(st.integers(1, k))
    rest = k - base
    inc = draw(st.sampled_from([i for i in range(1, rest + 1) if rest % i == 0])) if rest else 1
    return {
        "world": {
            "num_classes": k,
            "feature_dim": draw(st.integers(2, 5)),
            "prototype_rule": draw(st.sampled_from(["independent", "mixture"])),
            "mixture_classes": [],
            "height": 4,
            "width": draw(st.sampled_from([4, 6])),
            "images_per_class": draw(st.integers(1, 2)),
            "test_images_per_class": 1,
            "noise_sigma": draw(st.sampled_from([0.01, 0.3, 2.0])),
            "blobs_min": 1,
            "blobs_max": 2,
            "seed": draw(st.integers(1, 50)),
        },
        "sequence": {
            "class_order": draw(st.permutations(range(1, k + 1))),
            "base_count": base,
            "increment": inc,
            "setting": draw(st.sampled_from(["overlapped", "disjoint"])),
        },
        "strategy": draw(st.lists(st.sampled_from(_FUZZ_STRATEGIES), min_size=1, max_size=3, unique=True)),
        "pretune": {
            "epochs": draw(st.integers(1, 2)),
            "lr": draw(st.sampled_from(_FUZZ_LRS)),
            "batch_size": draw(st.integers(1, 3)),
            "weight_align": draw(st.booleans()),
            "use_pretuned_bg": draw(st.booleans()),
        },
        "train": {
            "backbone_dim": draw(st.integers(2, 5)),
            "base_epochs": draw(st.integers(1, 2)),
            "base_lr": draw(st.sampled_from(_FUZZ_LRS)),
            "inc_epochs": draw(st.integers(1, 2)),
            "inc_lr": draw(st.sampled_from(_FUZZ_LRS)),
            "batch_size": draw(st.integers(1, 3)),
            "lambda_kd": draw(st.sampled_from([0.0, 1.0, 10.0])),
            "fix_old_classifiers": draw(st.booleans()),
            "poly_power": draw(st.sampled_from([0.0, 0.9])),
            "use_bias": draw(st.booleans()),
            "seeds": draw(st.lists(st.integers(1, 9), min_size=1, max_size=2, unique=True)),
        },
        "report": {"run_id": "fuzz"},
    }


@settings(max_examples=60, deadline=None)
@given(_tiny_configs(), st.sampled_from(["run", "ablate"]))
def test_fuzzed_ablations_exit_cleanly_and_healthy_runs_stay_finite(config, verb):
    models = []

    def keep(fn, model_of):
        def wrapper(*args):
            out = fn(*args)
            models.append(model_of(args, out))
            return out

        return wrapper

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        # in-process runs, so that every trained model can be recorded
        stack.enter_context(mock.patch.dict(os.environ, {"NEST_LAB_THREADS": "1"}))
        stack.enter_context(mock.patch.object(trainer, "train_base", keep(trainer.train_base, lambda args, base: base.model)))
        stack.enter_context(mock.patch.object(trainer, "run_step", keep(trainer.run_step, lambda args, report: args[0])))
        stderr = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        rc = main([verb, path, "-o", os.path.join(tmp, "out")])

    assert rc in (0, 2, 3), rc
    lines = stderr.getvalue().splitlines()
    if rc:
        assert len(lines) == 1 and lines[0].startswith(("config error: ", "numeric failure: ")), lines
        return
    assert not lines, lines
    assert models and all(np.isfinite(m.flat_params()).all() for m in models)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime


# world fields from out of range to tiny; 10**20 only for the pool
# dimensions, which numpy rejects before allocating anything
_SIZE = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 10**20])
_WORLD = st.fixed_dictionaries(
    {},
    optional={
        "num_classes": _SIZE,
        "feature_dim": _SIZE,
        "height": _SIZE,
        "width": _SIZE,
        "images_per_class": _SIZE,
        "test_images_per_class": _SIZE,
        "blobs_min": st.integers(-1, 3),
        # 10**9 blobs would hang the renderer; it must exit 2 at once
        "blobs_max": st.one_of(st.integers(-1, 3), st.just(10**9)),
        "mixture_classes": st.lists(st.integers(-1, 5), max_size=3),
        "mixture_beta": st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5]),
        "noise_sigma": st.sampled_from([-1.0, 0.0, 0.3]),
        "prototype_rule": st.sampled_from(["independent", "mixture", "fractal"]),
        "seed": st.integers(-3, 50),
    },
)


@settings(max_examples=100, deadline=None)
@given(_WORLD)
def test_fuzzed_worlds_dump_or_exit_2_with_one_line(world):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            # one base class, so the sequence fits every class count
            json.dump({"world": world, "sequence": {"base_count": 1}}, fh)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["gen-data", path, "-o", os.path.join(tmp, "out")])
    lines = err.getvalue().splitlines()
    assert (rc, lines) == (0, []) or (rc == 2 and len(lines) == 1 and lines[0].startswith("config error: ")), (rc, lines)


@pytest.mark.parametrize(
    "field",
    [
        "world.height",
        "world.width",
        "world.images_per_class",
        "world.test_images_per_class",
        "world.num_classes",
        "train.backbone_dim",
    ],
)
def test_a_pool_past_numpys_size_limit_exits_2_with_one_line(tmp_path, capsys, field):
    # 10**20 makes a pool dimension, or the base step table's feature
    # dimension, numpy rejects before allocating; the check runs before
    # anything, the default class order included, is sized from the field
    section, key = field.split(".")
    path = write_config(tmp_path, {section: {key: 10**20}})
    assert main(["gen-data", path, "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: the ") and "exceed numpy's array size limit" in err[0], err
    assert not (tmp_path / "o").exists()
