"""Config-driven batch entry point.

Verbs: gen-data, run, ablate, verify, report.  A single JSON config with
top-level keys {world, sequence, strategy, pretune, train, report} drives
everything; unknown keys are hard errors.  Outputs are plain CSV plus a
fully resolved config echo that reproduces the run when fed back in.

Exit codes: 0 success, 1 failed verification, 2 invalid config, bad
data, a file that cannot be read or written or too little memory, 3
numeric failure.
"""

import argparse
import csv
import ctypes
import dataclasses
import json
import math
import os
import re
import sys
import time
import warnings

from .errors import ConfigError, DataError, NumericError, ShapeError
from .nest import PretuneConfig
from .synthdata import TaskSequence, WorldSpec, build_world, dump_images
from .trainer import ExperimentConfig, TrainConfig, run_plan

_TOP_KEYS = ("world", "sequence", "strategy", "pretune", "train", "report")

# the sections that configure an experiment, each with its dataclass
_SECTIONS = {"world": WorldSpec, "sequence": TaskSequence, "pretune": PretuneConfig, "train": TrainConfig}

_DECIMAL_INT = re.compile(r"-?[0-9]+")
_DECIMAL_FLOAT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _decimal_int(text):
    """A `seed` or `step` cell: ASCII digits with an optional minus sign."""
    if not _DECIMAL_INT.fullmatch(text):
        raise ValueError(f"{text!r} is not a plain decimal integer")
    return int(text)


def _finite_float(text):
    """A number cell: a finite decimal float, or `nan` as `_fmt` writes it.
    Python's `float` would also take whitespace, underscores and `inf`."""
    if text != "nan" and not (_DECIMAL_FLOAT.fullmatch(text) and math.isfinite(float(text))):
        raise ValueError(f"{text!r} is not a finite decimal number or nan")
    return float(text)


def _check_text(name, text, is_path=False):
    """Raise ConfigError unless `text`, a CSV cell or, with `is_path`, a file
    name, encodes as UTF-8 and, as a file name, holds no NUL."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ConfigError(f"{name} does not encode as UTF-8: {e.reason} at {e.start}")
    if is_path and "\0" in text:
        raise ConfigError(f"{name} contains a NUL character")


@dataclasses.dataclass(frozen=True)
class ReportConfig:
    """The `report` section, checked when built: the default output
    directory, the prefix of every run id, and whether results.csv records
    wall times."""

    out_dir: str = "out"
    run_id: str = "run"
    timing: bool = False

    def __post_init__(self):
        _check_text("report.out_dir", self.out_dir, is_path=True)
        _check_text("report.run_id", self.run_id)


RESULT_COLUMNS = ("run_id", "strategy", "seed", "step", "miou_base", "miou_new", "miou_all", "wall_seconds")
RESULT_TYPES = (str, str, _decimal_int, _decimal_int, _finite_float, _finite_float, _finite_float, _finite_float)
CURVE_COLUMNS = ("run_id", "step", "epoch", "loss_mean", "loss_std", "featsim_mean", "featsim_std")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(default, value):
    """Whether `value` may stand in for `default`: a bool for a bool, a
    string for a string, an int that is not a bool for an int, such an int
    or a float for a float, and a list of ints for a list or a None."""
    if isinstance(default, (bool, str)):
        return type(value) is type(default)
    if isinstance(default, (int, float)):
        return _is_int(value) or (isinstance(default, float) and isinstance(value, float))
    return (value is None and default is None) or (isinstance(value, list) and all(map(_is_int, value)))


def _finite_float64(value):
    """Whether `value` is a finite float64: an int past float64's range
    overflows in `math.isfinite`."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _defaults(cls):
    """A section's defaults from its dataclass fields, tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default for f in dataclasses.fields(cls)}


def _merge_section(name, defaults, given):
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {name!r}")
    for key, value in given.items():
        if not _fits(defaults[key], value):
            raise ConfigError(f"{name}.{key} has the wrong type: {value!r}")
        if isinstance(defaults[key], float) and not _finite_float64(value):
            raise ConfigError(f"{name}.{key} must be a finite float64, got {value!r}")
    merged = dict(defaults)
    merged.update(given)
    return merged


def _strategies(resolved):
    """The configured strategy strings, as a list."""
    strategies = resolved["strategy"]
    return [strategies] if isinstance(strategies, str) else strategies


def load_config(path):
    """Parse and validate a config file; returns the resolved dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # not UTF-8, too deep, or an int of over 4300 digits
        raise ConfigError(f"{path}: {e}")
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown top-level key {sorted(unknown)[0]!r}")

    defaults = {name: _defaults(cls) for name, cls in _SECTIONS.items()}
    defaults["sequence"]["class_order"] = None  # missing or null: 1..num_classes
    defaults["train"]["seeds"] = [ExperimentConfig.seed]  # the run plan's, not a TrainConfig field
    resolved = {name: _merge_section(name, defaults[name], raw.get(name)) for name in _SECTIONS}
    resolved["strategy"] = raw.get("strategy", ExperimentConfig.strategy)
    resolved["report"] = _merge_section("report", _defaults(ReportConfig), raw.get("report"))
    ReportConfig(**resolved["report"])  # building it checks it
    # the world first: building it checks it, and the default class order is sized from it
    _section(resolved, "world")
    if resolved["sequence"]["class_order"] is None:
        resolved["sequence"]["class_order"] = list(range(1, resolved["world"]["num_classes"] + 1))
    if not resolved["train"]["seeds"]:
        raise ConfigError("train.seeds must list at least one seed")
    strategies = _strategies(resolved)
    if not isinstance(strategies, list) or not strategies or not all(isinstance(x, str) for x in strategies):
        raise ConfigError("strategy must be a string or a non-empty list of strings")
    # a repeated entry would run the same experiment twice and weight it
    # twice in ablation.csv
    for name, values in (("train.seeds", resolved["train"]["seeds"]), ("strategy", strategies)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{name} lists {repeated[0]!r} more than once")
    for text in strategies:
        _experiment_config(resolved, text)  # building it checks every section
    return resolved


def _section(resolved, name):
    """The dataclass of a resolved experiment section, lists as tuples."""
    cls = _SECTIONS[name]
    values = {f.name: resolved[name][f.name] for f in dataclasses.fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def _experiment_config(resolved, strategy, seed=ExperimentConfig.seed):
    return ExperimentConfig(strategy=strategy, seed=seed, **{name: _section(resolved, name) for name in _SECTIONS})


def _fmt(x):
    return f"{x:.6f}"


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _run_rows(report, cfg, result, result_rows, curve_rows):
    """Append the results.csv and curves.csv rows of the run of `cfg`;
    `report` is the config's ReportConfig."""
    run_id = f"{report.run_id}-{cfg.strategy.replace(':', '_')}-s{cfg.seed}"
    for rep in result.reports:
        wall = rep.wall_seconds if report.timing else 0.0
        miou = (_fmt(rep.miou_base), _fmt(rep.miou_new), _fmt(rep.miou_all))
        result_rows.append((run_id, cfg.strategy, cfg.seed, rep.step, *miou, _fmt(wall)))
        for e, st in enumerate(rep.epochs):
            curve_rows.append(
                (run_id, rep.step, e, _fmt(st.loss_mean), _fmt(st.loss_std), _fmt(st.featsim_mean), _fmt(st.featsim_std))
            )


def _report(resolved, out_dir):
    """The config's ReportConfig, with `out_dir` (`-o`) as its output
    directory when given; replacing it checks it again."""
    report = ReportConfig(**resolved["report"])
    return dataclasses.replace(report, out_dir=out_dir) if out_dir else report


def _worker_count(n_jobs):
    """NEST_LAB_THREADS, clamped to the job count and the CPU count."""
    text = os.environ.get("NEST_LAB_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ConfigError(f"NEST_LAB_THREADS must be an integer, got {text!r}")
    return max(1, min(workers, n_jobs, os.cpu_count() or 1))


def cmd_run(config_path, out_dir, aggregate=False):
    """`run`; with `aggregate`, `ablate`, which also writes ablation.csv."""
    import statistics

    resolved = load_config(config_path)
    report = _report(resolved, out_dir)
    out_dir = report.out_dir
    os.makedirs(out_dir, exist_ok=True)
    # (strategy x seed) runs, strategy-major; the plan trains one base step per seed
    seeds = resolved["train"]["seeds"]
    configs = [_experiment_config(resolved, strat, seed) for strat in _strategies(resolved) for seed in seeds]
    result_rows, curve_rows = [], []
    for cfg, result in zip(configs, run_plan(configs, _worker_count(len(configs)))):
        _run_rows(report, cfg, result, result_rows, curve_rows)
    _write_csv(os.path.join(out_dir, "results.csv"), RESULT_COLUMNS, result_rows)
    _write_csv(os.path.join(out_dir, "curves.csv"), CURVE_COLUMNS, curve_rows)

    if aggregate:
        # the final step of every run, per strategy
        agg_rows = []
        last_step = max(int(r[3]) for r in result_rows)
        for strat in _strategies(resolved):
            finals = [r for r in result_rows if r[1] == strat and int(r[3]) == last_step]
            cols = []
            for idx in (4, 5, 6):  # miou_base, miou_new, miou_all
                vals = [float(r[idx]) for r in finals]
                mean = statistics.fmean(vals)
                # NaN for an mIoU over no present class, one seed's too; pstdev raises on NaN
                std = math.nan if any(map(math.isnan, vals)) else statistics.pstdev(vals)
                cols.extend([_fmt(mean), _fmt(std)])
            agg_rows.append((strat, *cols))
        _write_csv(
            os.path.join(out_dir, "ablation.csv"),
            ("strategy", "miou_base_mean", "miou_base_std", "miou_new_mean", "miou_new_std", "miou_all_mean", "miou_all_std"),
            agg_rows,
        )
    with open(os.path.join(out_dir, "config.echo.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_gen_data(config_path, out_dir):
    resolved = load_config(config_path)
    out_dir = _report(resolved, out_dir).out_dir
    os.makedirs(out_dir, exist_ok=True)
    world = build_world(_section(resolved, "world"))
    dump_images(world.train_x, world.train_y, world.spec.height, os.path.join(out_dir, "train.jsonl"))
    dump_images(world.test_x, world.test_y, world.spec.height, os.path.join(out_dir, "test.jsonl"))
    return 0


def cmd_verify():
    from .verify import run_all

    start = time.perf_counter()
    ok = run_all()
    print(f"verify finished in {time.perf_counter() - start:.1f}s")
    return 0 if ok else 1


def cmd_report(inputs, out_path):
    for path in inputs:
        _check_text("report input", path, is_path=True)
    _check_text("report -o", out_path, is_path=True)
    rows = []
    for path in inputs:
        candidate = path if path.endswith(".csv") else os.path.join(path, "results.csv")
        try:
            with open(candidate, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                if tuple(header) != RESULT_COLUMNS:
                    raise ConfigError(f"{candidate}: unexpected columns {header}")
                for row in reader:
                    try:  # every column; a decimal seed and step, finite (or nan) numbers
                        if len(row) != len(RESULT_TYPES):
                            raise ValueError(f"{len(row)} columns, expected {len(RESULT_TYPES)}")
                        for parse, value in zip(RESULT_TYPES, row):
                            parse(value)
                    except ValueError as e:
                        raise ConfigError(f"{candidate}:{reader.line_num}: {e}")
                    rows.append(tuple(row))
        except (UnicodeDecodeError, csv.Error) as e:
            raise ConfigError(f"{candidate}: {e}")
    _write_csv(out_path, RESULT_COLUMNS, rows)
    return 0


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds for the rest of the process.

    Until something large has been freed, glibc's dynamic thresholds stay at
    128 KiB, so every training batch hands its ~1.5 MB of temporaries back
    to the kernel and faults them in again: a fresh `nestlab run {}` took
    ~450 k minor page faults.  The mmap threshold goes to the 32 MiB that
    glibc's own adjustment stops at on 64-bit, and the heap top kept
    rather than handed back to twice that.  Setting either threshold turns
    glibc's adjustment off, so both are set.  A no-op where the C library
    has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nestlab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, text in (
        ("run", "run the configured experiment(s)"),
        ("ablate", "run strategies x seeds and aggregate"),
        ("gen-data", "dump the synthetic image pools"),
    ):
        p_cfg = sub.add_parser(verb, help=text)
        p_cfg.add_argument("config")
        p_cfg.add_argument("-o", "--out-dir", default=None)

    sub.add_parser("verify", help="run the verification suite")

    p_rep = sub.add_parser("report", help="merge results.csv files")
    p_rep.add_argument("inputs", nargs="+")
    p_rep.add_argument("-o", "--out", default="merged.csv")

    args = parser.parse_args(argv)
    _pin_malloc_thresholds()
    verbs = {
        "run": lambda: cmd_run(args.config, args.out_dir),
        "ablate": lambda: cmd_run(args.config, args.out_dir, aggregate=True),
        "gen-data": lambda: cmd_gen_data(args.config, args.out_dir),
        "verify": cmd_verify,
        "report": lambda: cmd_report(args.inputs, args.out),
    }
    # a failed verb prints one line: the warnings raised on the way to it,
    # such as numpy's overflows before a numeric failure, are held and
    # shown only when the verb ends in 0 or 1
    with warnings.catch_warnings(record=True) as caught:
        try:
            rc = verbs[args.verb]()
        except (ConfigError, DataError, ShapeError, OSError, MemoryError) as e:
            print(f"config error: {str(e) or type(e).__name__}", file=sys.stderr)
            rc = 2
        except NumericError as e:
            print(f"numeric failure: {e}", file=sys.stderr)
            rc = 3
    if rc < 2:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return rc


if __name__ == "__main__":
    sys.exit(main())
