"""Command-line surface: synth, pilot, curate, train, eval, sweep, report.

``main`` resolves each command's settings as flag > config file > built-in
default, runs it, and then writes a manifest.json of the resolved settings.
Re-runs with the same config and seed give byte-identical outputs.
Exit codes: 0 success, 2 config error (a size that cannot be allocated
too), 3 data error, 4 external service failure.
"""
from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ClassStats,
    ConfigError,
    DataError,
    ExternalServiceError,
    LabelSpace,
    RunConfig,
    _existing_file,
    _map_runs,
    _sidecar_path,
    check_json,
    check_seed,
    check_size,
    read_dataset,
    read_json,
    remove_dataset,
    write_dataset,
    write_file,
    write_json,
)
from .curation import CurationConfig
from .experiments import BENCH_CONFIG, build_benchmark, run_pilot_cell, run_pilot_grid
from .metrics import (
    DEFAULT_EXPANSION,
    EvalReport,
    assign_splits,
    evaluate,
    expand_splits,
    expansion_targets,
    read_report,
    reports_to_csv,
)
from .model import load_checkpoint, save_checkpoint, train
from .synth import (
    CountProfile,
    HierarchySpec,
    check_auxiliary,
    make_auxiliary,
    make_counts,
    make_hierarchy,
    named_rows,
)

__all__ = ["main"]

RATIO_PRESETS = ("1:1:3", "0:1:3", "1:1:1", "1:0.5:1")
SWEEP_OPTIONS = {
    "aux_count": [1, 3, 5, 7, 8],
    "per_class_cap": [10, 30, 50, 100, 150],
    "ratio": list(RATIO_PRESETS),
    "lambda_s": [0.0, 0.1, 0.5, 1.0],
}


def _parse_ratio(text: str) -> tuple[float, float, float] | None:
    if text == "derive":
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"ratio must look like h:m:t, got {text!r}")
    try:
        ratio = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"non-numeric ratio component in {text!r}")
    return ratio  # type: ignore[return-value]


def _parse_list(text: str, kind: type, sep: str = ",") -> list:
    """The ``sep``-separated values of ``text`` as ``kind``, blanks skipped;
    a value given twice is refused, as it would run or count twice."""
    try:
        values = [kind(p) for p in text.split(sep) if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated {kind.__name__} values, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"value {value!r} repeated in {text!r}")
    return values


def _load_config_file(path: str, command: str) -> dict:
    obj = read_json(path, {}, ConfigError, "config file")
    # a previously written manifest is accepted as a config file, but only
    # by the command that wrote it
    if "config" in obj and "command" in obj:
        if obj["command"] != command:
            raise ConfigError(
                f"{path} is a manifest written by '{obj['command']}', "
                f"not a config for '{command}'"
            )
        obj = check_json(obj["config"], {}, f"{path}: config", ConfigError)
    return obj


def _setting_type(key: str, default) -> type:
    """The type of a setting's values: its default's, and for a None
    default (an unset path or list) str, except int for hidden_dim."""
    if default is None:
        return int if key == "hidden_dim" else str
    return type(default)


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """flag > config file > default, with unknown keys and values of the
    wrong type in the file rejected."""
    cfg = dict(defaults)
    if args.config:
        file_cfg = _load_config_file(args.config, args.command)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            # an int may stand for a float, and a setting whose default is
            # None may be null, as manifests write it when unset
            kind = _setting_type(key, defaults[key])
            check_json(value, kind if defaults[key] is not None else (kind, None),
                       f"config key {key!r}", ConfigError)
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _keyword_defaults(fn, *names: str) -> dict:
    """The defaults of ``fn``'s parameters ``names``, in that order."""
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


# ---------------------------------------------------------------- commands
#
# Each command's settings table is the one declaration of its settings:
# build_parser gives every key a flag, and main resolves the table. Every
# output goes through core.write_file, whole or not at all, and --out is
# made at the first write, so a bad setting leaves no directory behind. A
# synth without auxiliary data, or a curate that keeps nothing, removes the
# aux.* files an earlier run left in --out, so that train --aux cannot take
# them.


# synth at its defaults writes the benchmark's target data: the geometry
# defaults are build_benchmark's, the spreads HierarchySpec's and the offset
# make_auxiliary's
_SYNTH_DEFAULTS = {
    **_keyword_defaults(build_benchmark, "num_classes", "num_superclasses", "feature_dim"),
    "profile": "exponential",
    **_keyword_defaults(build_benchmark, "imbalance"),
    "alpha": 6.0,
    **_keyword_defaults(build_benchmark, "max_count", "test_per_class"),
    **{key: getattr(HierarchySpec, key) for key in ("sigma_super", "sigma_fine", "sigma_sample")},
    "aux_per_target": 0,
    **_keyword_defaults(build_benchmark, "samples_per_aux"),
    "aux_offset": _keyword_defaults(make_auxiliary, "offset")["offset"],
    "expand": ",".join(DEFAULT_EXPANSION),
    "names": None,
    "seed": 0,
}


def cmd_synth(cfg: dict, out: Path) -> None:
    check_seed(cfg["seed"])
    profile = CountProfile(cfg["profile"], cfg["num_classes"], cfg["max_count"],
                           imbalance=cfg["imbalance"], alpha=cfg["alpha"])
    spec = HierarchySpec(**{field.name: cfg[field.name] for field in fields(HierarchySpec)})
    check_size(cfg["test_per_class"], "test_per_class")
    # checked even when no auxiliary data is made
    splits = expand_splits(cfg["expand"])
    check_auxiliary(cfg["aux_per_target"], cfg["samples_per_aux"], cfg["aux_offset"], low=0)
    # the names file is read after the settings are checked and before any
    # data is drawn
    names = read_json(cfg["names"], {int: str}, DataError, "names file") if cfg["names"] else None
    if names and max(names) >= cfg["num_classes"]:
        raise DataError(f"{cfg['names']}: bad names file: class id {max(names)} is outside "
                        f"[0, {cfg['num_classes']})")
    counts = make_counts(profile, cfg["seed"])
    targets = expansion_targets(counts, splits)
    train_ds, test_ds = make_hierarchy(spec, counts, cfg["seed"], cfg["test_per_class"])

    space = LabelSpace(num_target=cfg["num_classes"], class_names=names)
    # made before any file is written, so that its checks leave none behind
    aux = None
    if cfg["aux_per_target"] > 0:
        aux = make_auxiliary(train_ds, space, cfg["aux_per_target"], cfg["samples_per_aux"],
                             cfg["seed"], targets, cfg["aux_offset"])

    generator = {"profile": profile.to_json(), "hierarchy": spec.to_json(), "seed": cfg["seed"]}
    meta = {"generator": generator, "train_counts": counts.counts.tolist()}
    # each file's ids are made as it is written, so one set of id strings is held at a time
    write_dataset(named_rows(train_ds, "train"), space, out / "train.jsonl", extra_meta=meta)
    write_dataset(named_rows(test_ds, "test"), space, out / "test.jsonl", extra_meta=meta)
    if aux is None:
        remove_dataset(out / "aux.jsonl")
    else:
        aux_ds, aux_space = aux
        write_dataset(named_rows(aux_ds, "aux"), aux_space, out / "aux.jsonl", extra_meta=meta)
    print(f"wrote {len(train_ds)} train / {len(test_ds)} test samples to {out}")


# pilot geometry defaults are run_pilot_cell's
_PILOT_GEOMETRY = ("num_classes", "feature_dim", "max_count", "test_per_class", "sigma_fine")
_PILOT_DEFAULTS = {
    "superclasses": "5,25",
    "imbalances": "1.0,0.01",
    "seeds": "0,1,2,3,4",
    **_keyword_defaults(run_pilot_cell, *_PILOT_GEOMETRY),
}


def cmd_pilot(cfg: dict, out: Path) -> None:
    s_grid = _parse_list(cfg["superclasses"], int)
    b_grid = _parse_list(cfg["imbalances"], float)
    seeds = _parse_list(cfg["seeds"], int)
    if not s_grid or not b_grid or not seeds:
        raise ConfigError("pilot grid needs superclasses, imbalances, and seeds")
    # every seed is checked before the first cell
    for seed in seeds:
        check_seed(seed)

    rows = run_pilot_grid(
        s_grid, b_grid, seeds, **{key: cfg[key] for key in _PILOT_GEOMETRY}
    )

    lines = ["num_superclasses,imbalance,mean_gap,std_gap,num_seeds"]
    for s in s_grid:
        for b in b_grid:
            gaps = [
                r["rank_gap"]
                for r in rows
                if r["num_superclasses"] == s and r["imbalance"] == b
            ]
            lines.append(
                f"{s},{b},{float(np.mean(gaps))},{float(np.std(gaps))},{len(gaps)}"
            )
    summary = "\n".join(lines) + "\n"
    write_file(out / "pilot.csv", summary.encode())

    per_run = ["num_superclasses,imbalance,seed,rank_gap,final_loss"]
    for r in rows:
        per_run.append(
            f"{r['num_superclasses']},{r['imbalance']},{r['seed']},"
            f"{float(r['rank_gap'])},{float(r['final_loss'])}"
        )
    write_file(out / "pilot_runs.csv", ("\n".join(per_run) + "\n").encode())
    print(summary, end="")


# curate flags named differently from the CurationConfig field they set
_CURATE_FLAGS = {"gamma_low": "gamma1", "gamma_high": "gamma2", "concurrency": "jobs"}

# every curation default comes from CurationConfig; expand is written as
# comma-separated split names
_CURATE_DEFAULTS = {
    "data": None,
    "llm_fixture": None,
    "corpus": None,
    **{_CURATE_FLAGS.get(k, k): v for k, v in CurationConfig().to_json().items()},
    "expand": ",".join(DEFAULT_EXPANSION),
    "seed": 0,
}


def cmd_curate(cfg: dict, out: Path) -> None:
    from .curation import FixtureLLMClient, FixtureRetriever, HttpLLMClient, curate

    # every setting is checked before the inputs are read; nothing draws
    # from the seed, which the manifest records
    check_seed(cfg["seed"])
    cur_cfg = CurationConfig(**{f.name: cfg[_CURATE_FLAGS.get(f.name, f.name)]
                                for f in fields(CurationConfig)})
    if not cfg["data"]:
        raise ConfigError("curate needs --data pointing at a dataset manifest")
    if not cfg["corpus"]:
        raise ConfigError("no retriever configured: pass --corpus <candidates.jsonl>")
    if cfg["llm_fixture"]:
        client = FixtureLLMClient(cfg["llm_fixture"])
    else:
        client = HttpLLMClient()  # uses TAILEXT_LLM_URL / TAILEXT_LLM_KEY
    # a missing corpus is found before the manifest is read
    corpus = _existing_file(cfg["corpus"], "candidate corpus", DataError)
    dataset, space, _meta = read_dataset(cfg["data"])
    retriever = FixtureRetriever(corpus)

    aux, merged, report = curate(space, dataset, client, retriever, cur_cfg)
    # the aux features are copies: free the corpus before the write
    del dataset, retriever

    if len(aux):
        write_dataset(aux, merged, out / "aux.jsonl", extra_meta={"curation": report})
    else:
        remove_dataset(out / "aux.jsonl")
    write_json(out / "curation_report.json", report)
    print(
        f"kept {len(aux)} samples in {merged.num_auxiliary} auxiliary classes "
        f"({len(report['empty_targets'])} empty targets)"
    )


# train flags named differently from the RunConfig field they set
_FLAG_FIELDS = {"cap": "per_class_cap", "ratio": "aux_ratio", "lr": "learning_rate"}
_FIELD_FLAGS = {field: flag for flag, field in _FLAG_FIELDS.items()}

# every training default comes from RunConfig; its aux_ratio of None is
# spelled "derive" on the command line
_TRAIN_DEFAULTS = {
    "data": None,
    "aux": None,
    **{_FIELD_FLAGS.get(k, k): v for k, v in RunConfig().to_json().items()},
    "ratio": "derive",
}


def _run_config_from(cfg: dict) -> RunConfig:
    fields = {
        _FLAG_FIELDS.get(k, k): v for k, v in cfg.items() if k not in ("data", "aux")
    }
    fields["aux_ratio"] = _parse_ratio(fields["aux_ratio"])
    return RunConfig(**fields)


def cmd_train(cfg: dict, out: Path) -> None:
    run_cfg = _run_config_from(cfg)
    if not cfg["data"]:
        raise ConfigError("train needs --data pointing at a dataset manifest")
    train_ds, space, _ = read_dataset(cfg["data"])
    aux_ds = None
    if cfg["aux"]:
        aux_ds, merged, _ = read_dataset(cfg["aux"])
        if merged.num_target != space.num_target:
            raise DataError(
                f"aux manifest targets {merged.num_target} != data targets "
                f"{space.num_target}"
            )
        # neither synth nor curate makes an empty auxiliary class, so one
        # means a cut aux.jsonl
        empty = np.flatnonzero(aux_ds.class_counts(merged.num_classes) == 0)
        empty = empty[empty >= merged.num_target].tolist()
        if empty:
            raise DataError(f"{cfg['aux']}: auxiliary classes {empty} have no rows")
        space = merged

    state, log = train(train_ds, aux_ds, space, run_cfg)
    save_checkpoint(state, out / "checkpoint.json")
    write_json(out / "train_log.json", log.to_json())
    print(
        f"trained {space.num_target}+{space.num_auxiliary} classes, "
        f"final mean loss {log.epochs[-1]['mean_loss']:.6f}"
    )


_EVAL_DEFAULTS = {
    "checkpoint": None,
    "test": None,
    "data": None,
    "mask_aux": True,
    "seed": 0,
}


def cmd_eval(cfg: dict, out: Path) -> None:
    # nothing draws from the seed, which the report records
    check_seed(cfg["seed"])
    if not cfg["checkpoint"] or not cfg["test"]:
        raise ConfigError("eval needs --checkpoint and --test")
    state = load_checkpoint(cfg["checkpoint"])
    test_ds, _space, test_meta = read_dataset(cfg["test"])

    if cfg["data"]:
        train_ds, train_space, _ = read_dataset(cfg["data"])
        if train_space.num_target != state.space.num_target:
            raise DataError(f"{cfg['data']} has {train_space.num_target} target classes "
                            f"but checkpoint {cfg['checkpoint']} has {state.space.num_target}")
        counts = train_ds.class_counts(state.space.num_target)
    elif "train_counts" in test_meta:
        n = state.space.num_target
        wrong = DataError(
            f"{_sidecar_path(Path(cfg['test']))}: train_counts must be a list of "
            f"{n} integers, one per target class of the checkpoint"
        )
        counts = check_json(test_meta["train_counts"], [int], "", lambda _: wrong)
        if len(counts) != n:
            raise wrong
    else:
        raise ConfigError(
            "eval needs --data for split counts (test manifest has no train_counts)"
        )
    splits = assign_splits(ClassStats(counts))
    report = evaluate(
        state, test_ds, splits, mask=cfg["mask_aux"], seed=cfg["seed"]
    )
    write_json(out / "report.json", report.to_json())
    print(report.to_text())


# sweep geometry defaults are build_benchmark's
_SWEEP_GEOMETRY = (
    "num_classes", "num_superclasses", "feature_dim", "max_count", "imbalance", "test_per_class"
)
_SWEEP_DEFAULTS = {
    "axis": None,
    "values": None,
    "seeds": "0,1,2",
    **_keyword_defaults(build_benchmark, *_SWEEP_GEOMETRY),
    "epochs": BENCH_CONFIG.epochs,
}


def cmd_sweep(cfg: dict, out: Path) -> None:
    axis = cfg["axis"]
    if axis not in SWEEP_OPTIONS:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; pick one of {sorted(SWEEP_OPTIONS)}"
        )
    if cfg["values"] is None:
        values = SWEEP_OPTIONS[axis]
    elif axis == "ratio":
        values = _parse_list(cfg["values"], str, "/")
    else:  # of the type of the built-in options
        values = _parse_list(cfg["values"], type(SWEEP_OPTIONS[axis][0]))
    seeds = _parse_list(cfg["seeds"], int)
    if not values or not seeds:
        raise ConfigError("sweep needs values and seeds")

    # each value's RunConfig settings; aux_count sets the benchmark instead
    if axis == "ratio":
        try:
            settings = [{"aux_ratio": _parse_ratio(v)} for v in values]
        except ConfigError as exc:
            raise ConfigError(
                f"{exc}; sweep ratio values are separated by '/', as in 1:1:3/1:1:1"
            ) from None
    else:
        if axis == "aux_count":
            for value in values:
                check_size(value, "aux_count values")
        settings = [{} if axis == "aux_count" else {axis: v} for v in values]
    base_cfg = BENCH_CONFIG.with_overrides(epochs=cfg["epochs"])
    # every run's config is built, and so checked, before the first run
    points = [
        (value, base_cfg.with_overrides(seed=seed, **setting))
        for value, setting in zip(values, settings)
        for seed in seeds
    ]
    geometry = {key: cfg[key] for key in _SWEEP_GEOMETRY}

    def run_point(point) -> tuple[dict, EvalReport]:
        value, run_cfg = point
        aux_count = {"per_target": value} if axis == "aux_count" else {}
        tr, te, aux, merged = build_benchmark(run_cfg.seed, **aux_count, **geometry)
        splits = assign_splits(ClassStats(tr.class_counts(merged.num_target)))
        state, _ = train(tr, aux, merged, run_cfg)
        rep = evaluate(state, te, splits, mask=True, seed=run_cfg.seed)
        return {"axis": axis, "value": value}, rep

    rows = _map_runs(run_point, points)
    write_file(out / "sweep.csv", reports_to_csv(rows, ("axis", "value")).encode())
    print(f"swept {axis} over {values} x {len(seeds)} seeds -> {out / 'sweep.csv'}")


def cmd_report(args: argparse.Namespace) -> None:
    inputs = [Path(p) for p in args.inputs]
    if not inputs:
        raise ConfigError("report needs at least one input file")
    rows: list[tuple[dict, EvalReport]] = []
    for path in inputs:
        if path.suffix == ".csv":
            if not path.is_file():
                raise DataError(f"report input not found: {path}")
            print(f"== {path} ==")
            print(path.read_text(), end="")
            continue
        report = read_report(path)
        rows.append(({"source": str(path)}, report))
        print(f"== {path} ==")
        print(report.to_text())
    if rows and args.out:
        out = Path(args.out)
        write_file(out / "report.csv", reports_to_csv(rows, ("source",)).encode())
        print(f"wrote {out / 'report.csv'}")


# ---------------------------------------------------------------- parsing


# name -> (handler(cfg, out), settings table, help)
_COMMANDS = {
    "synth": (cmd_synth, _SYNTH_DEFAULTS, "generate a synthetic long-tail dataset"),
    "pilot": (cmd_pilot, _PILOT_DEFAULTS, "granularity-vs-imbalance pilot grid"),
    "curate": (cmd_curate, _CURATE_DEFAULTS, "LLM-driven auxiliary category curation"),
    "train": (cmd_train, _TRAIN_DEFAULTS, "train a classifier on manifests"),
    "eval": (cmd_eval, _EVAL_DEFAULTS, "evaluate a checkpoint on a test manifest"),
    "sweep": (cmd_sweep, _SWEEP_DEFAULTS, "ablation sweeps on the synthetic benchmark"),
}

# what a setting's name and default do not say
_HELP = {
    "names": "JSON file mapping class id to name",
    "data": "target training manifest",
    "aux": "auxiliary manifest (merged label space)",
    "llm_fixture": "fixture dir with responses.json",
    "corpus": "candidate corpus JSONL for the fixture retriever",
    "ratio": "h:m:t attachment counts, or 'derive'",
    "mask_aux": "mask auxiliary rows before predicting",
    "axis": f"one of {', '.join(sorted(SWEEP_OPTIONS))}",
    "values": "comma-separated values replacing the built-in option set; "
              "ratio values are separated by '/', as in 1:1:3/1:1:1",
    "jobs": "LLM requests in flight at once",
}


def _add_setting(p: argparse.ArgumentParser, key: str, default) -> None:
    """``--key-name`` parsed as the setting's type (``_setting_type``); a
    bool is a --x/--no-x switch."""
    flag = "--" + key.replace("_", "-")
    text = _HELP.get(key, "")
    if default is not None:
        text = f"{text} (default: {default})".lstrip()
    if isinstance(default, bool):
        p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
    else:
        p.add_argument(flag, type=_setting_type(key, default), help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailext",
        description="Long-tail classification with open-set category extrapolation",
    )
    parser.add_argument("--version", action="version", version=f"tailext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, defaults, help_text) in _COMMANDS.items():
        # no prefix matching: `--seed` must not pass for `--seeds`
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", help="output directory (default: current)")
        for key, default in defaults.items():
            _add_setting(p, key, default)

    p = sub.add_parser(
        "report", help="summarize eval reports and sweep CSVs", allow_abbrev=False
    )
    p.add_argument("inputs", nargs="*")
    p.add_argument("--out")

    return parser


def _out_dir(text: str | None) -> Path:
    """``--out``, or the current directory; a command makes it only at its
    first write, so its nearest existing path must be a directory at once."""
    out = Path(text or ".")
    nearest = next((p for p in (out, *out.parents) if p.exists() or p.is_symlink()), out)
    if not nearest.is_dir():
        raise ConfigError(f"--out {out}: {nearest} is not a directory")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = _out_dir(args.out)
        if args.command == "report":  # no settings and no manifest
            cmd_report(args)
            return 0
        command, defaults, _ = _COMMANDS[args.command]
        cfg = _resolve(defaults, args)
        command(cfg, out)
        # written last, so only a command that finished leaves one
        write_json(out / "manifest.json",
                   {"command": args.command, "version": __version__, "config": cfg})
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ExternalServiceError as exc:
        print(f"external service error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
