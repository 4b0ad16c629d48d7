"""Command-line surface: synth, pilot, curate, train, eval, sweep, report.

Every command resolves its settings as flag > config file > built-in
default, writes a manifest.json with the exact resolved configuration, and
produces byte-identical outputs when re-run with the same config and seed.
Exit codes: 0 success, 2 config error, 3 data error, 4 external service
failure.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
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
    _map_runs,
    read_dataset,
    write_dataset,
)
from .curation import CurationConfig
from .experiments import BENCH_CONFIG, build_benchmark, run_pilot_cell, run_pilot_grid
from .metrics import (
    EvalReport,
    assign_splits,
    evaluate,
    expansion_targets,
    reports_to_csv,
    write_report,
)
from .model import load_checkpoint, save_checkpoint, train
from .synth import CountProfile, HierarchySpec, make_auxiliary, make_counts, make_hierarchy

__all__ = ["main"]

RATIO_PRESETS = ("1:1:3", "0:1:3", "1:1:1", "1:0.5:1")
SWEEP_OPTIONS = {
    "aux_count": [1, 3, 5, 7, 8],
    "per_class_cap": [10, 30, 50, 100, 150],
    "ratio": list(RATIO_PRESETS),
    "lambda_s": [0.0, 0.1, 0.5, 1.0],
}


def _parse_ratio(text: str) -> tuple[float, float, float] | None:
    if text in ("derive", "auto"):
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"ratio must look like h:m:t, got {text!r}")
    try:
        ratio = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"non-numeric ratio component in {text!r}")
    return ratio  # type: ignore[return-value]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _load_config_file(path: str, command: str | None = None) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    # a previously written manifest is accepted as a config file, but only
    # by the command that wrote it
    if "config" in obj and "command" in obj:
        if command is not None and obj["command"] != command:
            raise ConfigError(
                f"{p} is a manifest written by '{obj['command']}', "
                f"not a config for '{command}'"
            )
        obj = obj["config"]
    return obj


def _setting_type(key: str, default) -> type:
    """The type of a setting's values: its default's, and for a None
    default (an unset path or list) str, except int for hidden_dim."""
    if default is None:
        return int if key == "hidden_dim" else str
    return type(default)


def _check_type(key: str, value, default) -> None:
    """A config-file value must have the setting's type; an int may stand
    for a float, a bool never for an int. A setting whose default is None
    may also be null, as manifests write it when unset."""
    if default is None and value is None:
        return
    want = _setting_type(key, default)
    if type(value) not in ((int, float) if want is float else (want,)):
        raise ConfigError(
            f"config key {key!r} must be {want.__name__}, got {type(value).__name__} "
            f"{value!r}"
        )


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """flag > config file > default, with unknown keys and values of the
    wrong type in the file rejected."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config, getattr(args, "command", None))
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_type(key, value, defaults[key])
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, cfg: dict) -> None:
    manifest = {"command": command, "version": __version__, "config": cfg}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _read_names(path: str) -> dict[int, str]:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"names file not found: {p}")
    try:
        return {int(k): str(v) for k, v in json.loads(p.read_text()).items()}
    except (AttributeError, ValueError) as exc:
        raise DataError(
            f"names file {p} must hold a JSON object mapping class ids to names: {exc}"
        ) from exc


def _keyword_defaults(fn, *names: str) -> dict:
    """The defaults of ``fn``'s parameters ``names``, in that order."""
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


# ---------------------------------------------------------------- commands
#
# Each command's settings table is the one declaration of its settings:
# build_parser gives every key a flag, and _resolve fills the table from
# flag > config file > default.


_SYNTH_DEFAULTS = {
    "num_classes": 100,
    "num_superclasses": 10,
    "feature_dim": 64,
    "profile": "exponential",
    "imbalance": 0.01,
    "alpha": 6.0,
    "max_count": 300,
    "test_per_class": 100,
    "sigma_super": 10.0,
    "sigma_fine": 2.5,
    "sigma_sample": 1.0,
    "aux_per_target": 0,
    "samples_per_aux": 120,
    "aux_offset": 3.0,
    "expand": "medium,few",
    "names": None,
    "seed": 0,
}


def cmd_synth(args) -> int:
    cfg = _resolve(_SYNTH_DEFAULTS, args)
    profile = CountProfile(
        cfg["profile"],
        cfg["num_classes"],
        cfg["max_count"],
        imbalance=cfg["imbalance"],
        alpha=cfg["alpha"],
    )
    counts = make_counts(profile, cfg["seed"])
    # checked even when no auxiliary data is made
    targets = expansion_targets(counts, cfg["expand"])
    out = _out_dir(args)
    spec = HierarchySpec(
        num_superclasses=cfg["num_superclasses"],
        num_classes=cfg["num_classes"],
        feature_dim=cfg["feature_dim"],
        sigma_super=cfg["sigma_super"],
        sigma_fine=cfg["sigma_fine"],
        sigma_sample=cfg["sigma_sample"],
    )
    train_ds, test_ds = make_hierarchy(spec, counts, cfg["seed"], cfg["test_per_class"])

    names = _read_names(cfg["names"]) if cfg["names"] else None
    space = LabelSpace(num_target=cfg["num_classes"], class_names=names)

    meta = {
        "generator": {
            "profile": profile.to_json(),
            "hierarchy": spec.to_json(),
            "seed": cfg["seed"],
        },
        "train_counts": counts.counts.tolist(),
    }
    write_dataset(train_ds, space, out / "train.jsonl", extra_meta=meta)
    write_dataset(test_ds, space, out / "test.jsonl", extra_meta=meta)

    if cfg["aux_per_target"] > 0:
        aux_ds, merged = make_auxiliary(
            train_ds,
            space,
            per_target=cfg["aux_per_target"],
            samples_per_aux=cfg["samples_per_aux"],
            seed=cfg["seed"],
            targets=targets,
            offset=cfg["aux_offset"],
        )
        write_dataset(aux_ds, merged, out / "aux.jsonl", extra_meta=meta)

    _write_manifest(out, "synth", cfg)
    print(f"wrote {len(train_ds)} train / {len(test_ds)} test samples to {out}")
    return 0


# pilot geometry defaults are run_pilot_cell's
_PILOT_GEOMETRY = ("num_classes", "feature_dim", "max_count", "test_per_class", "sigma_fine")
_PILOT_DEFAULTS = {
    "superclasses": "5,25",
    "imbalances": "1.0,0.01",
    "seeds": "0,1,2,3,4",
    **_keyword_defaults(run_pilot_cell, *_PILOT_GEOMETRY),
}


def cmd_pilot(args) -> int:
    cfg = _resolve(_PILOT_DEFAULTS, args)
    out = _out_dir(args)
    s_grid = _parse_int_list(cfg["superclasses"])
    b_grid = _parse_float_list(cfg["imbalances"])
    seeds = _parse_int_list(cfg["seeds"])
    if not s_grid or not b_grid or not seeds:
        raise ConfigError("pilot grid needs superclasses, imbalances, and seeds")

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
    (out / "pilot.csv").write_text("\n".join(lines) + "\n")

    per_run = ["num_superclasses,imbalance,seed,rank_gap,final_loss"]
    for r in rows:
        per_run.append(
            f"{r['num_superclasses']},{r['imbalance']},{r['seed']},"
            f"{float(r['rank_gap'])},{float(r['final_loss'])}"
        )
    (out / "pilot_runs.csv").write_text("\n".join(per_run) + "\n")

    _write_manifest(out, "pilot", cfg)
    print((out / "pilot.csv").read_text(), end="")
    return 0


# every curation default comes from CurationConfig
_CURATION = CurationConfig()
_CURATE_DEFAULTS = {
    "data": None,
    "llm_fixture": None,
    "corpus": None,
    "k": _CURATION.k,
    "gamma1": _CURATION.gamma_low,
    "gamma2": _CURATION.gamma_high,
    "expand": ",".join(_CURATION.expand),
    "retries": _CURATION.retries,
    "jobs": _CURATION.concurrency,
    "seed": 0,
}


def cmd_curate(args) -> int:
    from .curation import FixtureLLMClient, FixtureRetriever, HttpLLMClient, curate

    cfg = _resolve(_CURATE_DEFAULTS, args)
    out = _out_dir(args)
    if not cfg["data"]:
        raise ConfigError("curate needs --data pointing at a dataset manifest")
    dataset, space, _meta = read_dataset(cfg["data"])

    if cfg["llm_fixture"]:
        client = FixtureLLMClient(cfg["llm_fixture"])
    else:
        client = HttpLLMClient()  # uses TAILEXT_LLM_URL / TAILEXT_LLM_KEY
    if not cfg["corpus"]:
        raise ConfigError("no retriever configured: pass --corpus <candidates.jsonl>")
    retriever = FixtureRetriever(cfg["corpus"])

    cur_cfg = CurationConfig(
        k=cfg["k"],
        gamma_low=cfg["gamma1"],
        gamma_high=cfg["gamma2"],
        expand=cfg["expand"],
        retries=cfg["retries"],
        concurrency=cfg["jobs"],
    )
    aux, merged, report = curate(space, dataset, client, retriever, cur_cfg)

    if len(aux):
        write_dataset(aux, merged, out / "aux.jsonl", extra_meta={"curation": report})
    (out / "curation_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    _write_manifest(out, "curate", cfg)
    print(
        f"kept {len(aux)} samples in {merged.num_auxiliary} auxiliary classes "
        f"({len(report['empty_targets'])} empty targets)"
    )
    return 0


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
    if isinstance(fields["aux_ratio"], str):
        fields["aux_ratio"] = _parse_ratio(fields["aux_ratio"])
    return RunConfig(**fields)


def cmd_train(args) -> int:
    cfg = _resolve(_TRAIN_DEFAULTS, args)
    run_cfg = _run_config_from(cfg)
    out = _out_dir(args)
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
        space = merged

    state, log = train(train_ds, aux_ds, space, run_cfg)
    save_checkpoint(state, out / "checkpoint.json")
    (out / "train_log.json").write_text(
        json.dumps(log.to_json(), indent=2, sort_keys=True) + "\n"
    )
    _write_manifest(out, "train", cfg)
    print(
        f"trained {space.num_target}+{space.num_auxiliary} classes, "
        f"final mean loss {log.epochs[-1]['mean_loss']:.6f}"
    )
    return 0


_EVAL_DEFAULTS = {
    "checkpoint": None,
    "test": None,
    "data": None,
    "mask_aux": True,
    "seed": 0,
}


def cmd_eval(args) -> int:
    cfg = _resolve(_EVAL_DEFAULTS, args)
    out = _out_dir(args)
    if not cfg["checkpoint"] or not cfg["test"]:
        raise ConfigError("eval needs --checkpoint and --test")
    state = load_checkpoint(cfg["checkpoint"])
    test_ds, _space, test_meta = read_dataset(cfg["test"])

    if cfg["data"]:
        train_ds, _, _ = read_dataset(cfg["data"])
        counts = train_ds.class_counts(state.space.num_target)
    elif "train_counts" in test_meta:
        counts = np.asarray(test_meta["train_counts"], dtype=np.int64)
    else:
        raise ConfigError(
            "eval needs --data for split counts (test manifest has no train_counts)"
        )
    splits = assign_splits(ClassStats(counts))
    report = evaluate(
        state, test_ds, splits, mask=cfg["mask_aux"], seed=cfg["seed"]
    )
    write_report(report, out / "report.json")
    _write_manifest(out, "eval", cfg)
    print(report.to_text())
    return 0


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


def cmd_sweep(args) -> int:
    cfg = _resolve(_SWEEP_DEFAULTS, args)
    axis = cfg["axis"]
    if axis not in SWEEP_OPTIONS:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; pick one of {sorted(SWEEP_OPTIONS)}"
        )
    out = _out_dir(args)
    if cfg["values"] is not None:
        if axis == "aux_count" or axis == "per_class_cap":
            values = _parse_int_list(cfg["values"])
        elif axis == "lambda_s":
            values = _parse_float_list(cfg["values"])
        else:
            values = [v for v in str(cfg["values"]).split("/") if v]
    else:
        values = SWEEP_OPTIONS[axis]
    seeds = _parse_int_list(cfg["seeds"])

    base_cfg = BENCH_CONFIG.with_overrides(epochs=cfg["epochs"])
    geometry = {key: cfg[key] for key in _SWEEP_GEOMETRY}

    def run_point(value, seed) -> tuple[dict, EvalReport]:
        run_cfg = base_cfg.with_overrides(seed=seed)
        per_target = 5
        if axis == "aux_count":
            per_target = int(value)
        elif axis == "per_class_cap":
            run_cfg = run_cfg.with_overrides(per_class_cap=int(value))
        elif axis == "ratio":
            run_cfg = run_cfg.with_overrides(aux_ratio=_parse_ratio(value))
        elif axis == "lambda_s":
            run_cfg = run_cfg.with_overrides(lambda_s=float(value))
        tr, te, aux, merged = build_benchmark(seed, per_target=per_target, **geometry)
        splits = assign_splits(ClassStats(tr.class_counts(merged.num_target)))
        state, _ = train(tr, aux, merged, run_cfg)
        rep = evaluate(state, te, splits, mask=True, seed=seed)
        return {"axis": axis, "value": value}, rep

    points = [(v, s) for v in values for s in seeds]
    rows = _map_runs(lambda point: run_point(*point), points)

    (out / "sweep.csv").write_text(reports_to_csv(rows, ("axis", "value")))
    _write_manifest(out, "sweep", cfg)
    print(f"swept {axis} over {values} x {len(seeds)} seeds -> {out / 'sweep.csv'}")
    return 0


def cmd_report(args) -> int:
    inputs = [Path(p) for p in args.inputs]
    if not inputs:
        raise ConfigError("report needs at least one input file")
    rows: list[tuple[dict, EvalReport]] = []
    for path in inputs:
        if not path.exists():
            raise DataError(f"report input not found: {path}")
        if path.suffix == ".csv":
            print(f"== {path} ==")
            print(path.read_text(), end="")
            continue
        try:
            report = EvalReport.from_json(json.loads(path.read_text()))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: not an eval report: {exc!r}") from exc
        rows.append(({"source": str(path)}, report))
        print(f"== {path} ==")
        print(report.to_text())
    if rows and getattr(args, "out", None):
        out = _out_dir(args)
        (out / "report.csv").write_text(reports_to_csv(rows, ("source",)))
        print(f"wrote {out / 'report.csv'}")
    return 0


# ---------------------------------------------------------------- parsing


# name -> (handler, settings table, help)
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
    "values": "override the built-in option set",
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

    for name, (func, defaults, help_text) in _COMMANDS.items():
        # no prefix matching: `--seed` must not pass for `--seeds`
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", help="output directory (default: current)")
        for key, default in defaults.items():
            _add_setting(p, key, default)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "report", help="summarize eval reports and sweep CSVs", allow_abbrev=False
    )
    p.add_argument("inputs", nargs="*")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ExternalServiceError as exc:
        print(f"external service error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
