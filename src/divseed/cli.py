"""Command-line interface.

Subcommands: gen-data, train-loc, sample, train-seg, predict, eval, ablate,
add-class, gradcheck, render, run. One JSON config document (`--config`,
then `--set key=value` overrides) drives `run` and the stage commands
gen-data, train-loc, sample, train-seg, eval and add-class; an ablation
grid's `base` is the config of `ablate`. Each stage command builds its stage
config and derives its seed from the config exactly as `run` does, checked
before anything is read or written, so the stage commands given a run's
config.json reproduce that run's artifacts byte for byte, gen-data its
data. The others take image sizes and classes from their manifests, never
from the config's data keys. `sample` and `add-class` read a `--loc-dir`
of localizer checkpoints through one loader; `train-loc --export-maps`
writes score maps for `render --kind heatmap` only. The `jobs` key sizes the
worker pool for per-class localizer training in `run` and `ablate`.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
5 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import pipeline
from .dataset import load_manifest
from .errors import (ConfigError, DataError, DivseedError, NumericError, TensorFormatError,
                     check_fields, is_int_list, require_count)
from .localization import (
    LocalizationModel,
    StepWorkspace,
    load_loc_checkpoint,
    localizer_loss_and_grads,
    save_loc_checkpoint,
    score_image,
)
from .nn import grad_check
from .render import save_heatmap_pgm, save_label_ppm, save_overlay_ppm
from .rng import Rng, derive_seed
from .sampling import load_points, save_points
from .segmentation import (
    HeadWorkspace,
    SegmentationModel,
    add_class,
    augment_with_global,
    head_loss_and_grads,
    load_seg_checkpoint,
    predict,
    save_seg_checkpoint,
    train_segmentation,
)
from .tensor import load_json, load_tensor, save_json, save_tensor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


@contextmanager
def _naming(where: str):
    """Put where before the message of a ConfigError raised inside."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _load_config(args) -> pipeline.PipelineConfig:
    """The --config document with the --set overrides applied; a ConfigError
    names the file and --set."""
    doc = load_json(args.config, ConfigError) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set wants key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    with _naming(" and ".join(s for s in (args.config, args.set and "--set") if s)):
        return pipeline.PipelineConfig.from_dict(doc)


#: an ablation grid's keys, base and seeds optional: (key, check, what it must be)
_GRID_FIELDS = (
    ("base", lambda v: isinstance(v, dict), "a JSON object"),
    ("variants", lambda v: isinstance(v, list) and len(v) > 0
     and all(isinstance(x, dict) for x in v), "a non-empty list of objects"),
    ("seeds", lambda v: is_int_list(v) and len(set(v)) == len(v),
     "a list of distinct integers"),
)


# --------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    tags, _, _, _ = pipeline.config_split(config, args.split, args.out, args.n)
    print(f"wrote {len(tags)} scenes -> {args.out}")
    return EXIT_OK


def cmd_train_loc(args) -> int:
    config = _load_config(args)
    records = load_manifest(args.data).load_records()
    result = pipeline.train_localizers(
        records, [args.class_id], config.loc_config(), config.seed
    )[args.class_id]
    save_loc_checkpoint(args.out, result)
    print(
        f"class {args.class_id}: epochs={len(result.epoch_losses)} "
        f"final_loss={result.epoch_losses[-1]:.4f} -> {args.out}"
    )
    if args.export_maps:
        os.makedirs(args.export_maps, exist_ok=True)
        tagged = [rec for rec in records if args.class_id in rec.tags]
        for rec in tagged:
            sm = score_image(result.model, rec.features, image_id=rec.image_id)
            name = f"{rec.image_id}__c{args.class_id}.dstn"
            save_tensor(np.stack([sm.fg, sm.bg]), os.path.join(args.export_maps, name))
        print(f"exported {len(tagged)} score maps -> {args.export_maps}")
    return EXIT_OK


def _load_loc_dir(loc_dir: str, feature_depth: int) -> dict[int, LocalizationModel]:
    """The localizer checkpoints in the subdirectories of loc_dir, by class.
    DataError naming both directories when two hold the same class, or
    naming a checkpoint whose in_dim is not the features' depth."""
    models, paths = {}, {}
    for path in [os.path.join(loc_dir, name) for name in sorted(os.listdir(loc_dir))]:
        if not os.path.isdir(path):
            continue
        model = load_loc_checkpoint(path)
        c = model.class_id
        if c in paths:
            raise DataError(f"{paths[c]} and {path} both hold a localizer of class {c}")
        if model.dims[0] != feature_depth:
            raise DataError(f"{path}: in_dim {model.dims[0]} differs from the "
                            f"features' depth {feature_depth}")
        models[c], paths[c] = model, path
    return models


def cmd_sample(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.features)
    models = _load_loc_dir(args.loc_dir, manifest.feature_depth)
    points = pipeline.sample_supervision(
        manifest.load_records(), models, config.sampling_config(),
        pipeline.sampling_seed(config.seed),
    )
    save_points(points, args.out)
    print(f"{len(points)} points -> {args.out}")
    return EXIT_OK


def cmd_train_seg(args) -> int:
    config = _load_config(args)
    seg_config = config.seg_config()
    manifest = load_manifest(args.features)
    records = manifest.load_records()
    points = load_points(args.points)
    features = {r.image_id: augment_with_global(r.features) for r in records}
    result = train_segmentation(
        points, features, manifest.classes, seg_config, pipeline.seg_seed(config.seed)
    )
    save_seg_checkpoint(args.out, result, seg_config)
    print(
        f"{len(points)} points, {result.wall_seconds:.1f}s, "
        f"final_loss={result.epoch_losses[-1]:.4f} -> {args.out}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    manifest = load_manifest(args.data)
    model = load_seg_checkpoint(args.model)
    feats = manifest.load_unit_features(manifest.entry(args.image), manifest.load_stats())
    labels, _ = predict(model, augment_with_global(feats))
    save_tensor(labels.astype(np.float32), args.out)
    print(f"labels -> {args.out}")
    if args.ppm:
        save_label_ppm(labels, model.background_index, args.ppm)
        print(f"rendered -> {args.ppm}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args)
    manifest = load_manifest(args.data)
    model = load_seg_checkpoint(args.model)
    stats = manifest.load_stats()
    images = [
        pipeline.EvalImage(
            image_id=e.image_id,
            features=manifest.load_unit_features(e, stats),
            truth=manifest.load_grid_truth(e),
        )
        for e in manifest.entries
    ]
    report, _ = pipeline.evaluate_images(
        model, images, manifest.background_label, config_echo=config.report_echo()
    )
    save_json(report.to_dict(), args.out)
    print(f"miou={report.miou:.4f} -> {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args)
    summary = pipeline.run_pipeline(config, args.out)
    for stage in summary["stages"]:
        print(f"{stage['name']:>10s}: {stage['seconds']:.1f}s")
    print(f"miou={summary['report']['miou']:.4f} -> {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    require_count("--seeds", args.seeds)
    grid = load_json(args.grid, ConfigError)
    unknown = sorted(set(grid) - {key for key, _, _ in _GRID_FIELDS})
    if unknown:
        raise ConfigError(f"{args.grid}: unknown keys {unknown}")
    base_doc, variants, seeds = check_fields(
        {"base": {}, "seeds": [], **grid}, _GRID_FIELDS, args.grid, ConfigError)
    with _naming(f"{args.grid}: base"):
        base = pipeline.PipelineConfig.from_dict(base_doc)
    first: dict[str, int] = {}
    for i, overrides in enumerate(variants):  # each checked before any seed runs
        with _naming(f"{args.grid}: variants[{i}]"):
            pipeline.base_with(base, overrides)
        name = pipeline.variant_name(overrides)  # rows are summarized by name
        if name in first:
            raise ConfigError(f"{args.grid}: variants[{first[name]}] and variants[{i}] "
                              f"are both {name!r}")
        first[name] = i
    seeds = seeds or [derive_seed(base.seed, i) % 10**6 for i in range(args.seeds)]
    summary = pipeline.ablation_run(base, variants, seeds, log=print)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_json(summary, args.out + ".json")
    table = pipeline.format_ablation_table(summary)
    with open(args.out + ".txt", "w") as fh:
        fh.write(table)
    print(table, end="")
    return EXIT_OK


def cmd_add_class(args) -> int:
    config = _load_config(args)
    seg_config = config.seg_config()
    new_manifest = load_manifest(args.data)
    base_manifest = load_manifest(args.base_data)
    new_manifest.check_made_from(base_manifest)  # normalization stays frozen
    new_records = new_manifest.load_records()
    base_records = base_manifest.load_records()
    loc_models = _load_loc_dir(args.loc_dir, base_manifest.feature_depth)
    points = load_points(args.points)
    features = {r.image_id: augment_with_global(r.features) for r in base_records}
    result = add_class(
        args.class_id, new_records, loc_models, points, features, base_manifest.classes,
        config.loc_config(), config.sampling_config(), seg_config,
        seed=pipeline.add_class_seed(config.seed),
    )
    os.makedirs(args.out, exist_ok=True)
    save_loc_checkpoint(
        os.path.join(args.out, f"loc_class_{args.class_id}"), result.loc_result
    )
    save_points(result.merged_points, os.path.join(args.out, "points.jsonl"))
    save_seg_checkpoint(os.path.join(args.out, "seg.ckpt"), result.seg_result, seg_config)
    print(
        f"class {args.class_id} added: +{len(result.new_points)} points, "
        f"universe {list(result.class_ids)} -> {args.out}"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    """Finite-difference checks of the backward each model trains with: the
    localizer's pooled BCE and the head's loss, each step in a float64
    workspace (a float32 loss is too coarse for the differences)."""
    rng = Rng(args.seed)
    init_seed = derive_seed(args.seed, 1)
    n, d, h = 12, 6, 5

    def check(model, loss_and_grads, stream):
        def fn(flat):
            model.flat[:] = flat
            lv, grad = loss_and_grads(model)
            return lv.loss, grad

        return grad_check(fn, model.flat, Rng(derive_seed(args.seed, stream)))

    checks = []
    for pooling in ("pixel", "global"):
        x = rng.uniform_array(n * d, -1, 1).reshape(n, d)
        model = LocalizationModel.initialized(init_seed, d, h, 2, class_id=0, pooling=pooling)
        loc_ws = StepWorkspace(1, n, model.dims, np.float64)
        err = check(model, lambda m: localizer_loss_and_grads(m, x, 1, loc_ws), 2)
        checks.append((f"pooled-bce[{pooling}]", err))
    x = rng.uniform_array(n * d, -1, 1).reshape(n, d)
    head = SegmentationModel.initialized(
        derive_seed(args.seed, 4), d, h, 4, class_ids=(0, 1, 2), global_dim=0
    )
    labels = np.arange(0, n, 2) % 4
    ws = HeadWorkspace(head, len(labels), np.float64)
    err = check(head, lambda m: head_loss_and_grads(m, x[::2], labels, ws), 3)
    checks.append(("masked-ce", err))

    failures = 0
    for name, err in checks:
        ok = err < args.tol
        failures += not ok
        print(f"{name:20s} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_render(args) -> int:
    if args.kind == "heatmap":
        if not args.input:
            raise ConfigError("render heatmap needs --in")
        arr = load_tensor(args.input)
        if arr.ndim == 3 and arr.shape[0] == 2:
            arr = arr[0 if args.channel == "fg" else 1]
        if arr.ndim != 2:
            raise DataError(f"cannot render shape {arr.shape} as a heatmap")
        save_heatmap_pgm(arr, args.out)
    elif args.kind == "labels":
        if not args.input or args.background_index is None:
            raise ConfigError("render labels needs --in and --background-index")
        save_label_ppm(load_tensor(args.input), args.background_index, args.out)
    elif args.kind == "points":
        if not (args.points and args.data and args.image):
            raise ConfigError("render points needs --points, --data and --image")
        manifest = load_manifest(args.data)
        image = manifest.images[manifest.entry(args.image).row]
        points = [p for p in load_points(args.points) if p.image_id == args.image]
        gh, gw = manifest.grid_size
        cell = manifest.image_size[0] // gh
        save_overlay_ppm(image, points, gw, cell, args.out)
    print(f"rendered -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config document")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (wins over --config)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="divseed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write one split of the config's benchmark")
    g.add_argument("--split", choices=("train", "test", "new"), required=True,
                   help="train and test as run makes them; new: images of one class more")
    g.add_argument("--n", type=int, default=None, help="image count of a new split")
    g.add_argument("--out", required=True)
    _add_config_args(g)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train-loc", help="train one class's localizer")
    t.add_argument("--class", dest="class_id", type=int, required=True)
    t.add_argument("--data", required=True, help="dataset manifest")
    t.add_argument("--out", required=True)
    t.add_argument("--export-maps", default=None,
                   help="also write the (2, H, W) score map of every image tagged with "
                        "the class, <image>__c<class>.dstn, for render --kind heatmap")
    _add_config_args(t)
    t.set_defaults(fn=cmd_train_loc)

    s = sub.add_parser("sample", help="sample pseudo-label points from the localizers' scores")
    s.add_argument("--loc-dir", required=True,
                   help="directory of localization checkpoints, one per tagged class")
    s.add_argument("--features", required=True, help="dataset manifest")
    s.add_argument("--out", required=True)
    _add_config_args(s)
    s.set_defaults(fn=cmd_sample)

    ts = sub.add_parser("train-seg", help="train the segmentation head on points")
    ts.add_argument("--points", required=True)
    ts.add_argument("--features", required=True, help="dataset manifest")
    ts.add_argument("--out", required=True)
    _add_config_args(ts)
    ts.set_defaults(fn=cmd_train_seg)

    pr = sub.add_parser("predict", help="dense labels for one image")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--image", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--ppm", default=None)
    pr.set_defaults(fn=cmd_predict)

    ev = sub.add_parser("eval", help="mIoU report over a manifest")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)
    _add_config_args(ev)
    ev.set_defaults(fn=cmd_eval)

    r = sub.add_parser("run", help="full pipeline from a config")
    r.add_argument("--out", required=True)
    _add_config_args(r)
    r.set_defaults(fn=cmd_run)

    ab = sub.add_parser("ablate", help="run a config grid and tabulate mIoU")
    ab.add_argument("--grid", required=True,
                    help='JSON: {"base": {...}, "variants": [{...}], "seeds": [...]}')
    ab.add_argument("--seeds", type=int, default=5,
                    help="seed count when the grid lists none")
    ab.add_argument("--out", required=True, help="output prefix (.txt / .json)")
    ab.set_defaults(fn=cmd_ablate)

    ac = sub.add_parser("add-class", help="extend the system with one new class")
    ac.add_argument("--class", dest="class_id", type=int, required=True)
    ac.add_argument("--data", required=True, help="manifest of the new images")
    ac.add_argument("--base-data", required=True, help="original training manifest")
    ac.add_argument("--loc-dir", required=True,
                    help="directory of existing localization checkpoints")
    ac.add_argument("--points", required=True, help="existing points.jsonl")
    ac.add_argument("--out", required=True)
    _add_config_args(ac)
    ac.set_defaults(fn=cmd_add_class)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    gc.add_argument("--seed", type=int, default=7)
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.set_defaults(fn=cmd_gradcheck)

    rd = sub.add_parser("render", help="PGM/PPM figure outputs")
    rd.add_argument("--kind", choices=["heatmap", "labels", "points"], required=True)
    rd.add_argument("--in", dest="input", default=None, help="input tensor")
    rd.add_argument("--channel", choices=["fg", "bg"], default="fg")
    rd.add_argument("--background-index", type=int, default=None)
    rd.add_argument("--points", default=None)
    rd.add_argument("--data", default=None)
    rd.add_argument("--image", default=None)
    rd.add_argument("--out", required=True)
    rd.set_defaults(fn=cmd_render)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except TensorFormatError as e:
        print(f"file format error: {e}", file=sys.stderr)
        return EXIT_IO
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except DivseedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
