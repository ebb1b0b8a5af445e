"""Command-line interface.

Subcommands: gen-data, train-loc, sample, train-seg, predict, eval, ablate,
add-class, gradcheck, render, run. A single JSON config drives `run` and
`ablate`; individual stage commands take explicit flags, checked by the same
stage configs as `run`'s before anything is read or written. Flags always
win over config-file values. `--jobs N` on `run` and `ablate`, else a `jobs`
value in the config document, else the DIVSEED_JOBS environment variable,
sizes the worker pool for per-class localizer training; N below 1 is a
config error. Point sampling always runs in-process.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
5 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import pipeline
from .dataset import load_manifest, make_split
from .errors import ConfigError, DataError, DivseedError, NumericError, TensorFormatError
from .localization import (
    POOLING_MODES,
    LocalizationModel,
    LocConfig,
    ScoreMap,
    load_loc_checkpoint,
    localizer_loss_and_grads,
    save_loc_checkpoint,
    score_image,
    train_localizer,
)
from .nn import grad_check
from .render import save_heatmap_pgm, save_label_ppm, save_overlay_ppm
from .rng import Rng, derive_seed
from .sampling import SamplingConfig, build_supervision_set, load_points, save_points
from .segmentation import (
    SegConfig,
    SegmentationModel,
    add_class,
    augment_with_global,
    head_loss_and_grads,
    load_seg_checkpoint,
    predict,
    save_seg_checkpoint,
    train_segmentation,
)
from .synthdata import ExtractorSpec
from .tensor import load_tensor, save_json, save_tensor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _with_jobs(args, doc: dict) -> dict:
    """The config document with its worker count resolved: --jobs, else the
    document's own `jobs`, else DIVSEED_JOBS, else 1. A DIVSEED_JOBS that is
    not an integer >= 1 is a ConfigError."""
    if getattr(args, "jobs", None) is not None:
        return {**doc, "jobs": args.jobs}
    if "jobs" in doc:
        return doc
    env = os.environ.get("DIVSEED_JOBS", "")
    if not env:
        return {**doc, "jobs": 1}
    if not (env.isdigit() and int(env) > 0):
        raise ConfigError(f"DIVSEED_JOBS must be an integer >= 1, got {env!r}")
    return {**doc, "jobs": int(env)}


def _strategy_name(cli_name: str) -> str:
    return "top_k" if cli_name == "topk" else cli_name


def _load_json_object(path: str) -> dict:
    """A config document: a UTF-8 JSON object, else a ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def _load_config(args) -> pipeline.PipelineConfig:
    doc = {}
    if getattr(args, "config", None):
        doc = _load_json_object(args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set wants key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    return pipeline.PipelineConfig.from_dict(_with_jobs(args, doc))


# --------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    """With --stats-from, the split takes that training set's extractor and
    stats, as `run` makes its test split; without, it derives its extractor
    from --seed and computes its stats."""
    if args.stats_from is None:
        spec = ExtractorSpec(seed=derive_seed(args.seed, pipeline._STREAM_EXTRACTOR))
        stats = None
    else:
        base = load_manifest(args.stats_from)
        spec, stats = ExtractorSpec(seed=base.extractor_seed), base.load_stats()
    scenes, _, _ = make_split(
        args.n, args.classes, args.size, args.seed, args.prefix, spec, stats, args.out
    )
    print(f"wrote {len(scenes)} scenes -> {args.out}")
    return EXIT_OK


def cmd_train_loc(args) -> int:
    config = LocConfig(hidden=args.hidden, pooling=args.pooling)
    manifest = load_manifest(args.data)
    records = manifest.load_records()
    result = train_localizer(args.class_id, records, config, seed=args.seed)
    save_loc_checkpoint(args.out, result)
    print(
        f"class {args.class_id}: epochs={len(result.epoch_losses)} "
        f"final_loss={result.epoch_losses[-1]:.4f} -> {args.out}"
    )
    if args.export_maps:
        os.makedirs(args.export_maps, exist_ok=True)
        n = 0
        for rec in records:
            if args.class_id not in rec.tags:
                continue
            sm = score_image(result.model, rec.features, image_id=rec.image_id)
            save_tensor(
                np.stack([sm.fg, sm.bg]),
                os.path.join(args.export_maps, f"{rec.image_id}__c{args.class_id}.dstn"),
            )
            n += 1
        print(f"exported {n} score maps -> {args.export_maps}")
    return EXIT_OK


def _load_map_dir(map_dir: str) -> dict[str, dict[int, "ScoreMap"]]:
    maps: dict[str, dict[int, ScoreMap]] = {}
    names = sorted(n for n in os.listdir(map_dir) if n.endswith(".dstn"))
    for name in names:
        stem = name[: -len(".dstn")]
        if "__c" not in stem:
            raise DataError(f"score map file {name!r} not named <image>__c<class>.dstn")
        image_id, suffix = stem.rsplit("__c", 1)
        try:
            cid = int(suffix)
        except ValueError:
            raise DataError(f"score map file {name!r}: class {suffix!r} is not an integer")
        arr = load_tensor(os.path.join(map_dir, name))
        if arr.ndim != 3 or arr.shape[0] != 2:
            raise DataError(f"{name}: expected a (2, H, W) tensor, got {arr.shape}")
        maps.setdefault(image_id, {})[cid] = ScoreMap(
            class_id=cid, image_id=image_id, fg=arr[0], bg=arr[1]
        )
    return maps


def cmd_sample(args) -> int:
    config = SamplingConfig(
        k=args.k, strategy=_strategy_name(args.strategy), tau=args.tau,
        spatial_scale=args.spatial_scale,
    )
    manifest = load_manifest(args.features)
    records = manifest.load_records()
    maps = _load_map_dir(args.in_dir)
    # the scores come from the map directory, so no models are needed; an
    # image without exported maps (no positive tag) gets background only
    points = build_supervision_set(records, {}, config, args.seed, maps_by_image=maps)
    save_points(points, args.out)
    print(f"{len(points)} points -> {args.out}")
    return EXIT_OK


def cmd_train_seg(args) -> int:
    config = SegConfig(
        hidden=args.hidden, lr=args.lr, epochs=args.epochs, batch_size=args.batch
    )
    manifest = load_manifest(args.features)
    records = manifest.load_records()
    points = load_points(args.points)
    features = {r.image_id: augment_with_global(r.features) for r in records}
    result = train_segmentation(points, features, manifest.classes, config, args.seed)
    save_seg_checkpoint(args.out, result, config)
    print(
        f"{len(points)} points, {result.wall_seconds:.1f}s, "
        f"final_loss={result.epoch_losses[-1]:.4f} -> {args.out}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    manifest = load_manifest(args.data)
    model = load_seg_checkpoint(args.model)
    entry = next((e for e in manifest.entries if e.image_id == args.image), None)
    if entry is None:
        raise DataError(f"image {args.image!r} not in manifest")
    feats = manifest.load_unit_features(entry, manifest.load_stats())
    labels, _ = predict(model, augment_with_global(feats))
    save_tensor(labels.astype(np.float32), args.out)
    print(f"labels -> {args.out}")
    if args.ppm:
        save_label_ppm(labels, model.background_index, args.ppm)
        print(f"rendered -> {args.ppm}")
    return EXIT_OK


def cmd_eval(args) -> int:
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
    report, _ = pipeline.evaluate_images(model, images, manifest.background_label)
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
    grid = _load_json_object(args.grid)
    base_doc = grid.get("base", {})
    if not isinstance(base_doc, dict):
        raise ConfigError(f"{args.grid}: base must be a JSON object")
    base = pipeline.PipelineConfig.from_dict(_with_jobs(args, base_doc))
    variants = grid.get("variants", [])
    if not variants:
        raise ConfigError("ablation grid has no variants")
    seeds = grid.get("seeds") or [derive_seed(base.seed, i) % 10**6
                                  for i in range(args.seeds)]
    summary = pipeline.ablation_run(base, variants, seeds, log=print)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_json(summary, args.out + ".json")
    table = pipeline.format_ablation_table(summary)
    with open(args.out + ".txt", "w") as fh:
        fh.write(table)
    print(table, end="")
    return EXIT_OK


def cmd_add_class(args) -> int:
    loc_config = LocConfig(hidden=args.loc_hidden, pooling=args.pooling)
    sampling_config = SamplingConfig(k=args.k, strategy=_strategy_name(args.strategy))
    seg_config = SegConfig(hidden=args.seg_hidden, lr=args.lr, epochs=args.epochs,
                           batch_size=args.batch)
    new_manifest = load_manifest(args.data)
    base_manifest = load_manifest(args.base_data)
    new_manifest.check_made_from(base_manifest)  # normalization stays frozen
    new_records = new_manifest.load_records()
    base_records = base_manifest.load_records()
    loc_models = {}
    for name in sorted(os.listdir(args.loc_dir)):
        path = os.path.join(args.loc_dir, name)
        if os.path.isdir(path):
            model = load_loc_checkpoint(path)
            loc_models[model.class_id] = model
    points = load_points(args.points)
    features = {r.image_id: augment_with_global(r.features) for r in base_records}
    result = add_class(
        args.class_id, new_records, loc_models, points, features, base_manifest.classes,
        loc_config, sampling_config, seg_config, seed=args.seed,
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
    localizer's pooled BCE and the head's loss."""
    rng = Rng(args.seed)
    init_seed = derive_seed(args.seed, 1)
    n, d, h = 12, 6, 5

    def check(model, loss_and_grads, stream):
        def fn(params):
            model.set_params(params)
            lv, grads = loss_and_grads(model)
            return lv.loss, grads

        params = [p.copy() for p in model.params()]
        return grad_check(fn, params, Rng(derive_seed(args.seed, stream)))

    checks = []
    for pooling in ("pixel", "global"):
        x = rng.uniform_array(n * d, -1, 1).reshape(n, d)
        model = LocalizationModel.initialized(init_seed, d, h, 2, class_id=0, pooling=pooling)
        err = check(model, lambda m: localizer_loss_and_grads(m, x, label=1), 2)
        checks.append((f"pooled-bce[{pooling}]", err))
    x = rng.uniform_array(n * d, -1, 1).reshape(n, d)
    head = SegmentationModel.initialized(
        derive_seed(args.seed, 4), d, h, 4, class_ids=(0, 1, 2), global_dim=0
    )
    labels = np.arange(0, n, 2) % 4
    err = check(head, lambda m: head_loss_and_grads(m, x[::2], labels), 3)
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
        labels = load_tensor(args.input).astype(np.int64)
        save_label_ppm(labels, args.background_index, args.out)
    elif args.kind == "points":
        if not (args.points and args.data and args.image):
            raise ConfigError("render points needs --points, --data and --image")
        manifest = load_manifest(args.data)
        entry = next(
            (e for e in manifest.entries if e.image_id == args.image), None
        )
        if entry is None:
            raise DataError(f"image {args.image!r} not in manifest")
        image = load_tensor(manifest.path(entry.image_path))
        points = [p for p in load_points(args.points) if p.image_id == args.image]
        gh, gw = manifest.grid_size
        cell = manifest.image_size[0] // gh
        save_overlay_ppm(image, points, gw, cell, args.out)
    print(f"rendered -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    loc, seg, sampling = LocConfig(), SegConfig(), SamplingConfig()
    p = argparse.ArgumentParser(prog="divseed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out", required=True)
    g.add_argument("--prefix", default="scene")
    g.add_argument("--stats-from", default=None,
                   help="training dataset (directory or manifest) whose extractor "
                        "and stats this split takes")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train-loc", help="train one class's localizer")
    t.add_argument("--class", dest="class_id", type=int, required=True)
    t.add_argument("--data", required=True, help="dataset manifest")
    t.add_argument("--pooling", choices=POOLING_MODES, default=loc.pooling)
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("--hidden", type=int, default=loc.hidden)
    t.add_argument("--out", required=True)
    t.add_argument("--export-maps", default=None,
                   help="also write score maps for positive images")
    t.set_defaults(fn=cmd_train_loc)

    s = sub.add_parser("sample", help="sample pseudo-label points from score maps")
    s.add_argument("--strategy", choices=["diverse", "topk", "spatial", "dense"],
                   required=True)
    s.add_argument("--k", type=int, default=sampling.k)
    s.add_argument("--tau", type=float, default=sampling.tau)
    s.add_argument("--spatial-scale", type=float, default=None)
    s.add_argument("--in", dest="in_dir", required=True, help="score map directory")
    s.add_argument("--features", required=True, help="dataset manifest")
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    ts = sub.add_parser("train-seg", help="train the segmentation head on points")
    ts.add_argument("--points", required=True)
    ts.add_argument("--features", required=True, help="dataset manifest")
    ts.add_argument("--hidden", type=int, default=seg.hidden)
    ts.add_argument("--lr", type=float, default=seg.lr)
    ts.add_argument("--epochs", type=int, default=seg.epochs)
    ts.add_argument("--batch", type=int, default=seg.batch_size)
    ts.add_argument("--seed", type=int, default=7)
    ts.add_argument("--out", required=True)
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
    ev.set_defaults(fn=cmd_eval)

    r = sub.add_parser("run", help="full pipeline from a config")
    r.add_argument("--config", default=None, help="JSON config document")
    r.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (flags win)")
    r.add_argument("--out", required=True)
    r.add_argument("--jobs", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    ab = sub.add_parser("ablate", help="run a config grid and tabulate mIoU")
    ab.add_argument("--grid", required=True,
                    help='JSON: {"base": {...}, "variants": [{...}], "seeds": [...]}')
    ab.add_argument("--seeds", type=int, default=5,
                    help="seed count when the grid lists none")
    ab.add_argument("--out", required=True, help="output prefix (.txt / .json)")
    ab.add_argument("--jobs", type=int, default=None)
    ab.set_defaults(fn=cmd_ablate)

    ac = sub.add_parser("add-class", help="extend the system with one new class")
    ac.add_argument("--class", dest="class_id", type=int, required=True)
    ac.add_argument("--data", required=True, help="manifest of the new images")
    ac.add_argument("--base-data", required=True, help="original training manifest")
    ac.add_argument("--loc-dir", required=True,
                    help="directory of existing localization checkpoints")
    ac.add_argument("--points", required=True, help="existing points.jsonl")
    ac.add_argument("--out", required=True)
    ac.add_argument("--seed", type=int, default=7)
    ac.add_argument("--pooling", choices=POOLING_MODES, default=loc.pooling)
    ac.add_argument("--strategy", choices=["diverse", "topk", "spatial"],
                    default="diverse")
    ac.add_argument("--k", type=int, default=sampling.k)
    ac.add_argument("--loc-hidden", type=int, default=loc.hidden)
    ac.add_argument("--seg-hidden", type=int, default=seg.hidden)
    ac.add_argument("--lr", type=float, default=seg.lr)
    ac.add_argument("--epochs", type=int, default=seg.epochs)
    ac.add_argument("--batch", type=int, default=seg.batch_size)
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
