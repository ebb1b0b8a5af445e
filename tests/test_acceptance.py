"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 6-10 share one benchmark grid, the committed
configs/strategy_ablation.json (5 seeds x the sampling/pooling/k variants),
run seed by seed through pipeline.ablation_seed, which reuses localizers
across variants that do not retrain them; the grid fixture also enforces the
single-core runtime budget. Everything runs with jobs=1.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from divseed.localization import (
    LocalizationModel,
    LocTrainResult,
    ScoreMap,
    StepWorkspace,
    localizer_loss_and_grads,
    save_loc_checkpoint,
)
from divseed.nn import (
    global_softmax_prob,
    grad_check,
    masked_ce_loss_and_grad,
    mlp_forward,
    pixel_softmax_prob,
)
from divseed.pipeline import (
    PipelineConfig,
    ablation_seed,
    format_ablation_table,
    run_pipeline,
    summarize_ablation,
)
from divseed.rng import Rng
from divseed.sampling import (
    SampledPoint,
    sample_diverse_bg,
    sample_diverse_fg,
    sample_spatial,
)
from divseed.segmentation import HeadWorkspace, SegmentationModel, head_loss_and_grads
from divseed.tensor import FeatureGrid, Grid, NormState

from reference_samplers import naive_diverse_bg, naive_diverse_fg, naive_spatial
from test_nn import random_net


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _unit_rows(rng: Rng, n: int, d: int) -> np.ndarray:
    feats = rng.uniform_array(n * d, -1.0, 1.0).reshape(n, d)
    feats /= np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1e-12)
    return feats.astype(np.float32)


def _fg(values, shape):
    return FeatureGrid(grid=Grid(values.reshape(*shape, -1)),
                       norm_state=NormState.UNIT)


def _sm(scores, shape, image_id="img"):
    fgmap = np.asarray(scores, dtype=np.float32).reshape(shape)
    return ScoreMap(class_id=0, image_id=image_id, fg=fgmap,
                    bg=np.zeros_like(fgmap))


# ---------------------------------------------------------------------------
# 1. oracle equivalence on 200 random instances per sampler


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = Rng(0xACC1)
    mismatches = 0
    for _ in range(200):
        n = 2 + rng.randint(511)
        d = 1 + rng.randint(32)
        k = 1 + rng.randint(min(32, n))
        scores = rng.uniform_array(n, 0.0, 2.0).astype(np.float32)
        feats = _unit_rows(rng, n, d)
        picks = sample_diverse_fg(_sm(scores, (1, n)), _fg(feats, (1, n)), k)
        ref, _ = naive_diverse_fg(scores, feats, k)
        mismatches += [p.loc for p in picks] != ref

        n_fg = 1 + rng.randint(max(n // 4, 1))
        fg_locs = sorted(rng.sample_indices(n, n_fg))
        k_bg = 1 + rng.randint(min(32, n - n_fg))
        fg_points = [SampledPoint("img", loc, 0, i + 1, 0.0)
                     for i, loc in enumerate(fg_locs)]
        bg = sample_diverse_bg(fg_points, _fg(feats, (1, n)), k_bg)
        ref_bg, _ = naive_diverse_bg(fg_locs, feats, k_bg)
        mismatches += [p.loc for p in bg] != ref_bg

        h = 1 + rng.randint(22)
        w = 1 + rng.randint(22)
        k_sp = 1 + rng.randint(min(32, h * w))
        sp_scores = rng.uniform_array(h * w, 0.0, 2.0).astype(np.float32)
        scale = rng.uniform(0.5, 6.0)
        sp = sample_spatial(_sm(sp_scores, (h, w)), k_sp, scale)
        ref_sp, _ = naive_spatial(sp_scores, (h, w), k_sp, scale)
        mismatches += [p.loc for p in sp] != ref_sp
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(1, ok,
             f"fg/bg/spatial samplers == naive reference on 200 instances each "
             f"(mismatches={mismatches}, {elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 2. hand-trace fixtures


def test_criterion_2_hand_traces():
    tol = 1e-6
    sm = _sm([1.0, 0.9, 0.5], (1, 3))
    f = _fg(np.array([[1, 0], [1, 0], [0, 1]], dtype=np.float32), (1, 3))
    a = sample_diverse_fg(sm, f, 2)
    ok = [p.loc for p in a] == [0, 2]

    f2 = _fg(np.array([[1, 0], [0.8, 0.6], [0, 1]], dtype=np.float32), (1, 3))
    b = sample_diverse_fg(sm, f2, 3)
    ok &= [p.loc for p in b] == [0, 2, 1]
    ok &= all(
        abs(p.value - want) < tol
        for p, want in zip(b, (1.0, 0.5, 0.18))
    )

    fg_points = [SampledPoint("img", 0, 0, 1, 1.0)]
    f3 = _fg(
        np.array([[1, 0], [0, 1], [math.sqrt(0.5), math.sqrt(0.5)]],
                 dtype=np.float32), (1, 3),
    )
    c = sample_diverse_bg(fg_points, f3, 2)
    ok &= [p.loc for p in c] == [1, 2]
    ok &= abs(c[0].value - 0.0) < tol
    ok &= abs(c[1].value - math.sqrt(0.5)) < tol
    _verdict(2, bool(ok),
             "hand traces: fg [0,2]; fg [0,2,1] values (1.0,0.5,0.18); "
             "bg [1,2] values (0, sqrt(1/2)) at 1e-6")


# ---------------------------------------------------------------------------
# 3. selection-value monotonicity, 500 random instances


def test_criterion_3_monotonicity():
    rng = Rng(0xACC3)
    violations = 0
    for _ in range(500):
        n = 4 + rng.randint(125)
        d = 1 + rng.randint(16)
        k = 1 + rng.randint(min(n // 2, 24))
        scores = rng.uniform_array(n, 0.0, 3.0).astype(np.float32)
        feats = _unit_rows(rng, n, d)
        fgrid = _fg(feats, (1, n))
        fg = sample_diverse_fg(_sm(scores, (1, n)), fgrid, k)
        vals = [p.value for p in fg]
        violations += any(a < b for a, b in zip(vals, vals[1:]))
        k_bg = 1 + rng.randint(min(n - k, 24))
        bg = sample_diverse_bg(fg, fgrid, k_bg)
        bvals = [p.value for p in bg]
        violations += any(a > b for a, b in zip(bvals, bvals[1:]))
    _verdict(3, violations == 0,
             f"fg values non-increasing / bg values non-decreasing on 500 "
             f"instances (violations={violations})")


# ---------------------------------------------------------------------------
# 4. gradient checks at f64


def _loc_style_instance(rng: Rng, n=14, d=6, hidden=5):
    return random_net(rng.next_u64(), d, hidden, 2, n)


def _argmax_gap(values: np.ndarray) -> float:
    top = np.sort(values)[-2:]
    return float(top[1] - top[0])


def test_criterion_4_gradient_checks():
    started = time.perf_counter()
    rng = Rng(0xACC4)
    worst = {"pixel": 0.0, "global": 0.0, "masked": 0.0}
    done = 0
    while done < 20:
        x, net = _loc_style_instance(rng)
        label = done % 2
        loc_ws = StepWorkspace(1, x.shape[0], net.dims, np.float64)

        def loss_and_grads(flat, pooling):
            # the step the localizer trains with, in a float64 workspace
            model = LocalizationModel(flat, net.dims, 0, class_id=0, pooling=pooling)
            lv, grad = localizer_loss_and_grads(model, x, label, loc_ws)
            return lv.loss, grad

        # unique argmaxes: regenerate until the pooled maxima are isolated,
        # so the finite-difference step cannot cross a tie
        _, y = mlp_forward(net.params(), x)
        if (
            _argmax_gap(y[:, 0] - y[:, 1]) < 1e-3
            or _argmax_gap(y[:, 0]) < 1e-3
            or _argmax_gap(y[:, 1]) < 1e-3
        ):
            continue
        done += 1
        for name in ("pixel", "global"):
            err = grad_check(
                lambda flat, name=name: loss_and_grads(flat, name), net.flat,
                Rng(rng.next_u64()), n_coords=100,
            )
            worst[name] = max(worst[name], err)

        # the head's loss on every other location, through the step the
        # head trains with (hidden layer included), in a float64 workspace
        labels = np.arange(0, x.shape[0], 2) % 3
        head = SegmentationModel.initialized(
            rng.next_u64(), x.shape[1], 5, 3, class_ids=(0, 1), global_dim=0
        )

        ws = HeadWorkspace(head, len(labels), np.float64)

        def masked(flat):
            head.flat[:] = flat
            lv, grad = head_loss_and_grads(head, x[::2], labels, ws)
            return lv.loss, grad

        err = grad_check(masked, head.flat, Rng(rng.next_u64()), n_coords=100)
        worst["masked"] = max(worst["masked"], err)
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) < 1e-4 and elapsed < 60.0
    _verdict(4, ok,
             f"max rel err: pixel {worst['pixel']:.2e}, global "
             f"{worst['global']:.2e}, masked CE {worst['masked']:.2e} "
             f"(all < 1e-4, {elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 5. pooling identities


def test_criterion_5_pooling_identities():
    rng = Rng(0xACC5)
    ok = True
    worst_single = 0.0
    worst_shift = 0.0
    for _ in range(200):
        a, b = rng.uniform(-20, 20), rng.uniform(-20, 20)
        p1, _ = pixel_softmax_prob(np.array([a]), np.array([b]))
        p2, _ = global_softmax_prob(np.array([a]), np.array([b]))
        worst_single = max(worst_single, abs(p1 - p2))

        n = 2 + rng.randint(30)
        fg = rng.uniform_array(n, -10, 10)
        bg = rng.uniform_array(n, -10, 10)
        shift = rng.uniform(-5, 5)
        for pool in (pixel_softmax_prob, global_softmax_prob):
            p, _ = pool(fg, bg)
            q, _ = pool(fg + shift, bg + shift)
            worst_shift = max(worst_shift, abs(p - q))

    sym = rng.uniform_array(7, -3, 3)
    p_pix, _ = pixel_softmax_prob(sym, sym.copy())
    p_glob, _ = global_softmax_prob(np.array([1.0, 4.0]), np.array([4.0, 2.0]))
    ok &= p_pix == 0.5 and p_glob == 0.5
    ok &= worst_single < 1e-12 and worst_shift < 1e-9
    _verdict(5, bool(ok),
             f"1x1 agreement {worst_single:.1e} < 1e-12, shift invariance "
             f"{worst_shift:.1e} < 1e-9, symmetric inputs give exactly 0.5")


# ---------------------------------------------------------------------------
# shared benchmark grid for criteria 6-10


GRID_PATH = Path(__file__).resolve().parents[1] / "configs" / "strategy_ablation.json"
ADD_CLASS_IMAGES = 150


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """The committed strategy-ablation grid (5 seeds x 8 variants) plus a
    per-seed class addition on the diverse-k20 system, single-core."""
    started = time.perf_counter()
    doc = json.loads(GRID_PATH.read_text())
    base = PipelineConfig.from_dict(doc["base"])
    # criteria 6-10 hold on this grid: the default benchmark, 5 seeds, 8
    # variants with diverse k=20 first; a change to the file must show here
    assert doc["base"] == {} and doc["seeds"] == [0, 1, 2, 3, 4]
    assert len(doc["variants"]) == 8
    assert doc["variants"][0] == {"strategy": "diverse", "k": 20}
    rows = []
    seg_seconds = []
    addclass = []
    out_dir = tmp_path_factory.mktemp("acceptance")

    for seed in doc["seeds"]:
        run = ablation_seed(base, doc["variants"], seed)
        rows += run.rows()
        diverse = run.variants[0]
        seg_seconds.append(diverse.seg_result.wall_seconds)

        # class addition on top of the diverse-k20 system
        models = run.models[diverse.config.pooling]
        ckpt_dir = out_dir / f"seed{seed}_loc"
        for c in sorted(models):
            save_loc_checkpoint(
                ckpt_dir / f"class_{c}",
                LocTrainResult(model=models[c], epoch_losses=[0.0],
                               negative_ids=[]),
            )
        hashes_before = {
            c: (ckpt_dir / f"class_{c}" / "params.dstn").read_bytes()
            for c in sorted(models)
        }
        params_before = {
            c: [p.copy() for p in models[c].params()] for c in models
        }
        added, added_report = run.run_add_class(ADD_CLASS_IMAGES)
        hashes_after = {
            c: (ckpt_dir / f"class_{c}" / "params.dstn").read_bytes()
            for c in sorted(models)
        }
        params_same = all(
            np.array_equal(p, q)
            for c in models
            for p, q in zip(params_before[c], models[c].params())
        )
        addclass.append(
            {
                "seed": seed,
                "ckpt_identical": hashes_before == hashes_after,
                "params_identical": params_same,
                "drops": [
                    diverse.report.per_class_iou[c] - added_report.per_class_iou[c]
                    for c in range(base.n_classes)
                ],
                "retrain_seconds": added.seg_result.wall_seconds,
            }
        )

    summary = summarize_ablation(base, rows)
    json_path = out_dir / "ablation.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    with open(out_dir / "ablation.txt", "w") as fh:
        fh.write(format_ablation_table(summary))
    return {
        "summary": summary,
        "seg_seconds": seg_seconds,
        "addclass": addclass,
        "elapsed": time.perf_counter() - started,
        "out_dir": out_dir,
    }


def _median_miou(summary, **match):
    for v in summary["variants"]:
        if v["overrides"] == match:
            return v["median_miou"]
    raise KeyError(match)


@pytest.mark.slow
def test_criterion_6_strategy_ordering(grid):
    s = grid["summary"]
    diverse = _median_miou(s, strategy="diverse", k=20)
    topk = _median_miou(s, strategy="top_k", k=20)
    dense = _median_miou(s, strategy="dense")
    elapsed = grid["elapsed"]
    ok = (
        diverse - topk >= 0.03
        and diverse - dense >= 0.03
        and elapsed <= 1800.0
    )
    _verdict(6, ok,
             f"median mIoU diverse {diverse:.3f} vs top-k {topk:.3f} "
             f"(gap {diverse - topk:.3f}) and dense {dense:.3f} "
             f"(gap {diverse - dense:.3f}), both >= 0.03; grid "
             f"{elapsed / 60:.1f} min <= 30 min")


@pytest.mark.slow
def test_criterion_7_pooling_ordering(grid):
    s = grid["summary"]
    global_m = _median_miou(s, strategy="diverse", k=20)
    pixel_m = _median_miou(s, strategy="diverse", k=20, pooling="pixel")
    ok = global_m >= pixel_m
    _verdict(7, ok,
             f"median mIoU global {global_m:.3f} >= per-pixel {pixel_m:.3f}")


@pytest.mark.slow
def test_criterion_8_k_robustness(grid):
    s = grid["summary"]
    by_k = {
        k: _median_miou(s, strategy="diverse", k=k) for k in (5, 10, 20, 50)
    }
    best = max(by_k.values())
    violations = [k for k, m in by_k.items() if m < 0.75 * best]
    band = s["k_band"]
    report_written = (grid["out_dir"] / "ablation.json").exists()
    # the report must exist and flag violations even when the band breaks
    mechanics = report_written and band is not None and (
        set(band["violations"]) == set(violations)
    )
    detail = ", ".join(f"k={k}: {m:.3f}" for k, m in sorted(by_k.items()))
    ok = mechanics and not violations
    _verdict(8, ok,
             f"{detail}; all within 25% of best {best:.3f} "
             f"(violations={violations}, report flagged={band['violations'] if band else 'missing'})")


@pytest.mark.slow
def test_criterion_9_sparse_training_speed(grid):
    seg_max = max(grid["seg_seconds"])
    retrain_max = max(a["retrain_seconds"] for a in grid["addclass"])
    ok = seg_max < 60.0 and retrain_max < 60.0
    _verdict(9, ok,
             f"segmentation training max {seg_max:.1f}s and class-addition "
             f"retrain max {retrain_max:.1f}s, both < 60s single-core")


@pytest.mark.slow
def test_criterion_10_modularity(grid):
    add = grid["addclass"]
    ckpt_ok = all(a["ckpt_identical"] and a["params_identical"] for a in add)
    median_drops = [float(np.median(a["drops"])) for a in add]
    overall = float(np.median(median_drops))
    ok = ckpt_ok and overall < 0.05
    _verdict(10, ok,
             f"existing localizer checkpoints byte-identical ({ckpt_ok}); "
             f"median original-class IoU drop {overall:+.4f} < 0.05")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism


@pytest.mark.slow
def test_criterion_11_determinism(tmp_path):
    config = PipelineConfig(seed=23, n_train=120, n_test=25, n_classes=3)
    a = run_pipeline(config, str(tmp_path / "a"))
    b = run_pipeline(config, str(tmp_path / "b"))
    report_same = (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    hashes_same = a["artifacts"] == b["artifacts"]
    ok = report_same and hashes_same
    _verdict(11, ok,
             f"two identical-config runs: report bytes equal={report_same}, "
             f"all {len(a['artifacts'])} artifact hashes equal={hashes_same}")


# ---------------------------------------------------------------------------
# 12. masked-CE zero gradient at unlabeled locations (bitwise)


def test_criterion_12_masking_contract():
    rng = Rng(0xACC12)
    nonzero = 0
    for _ in range(50):
        n = 5 + rng.randint(60)
        c = 2 + rng.randint(8)
        logits = rng.uniform_array(n * c, -4, 4).reshape(n, c)
        m = 1 + rng.randint(max(n // 2, 1))
        locs = rng.sample_indices(n, m)
        labels = [(loc, rng.randint(c)) for loc in locs]
        lv = masked_ce_loss_and_grad(logits, labels)
        unlabeled = sorted(set(range(n)) - {loc for loc, _ in labels})
        block = lv.grads["logits"][unlabeled]
        nonzero += int(np.count_nonzero(block))
    _verdict(12, nonzero == 0,
             f"gradient bitwise zero at unlabeled locations across 50 "
             f"instances (nonzero entries={nonzero})")
