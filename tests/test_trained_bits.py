"""Trained bits, pinned: a rewrite of a training or sampling step must leave
every localizer, point set, head and mIoU of a tiny grid seed exactly as it
was, under one BLAS thread and under the default threading."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import divseed
from divseed.pipeline import PipelineConfig, ablation_seed, variant_name

# three classes so the lockstep drops runs of unequal length one by one;
# 60 images give point counts that are no multiple of the head's batch; the
# longer lr schedule and the small head batch take both trainers past step
# 356, where Adam's first bias correction rounds to 1
CONFIG = PipelineConfig(seed=23, n_train=60, n_test=12, n_classes=3, image_size=32,
                        loc_lr_schedule=((6, 2e-2), (2, 2e-3)), seg_batch=10)
VARIANTS = [
    {"strategy": "diverse"},
    {"strategy": "top_k"},
    {"strategy": "spatial"},
    {"strategy": "dense"},
    {"strategy": "diverse", "pooling": "pixel"},
]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def trained_digests() -> dict[str, str]:
    """sha256 of every localizer's float64 parameters per pooling, of each
    variant's point columns and head parameters, and each variant's mIoU."""
    run = ablation_seed(CONFIG, VARIANTS, CONFIG.seed)
    digests = {
        f"loc[{pooling}]": _sha(*(models[c].flat for c in sorted(models)))
        for pooling, models in sorted(run.models.items())
    }
    for v in run.variants:
        name = variant_name(v.overrides)
        p = v.points
        digests[f"points[{name}]"] = _sha(
            "\n".join(p.image_ids).encode(), p.image, p.loc, p.label, p.rank, p.value, p.flags
        )
        digests[f"head[{name}]"] = _sha(v.seg_result.model.flat)
        digests[f"miou[{name}]"] = repr(v.report.miou)
    return digests


# the bits of the steps before they moved into preallocated workspaces
PINNED = {
    "loc[global]":
        "0eece20e2ddeaca79f57c1809588173a81fa8e49f35ff72cbb93b4d2431776aa",
    "loc[pixel]":
        "9e57f8e340c33741bac325f5c1159af9c6ec3ba298367b55aa35657a7d9b1934",
    "points[strategy=diverse]":
        "5066ac21f8ac7e44c49bfdad954d758b4ce4c59663d7bc3067749430ea519ad9",
    "head[strategy=diverse]":
        "94455bfaa6189dc5c503052b8db0350a0a0e3e95a00a50bf564c490dd917f71d",
    "miou[strategy=diverse]":
        "0.5264862375134883",
    "points[strategy=top_k]":
        "45cb3b4d22b59fc1ddcebf170faf55b545515c0312c7c2f4ec6aef92e5ae3f11",
    "head[strategy=top_k]":
        "a3d5279bea101a0557405caec09b4af7630dfb0c79e49d6c66ff02e7f9bd14f7",
    "miou[strategy=top_k]":
        "0.558435044371731",
    "points[strategy=spatial]":
        "379b4e4fec217c8560f0aede07748192219684eb61c904b2772f9e350c1b1994",
    "head[strategy=spatial]":
        "98dfbd28aaff2c775a1565534aced90167970347c38991fe3530ea3ed25da537",
    "miou[strategy=spatial]":
        "0.5633999032421887",
    "points[strategy=dense]":
        "70cabdd0c2401dd8452cedc0f45cb785fba66d073380c420470c43ac11f935f6",
    "head[strategy=dense]":
        "7bb0a9a951de061756384abed44d5fa7e8748547c4126c97d579e44b58704ea9",
    "miou[strategy=dense]":
        "0.6094420600858369",
    "points[pooling=pixel,strategy=diverse]":
        "5b200c9aebcbd0c8dd3406dd3b5d02951fb464cd0d061361c5bf3054736299cc",
    "head[pooling=pixel,strategy=diverse]":
        "8c4a48cdcd135f6a2c20815b614f436ba7e2ca9f959e2040004f9cf057669d37",
    "miou[pooling=pixel,strategy=diverse]":
        "0.3415921924172128",
}


def test_trained_bits_are_pinned():
    assert trained_digests() == PINNED


def test_trained_bits_are_pinned_with_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(divseed.__file__).parents[1]),
                                           str(Path(__file__).parent)]))
    code = "import json, test_trained_bits as t; print(json.dumps(t.trained_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == PINNED
