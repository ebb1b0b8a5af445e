"""Trained bits, pinned: a rewrite of a training or sampling step must leave
every localizer, point set, head and mIoU of a tiny grid seed exactly as it
was, under one BLAS thread and under the default threading.

A change that declares new numerics regenerates the pins with

    PYTHONPATH=src python tests/test_trained_bits.py

which prints the current digests as a PINNED literal to paste over the one
below."""

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


# float32 products and float32 Adam on float64 master weights
PINNED = {
    "loc[global]":
        "4a3e3ecb755581655c0923e72d1c0856a2a7e3d0c84d8e6e9441f7f47ed50b81",
    "loc[pixel]":
        "2c31e72631120bff34d1d9f005cc68eabae7d5132a9161603932057b780ed76f",
    "points[strategy=diverse]":
        "ae3b90152b588d24b097247052d0137be53f520f5f12c893e8c32f0ca3993967",
    "head[strategy=diverse]":
        "9e3e7fb2396059dfddf11537a1f68c89b18f6b3daa450d2d385b914c56f9ef3a",
    "miou[strategy=diverse]":
        "0.5264862375134883",
    "points[strategy=top_k]":
        "27db416536104e9f26d92e79a27d62592eb3e927797753c580d37f043d4bed8f",
    "head[strategy=top_k]":
        "7634f369612f20fb538f1557e4aedf465ddf34dedfaa1ccdfc7717ab7dd9ac12",
    "miou[strategy=top_k]":
        "0.558435044371731",
    "points[strategy=spatial]":
        "3708f5abaf4a66a0914881e2e6b2492b78ed30f85266d3b8b7aebd96844c1ae1",
    "head[strategy=spatial]":
        "d86636234cc2770f150f309d81eca395f0738eea79ece8dc8ffe14c4d4b8e258",
    "miou[strategy=spatial]":
        "0.5633999032421887",
    "points[strategy=dense]":
        "15e1e263138fe60e4f8029414d3a97189a0ed75959be186f1480a2d453e3d1b7",
    "head[strategy=dense]":
        "9d5ea76df154cb05b8acf3e42ebffb97964409de76d13accdbf2d83ededf81bb",
    "miou[strategy=dense]":
        "0.6094420600858369",
    "points[pooling=pixel,strategy=diverse]":
        "cd3e5b8c8503ee8a1e66e0ba8c0938464df7842b374260ad363259e8e24993eb",
    "head[pooling=pixel,strategy=diverse]":
        "0c4f96be45db2cfa637e03a84061be49a5a08bcc33ae3937898aced9bc82fcb9",
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


if __name__ == "__main__":
    print("PINNED = {")
    for key, value in trained_digests().items():
        print(f"    {json.dumps(key)}:\n        {json.dumps(value)},")
    print("}")
