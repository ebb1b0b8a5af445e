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


# float32 products on float64 master weights, Adam in its reordered form
PINNED = {
    "loc[global]":
        "055c2473f42c1abbdf4ce076730a1284b006639a6a27bc6467a015b7d7b9a564",
    "loc[pixel]":
        "2285496af0de013c0ff6ab728a072924739ed7110aac52affb54866256247d28",
    "points[strategy=diverse]":
        "460bfafcd0edc379921fa9ab2fa4468ebb4e3b1e120edfe797da67a95886af16",
    "head[strategy=diverse]":
        "d9ecdee75e3ced4785d3c4dd3b8285d9bb95d41d87d6fddfde4b24e7035c2a82",
    "miou[strategy=diverse]":
        "0.5264862375134883",
    "points[strategy=top_k]":
        "827aac57650ba522e31e7790e03b07213024789d742b3774fe01dffa7de49dfc",
    "head[strategy=top_k]":
        "6059e1023403b041f303c7a2eb279a3ed987a43f077ac95bd6abb4e20df97eea",
    "miou[strategy=top_k]":
        "0.558435044371731",
    "points[strategy=spatial]":
        "30ef771ac20d7dc2c7f641c0de0ffd6200ef06928f3972a47d3a91f7d503e58c",
    "head[strategy=spatial]":
        "060cdd6a67ac87d7413da5c8c274443788f1872a8d53cbdf72a3acbdcd0479be",
    "miou[strategy=spatial]":
        "0.5633999032421887",
    "points[strategy=dense]":
        "e1fff060fb473973bcb18760378ad98a33601aafaaa24bc9621acb19cf718928",
    "head[strategy=dense]":
        "ba330b2c9e938b4bf25914740b7d2ce80780c8ada7e5bf0f7a830e17cad19c0c",
    "miou[strategy=dense]":
        "0.6094420600858369",
    "points[pooling=pixel,strategy=diverse]":
        "df4e7eece3c533ead97e2aa39ea7a76da85f6a3fb5a3386463b8df19523fa706",
    "head[pooling=pixel,strategy=diverse]":
        "229f35767d818bdfd61944a3de1962dacc4b04c37b4aa6d9c018a2a814c6e82a",
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
