"""Golden digests: the SHA-256 of ``AggregateResult.to_dict()`` (keys sorted)
on a small grid at fixed seeds.

A refactor that keeps the random streams must leave every digest as it is.
A change that alters a stream on purpose declares it and records the new
digests here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from splitgt.bench import TrialConfig, run_trials

SEED = 2021
CELLS = {
    "gamma-full": dict(algorithm="gamma", gamma=6),
    "gamma-kwise": dict(algorithm="gamma", gamma=6, hash_mode="kwise"),
    "gamma-pairwise": dict(algorithm="gamma", gamma=6, hash_mode="pairwise"),
    "rho-full": dict(algorithm="rho", rho=16),
    "rho-permutation": dict(algorithm="rho", rho=16, hash_mode="permutation"),
    "noisy-full": dict(algorithm="noisy", design_p=0.05),
    "noisy-kwise": dict(algorithm="noisy", design_p=0.05, hash_mode="kwise"),
    "comp": dict(algorithm="comp"),
    "ncomp": dict(algorithm="ncomp"),
}

GOLDEN = {
    ("gamma-full", 0.0): "cec1e48294c1f236bd6f1cdd22b53b14bc22c8a298e11cd21da074942277b309",
    ("gamma-full", 0.05): "fdf1a058802e06d13ee0428cfa22d939f77b3c49ef6f621ebe94edaf3c319e32",
    ("gamma-kwise", 0.0): "d16e73e186a918ba5f640e6b3e06bca527215b8b59f4c14716b7c4e87199d518",
    ("gamma-kwise", 0.05): "d38a973d82ca1dd5a875ffff7ac4507b89cde9fbe510c115de65f2417495e9e9",
    ("gamma-pairwise", 0.0): "f86a1abd2b987c6b0f05bb50f34fbeb1fe3c1f7536283dd8262c3ccf14c2698f",
    ("gamma-pairwise", 0.05): "fcf196b8e40b54758f4ca7157e0c2a0eeb9eb7eeb0d2a56edcbf4dd9e4e4c230",
    ("rho-full", 0.0): "c86c67c1f71ab346a543ea0ac931f0a9c5f9ded0862a46b8d165370fb12380b4",
    ("rho-full", 0.05): "faca34328791bdf5b230649c6fc131f8423936240e57230bc18be82e93c26313",
    ("rho-permutation", 0.0): "4c63083d190f36ae38fa94ffbfbdebe805d4e504b570550034032e627c0cc46e",
    ("rho-permutation", 0.05): "ae176d48eacffe379ff3452f45d5f02bade0e7202da24d61777092eabcd92d54",
    ("noisy-full", 0.0): "56e39e4514f17f14e4409ae52a8b7e34a3dd8c8763be5a3a87b9b2014c9af8ce",
    ("noisy-full", 0.05): "9613cabd16beed8121cebb2c0f1a41faebdee313b5b82962013a9dfee6eec5e2",
    ("noisy-kwise", 0.0): "6f4cba148bc0781b1fd2cf95b68038a546337790ec2258bcdbde24a91f300b6d",
    ("noisy-kwise", 0.05): "07244378fd61377abc5ffe60323097a6602cf1d24c7459e99ca5e38c31e4d45e",
    ("comp", 0.0): "a2d81e86910c48f0794e9669e1b08cb7e911058a693103612e56266e1e8b1412",
    ("comp", 0.05): "5ef02ec60d6a6fa62fe8f244dbaab9e443350519d67248d0313e4f33270ec072",
    ("ncomp", 0.0): "5483e7e398d750c5cdcc6273d117a9b8d6d2e403f21e106fa716db12eebb6cf4",
    ("ncomp", 0.05): "bcd56b33dd28bd14cef23a64a6fb94ca24dc6a4a8165df3f514a1ec68f90aab0",
}


def result_digest(cell: str, p: float) -> str:
    config = TrialConfig(n=256, k=4, trials=12, base_seed=SEED, p=p, **CELLS[cell])
    text = json.dumps(run_trials(config).to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cell,p", sorted(GOLDEN))
def test_result_digest_is_unchanged(cell, p):
    assert result_digest(cell, p) == GOLDEN[(cell, p)]
