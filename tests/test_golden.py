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
    ("gamma-full", 0.0): "87594513081ef97704c1dffd769efb1c9a183e31c211006d91340837bc48ac4d",
    ("gamma-full", 0.05): "b172a178df557222b24466708a2ec783fd367555a0c2f553f21f71d693c2cdb0",
    ("gamma-kwise", 0.0): "5b695bbed0550b3f8be350d8a468a82d15c82ab7055d66dbc67b35ecc19aed56",
    ("gamma-kwise", 0.05): "af499d543694b1bcad269f8c3691166d76be1535773fc557564f8cfc72507722",
    ("gamma-pairwise", 0.0): "4936c6f69b8a41f97f843ad5949810365af93f56bbc5c12efae73f433212b009",
    ("gamma-pairwise", 0.05): "f410ccaa84430ae4fc7293688b10c93aa65a74eee4be4acf0072ae417078c2be",
    ("rho-full", 0.0): "2850f738de976e4e6dfd365e2be85108a80b8ae519254232e798217197f4c550",
    ("rho-full", 0.05): "95c8988a2d3f39598ccad0cd89d940651fc7b83f92f2aa3e8b74b165eca5d0f4",
    ("rho-permutation", 0.0): "39822d90ee08fb1c0bd43d75bfc45c139d17a060cb7cdff90aa6575cc4507c44",
    ("rho-permutation", 0.05): "1c8711288df77c2ff12bbced9538ee015878b593283d6b7a1ae3f39ece75970f",
    ("noisy-full", 0.0): "8f5bde56f8145eb872e1baf598d8b07edc74b7c59267df6cf53309958ffa43b8",
    ("noisy-full", 0.05): "d4cafe4920b6ab41ddf7901e84fc94df042066aa82deaa12272c7403ebfdff16",
    ("noisy-kwise", 0.0): "bb9ecde2060214d81365d016c69bf89836165662da7974f7389f65132d00c7c8",
    ("noisy-kwise", 0.05): "5cb10c6415a667786e0521dd0b654c7823b87c727690db5db02ff2c76888cb29",
    ("comp", 0.0): "a2d81e86910c48f0794e9669e1b08cb7e911058a693103612e56266e1e8b1412",
    ("comp", 0.05): "ada0823978c97d2388d880adefc86f13daa9e89cfe87a3bf8c02f69f4d34590c",
    ("ncomp", 0.0): "c2165f324611938d416329a742fd8601f912d0c3d4321debf263ea1ee6f46b74",
    ("ncomp", 0.05): "905a04bf8e702e34bcf42fa14d20231f08d7f93b89d5758b5df9b3c3a2aa34e7",
}


def result_digest(cell: str, p: float) -> str:
    config = TrialConfig(n=256, k=4, trials=12, base_seed=SEED, p=p, **CELLS[cell])
    text = json.dumps(run_trials(config).to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cell,p", sorted(GOLDEN))
def test_result_digest_is_unchanged(cell, p):
    assert result_digest(cell, p) == GOLDEN[(cell, p)]
