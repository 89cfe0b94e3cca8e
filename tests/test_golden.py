"""Golden digests: the SHA-256 of ``AggregateResult.to_dict()`` (keys sorted)
on a small grid at fixed seeds.

A refactor that keeps the random streams must leave every digest as it is.
A change that alters a stream, a design or the result format on purpose
declares it and records the new digests here.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from scalar_reference import next_prime, philox_defectives, philox_flips, previous_flat_scheme
from splitgt import bench, core, placements
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
    ("gamma-full", 0.0): "297da71fa858f83bd79546b5ef4e6ce4f4c715c8e1a632facaad682a4bcfb5bb",
    ("gamma-full", 0.05): "57170eca8ea30869b33c35d9fc10e3ae18ab32897dff7b2b00fe8dc934d60980",
    ("gamma-kwise", 0.0): "1aed302fc665e39e00cb59ca2610da2b953d9b5def27f30870b45b26d9512158",
    ("gamma-kwise", 0.05): "3ae56bd0defb25cec3f6d350d874bbadbf76a44c6a3d1c2866fb3bd1d76b7147",
    ("gamma-pairwise", 0.0): "d8858319cecd8bc0e7e18c319b792de0c9cad15697a0b5e53da7d2b55241aabe",
    ("gamma-pairwise", 0.05): "75c139584eab5f77867815ba114d116cbb94648ab1567e87788bc8b51f58a8b2",
    ("rho-full", 0.0): "4d9deb5a87b00e59f30bd63166fe29785ef2d691c89949a1d0fd8c5b39a74dc8",
    ("rho-full", 0.05): "90aeeeb830271525138319a79d3f8438eff8082ef4cbe645717a237848d0fbdc",
    ("rho-permutation", 0.0): "279ae2ea0126987d404950d5655a6b5160ebae2c3c2204703e87e24716468d1c",
    ("rho-permutation", 0.05): "389ed116c8932d0a67cbc59026e4fda3aec99554cad5e3358621c5472f117f58",
    ("noisy-full", 0.0): "2204852defde38720e8ac7d4ce56fe0e7638365d14c48b339c552be8f82b744e",
    ("noisy-full", 0.05): "e66b5dc6287131a3f976520960348b76e37952b3bd8b6f8691f5897739d51546",
    ("noisy-kwise", 0.0): "d96cefb7879828e3b612b6f377b4a1e226811c1cc214044a319e1b7edaddd556",
    ("noisy-kwise", 0.05): "7298ee97b7564d4c1f3daa2e9b04a3fe0438baeb32452537621bf2a487041342",
    ("comp", 0.0): "28f27e6457a9a7f41a63dc70842c00ae3adfea6f0c4c8fbc84335dad162b3b54",
    ("comp", 0.05): "6225846d9e54c5757822ee60b32b3fef16985d8142198640969ad5ff90f708de",
    ("ncomp", 0.0): "bc398925e82196c20265a9e9db5b58420dc7039937825af26db7054eb827641a",
    ("ncomp", 0.05): "1401b63a163f188a2764e15885f713cbb5b8cd1873f1a83a77aa4d5b9d836692",
}

# The comp and ncomp digests of the previous design, a T x n incidence
# matrix drawn by Floyd's algorithm from the design key's Philox generator
# and decoded by reading all T outcomes.  The one-level counter-hashed
# design moved nothing else: with that scheme patched back in
# (``scalar_reference.previous_flat_scheme``), every comp and ncomp result
# digests to these.
PREVIOUS_DESIGN = {
    ("comp", 0.0): "bcb32ff96185340c520ff6748f9bf0fcecb60ca4f34fcadfd2e88df6a780ea9e",
    ("comp", 0.05): "7c736f0abcbb03f3463ffc49b7d90c36ca2c0d2a45d7d8c385802e5ea67f1112",
    ("ncomp", 0.0): "78bab5047999e8e7f7e03040e5c194235e8cdd5aa4beaf342da2605c5d76d540",
    ("ncomp", 0.05): "f7564fb8c86c6b0cd072238611dcf5776a154201b81399db4dec1bb16c671c8d",
}

# The polynomial cells' digests under the previous field rule, the smallest
# prime at or above a level's node count and tests, where the levels now hash
# over M31 (n = 256 needs no M61).  The field moved nothing else: with that
# rule patched back in (``placements.field_prime``), every such result
# digests to these.
PREVIOUS_FIELD = {
    ("gamma-kwise", 0.0): "8f42a5537d678d6110135c15e4c0bb7d4929d0e285a1e1c616fca1a21e0e0922",
    ("gamma-kwise", 0.05): "f4e0414aa0cd6a680c06961f47f4c823d74d10a924d1fe2cd6fbc4ec760078a1",
    ("gamma-pairwise", 0.0): "c28be3d02de3f8efd39a0c4b458d9e88475926f6e151368f273fc8390134ce64",
    ("gamma-pairwise", 0.05): "f70cdec2d0b293ffc5e9ecf44560b25283665b2525d9fb396e69a248cd77754f",
    ("noisy-kwise", 0.0): "ef55d47194a38343343c8840a066b992f8d88312e18fefa9c6698b61524896fc",
    ("noisy-kwise", 0.05): "c32b26052bb2cfe4e0cea0ac7014484246119c0b268b137d5b5c7dc2ff091fc8",
}

# The digests of the previous streams, in which every trial drew its
# defectives by ``choice(n, k, replace=False)`` and its channel noise by one
# ``random(T)`` from Philox generators of its keys.  The stream change moved
# nothing else: with those draws patched back in, comp and ncomp on their
# previous design (see PREVIOUS_DESIGN) and the polynomial cells on their
# previous field (see PREVIOUS_FIELD), every result digests to these.
PREVIOUS_STREAM = {
    ("gamma-full", 0.0): "f3ac9e50416d6a6bcf9f1645fec6338d74fab5ee49a82fe9779c6f5981d59837",
    ("gamma-full", 0.05): "78e9f16361b968611990ea75f1bbcf81806663e85c1129ec0083429a315cbc1f",
    ("gamma-kwise", 0.0): "3a177d44770c50d9f4aed1a41fef55e8599214f715c3b5565892b576fe5f1253",
    ("gamma-kwise", 0.05): "bc19851c53c2414476d73935bcb62d3949a4200e7d0313876ffcc976e6df89c7",
    ("gamma-pairwise", 0.0): "f67f47a0a5ff45ba3d737996995c03a8c7acce068afaff4b84506225bd9e2256",
    ("gamma-pairwise", 0.05): "10ea8a3645285928f5ddaeeecc4778a912008c6c9ed57361a9a89951b8bd7307",
    ("rho-full", 0.0): "a85f3b6b1ce45b1be3bdc453fb630983956d0af964f93833c6595c60a5922a7d",
    ("rho-full", 0.05): "de98b4d1c5d75fc1289859b7a8c27bc8bd00efd71202c42ee7253ca070a30f75",
    ("rho-permutation", 0.0): "f9ef8bfda14e92311c1651f789cb247124268b59cff0a24bf9011828ecefef3e",
    ("rho-permutation", 0.05): "c84122ddfea72d33372c0bfb4a048f9eb820e24fe4ad2bcdc61a5f6973001cf5",
    ("noisy-full", 0.0): "a3d834b7ff19e62d2a1ca7774da2a65cd85df40c0127bf57b5aa0738fac0906f",
    ("noisy-full", 0.05): "5e85a3889379e614a241d0e5902122eba68a4b635d2bcdcfa569b6a94a5269f8",
    ("noisy-kwise", 0.0): "0937566565a57a15768f67b7638eb776c0c3b6200f9ef2b6a63733103192cb69",
    ("noisy-kwise", 0.05): "ed2d28ebe073da1dee1a97c4e46a2287bc082050e98e6c3c961e18f55b8ee0f3",
    ("comp", 0.0): "bcb32ff96185340c520ff6748f9bf0fcecb60ca4f34fcadfd2e88df6a780ea9e",
    ("comp", 0.05): "ef65357b7de2646d28f9d88ac1b15e05059538763c2a82d049dab7aca507bf5f",
    ("ncomp", 0.0): "c06adae969637f696bbc2e9b90fa02f9fc0f5efb40fedcbb8f4ef79f17d5a19e",
    ("ncomp", 0.05): "73cf2c1f1f0506c15ce1ea9499c6187acb78390860f555ff19301644bc35a93d",
}

# The digests of the previous result format, which recorded no channel p and
# echoed it into ``params`` for comp and ncomp only.  The format change moved
# no stream: each result, p popped and put back as it was, digests to these.
PREVIOUS_FORMAT = {
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


@functools.cache
def _result(cell: str, p: float, philox: bool = False, previous: bool = False) -> str:
    """The result of one cell, as JSON; with ``philox``, from the previous
    streams' Philox defective draw and channel noise; with ``previous``,
    comp and ncomp on their previous design and the polynomial levels on
    their previous field."""
    config = TrialConfig(n=256, k=4, trials=12, base_seed=SEED, p=p, **CELLS[cell])
    with pytest.MonkeyPatch.context() as patch:
        if philox:
            patch.setattr(bench, "_draw_defectives", philox_defectives)
            patch.setattr(core, "channel_flips", philox_flips)
        if previous and config.algorithm in ("comp", "ncomp"):
            patch.setitem(bench.SCHEMES, config.algorithm, previous_flat_scheme(config.algorithm))
            patch.setattr(bench, "BATCH_BYTES", 1)  # its batches are of one trial
        if previous:
            patch.setattr(placements, "field_prime",
                          lambda num_nodes, t_len: next_prime(max(num_nodes, t_len, 2)))
        return json.dumps(run_trials(config).to_dict(), sort_keys=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cell,p", sorted(GOLDEN))
def test_result_digest_is_unchanged(cell, p):
    assert _digest(_result(cell, p)) == GOLDEN[(cell, p)]


@pytest.mark.parametrize("cell,p", sorted(PREVIOUS_DESIGN))
def test_the_design_is_the_only_change_from_the_previous_flat_baselines(cell, p):
    assert _digest(_result(cell, p, previous=True)) == PREVIOUS_DESIGN[(cell, p)]


@pytest.mark.parametrize("cell,p", sorted(PREVIOUS_FIELD))
def test_the_field_is_the_only_change_from_the_previous_primes(cell, p):
    assert _digest(_result(cell, p, previous=True)) == PREVIOUS_FIELD[(cell, p)]


@pytest.mark.parametrize("cell,p", sorted(PREVIOUS_STREAM))
def test_philox_draws_are_the_only_change_from_the_previous_streams(cell, p):
    assert _digest(_result(cell, p, philox=True, previous=True)) == PREVIOUS_STREAM[(cell, p)]


@pytest.mark.parametrize("cell,p", sorted(PREVIOUS_FORMAT))
def test_channel_p_is_the_only_change_from_the_previous_format(cell, p):
    """Under the previous streams (see PREVIOUS_STREAM), so that each of the
    two declared changes is shown to be the whole of its difference."""
    result = json.loads(_result(cell, p, philox=True, previous=True))
    assert result.pop("p") == p
    if result["algorithm"] in ("comp", "ncomp"):
        result["params"]["p"] = p
    assert _digest(json.dumps(result, sort_keys=True)) == PREVIOUS_FORMAT[(cell, p)]
