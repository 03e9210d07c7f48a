"""Reports stay byte-identical: sha256 of the JSON and the CSV of a few fast runs.

A refactor of the checker must not move a single byte of a report. When a
change means to alter a report, recompute these digests and say why.
"""
import hashlib

import pytest

from ffdio.harness import generate, parse_config, run

ILOG_HALF = {
    "M": 1,
    "q": 4,
    "S": ["t", "inf"],
    "points": ["1", "t^a"],
    "hyperplanes": [["1", "0"], ["0", "1"], ["1", "t^ilog2(a)"], ["1", "-1"]],
    "window": [8, 31],
    "epsilon": "1/2",
    "delta": "1/2",
    "thresholds": {"smallness_delta": "1/4"},
}

# The third hyperplane passes through the point at alpha = 5; reduce skips
# that index at every place and reports it as outside the stable subset.
ON_HYPERPLANE = {
    "M": 1,
    "q": 3,
    "S": ["t", "inf"],
    "points": ["1", "t^a"],
    "hyperplanes": [["1", "0"], ["0", "1"], ["t^5", "-1"]],
    "window": [1, 30],
    "epsilon": "1/2",
    "thresholds": {"smallness_delta": "1/4"},
}

# Two of the four hyperplanes coincide at alpha = 4 and alpha = 5. reduce
# reports general position failing there and excludes both indices; verify
# refuses the run.
PARTIAL_GP = {
    "M": 1,
    "q": 4,
    "S": ["t", "inf"],
    "points": ["1", "t^a"],
    "hyperplanes": [["1", "0"], ["0", "1"], ["1", "-1"], ["1", "a-5"]],
    "window": [1, 30],
    "epsilon": "1/2",
}


def _with_places(cfg, places):
    """The config with another place set S, for runs beyond {t, inf}."""
    return parse_config({**cfg.to_dict(), "S": places}, "reduce")


CASES = {
    "fermat-verify": (
        "verify",
        lambda: generate("fixed-fermat", m=1, window=(1, 40)),
        "520af3d30120590752d9b01a190fb61104b62eab3174a0239249f85071f3fee2",
        "d440a04bcd0b052510f32cf4ac823f9c65ec2af179cc15012dd3056106698fcd",
    ),
    "fermat-wang": (
        "wang",
        lambda: generate("fixed-fermat", m=1, window=(1, 40)),
        "3709d54bee27c3fe564c240a00e7102617780c2b3b40e9778e49e963b5429828",
        "d440a04bcd0b052510f32cf4ac823f9c65ec2af179cc15012dd3056106698fcd",
    ),
    "fermat-reduce": (
        "reduce",
        lambda: generate("fixed-fermat", m=1, window=(1, 40)),
        "b2d01c8af08030ea42ea45581fabd3912acc09c2e8484545f48e9f46be01f1f9",
        "f2e973a7fd62268c278c6dd6f7d12bb93908b9780eb91449d1ef7c1af5053a1d",
    ),
    "random-gp-reduce": (
        "reduce",
        lambda: generate("random-gp", m=1, q=3, window=(1, 32)),
        "c493ef72ae6f47c2da9df6afa54ecb90632f0da4fab30b6bbc8c9dcd6e4ed00d",
        "0f7accea458a8c9134a066e59c132e04a0413f6351af96dfa093db6fe45e2ec8",
    ),
    "slow-coeff-reduce": (
        "reduce",
        lambda: generate("slow-coeff", window=(8, 24)),
        "fb3e6206672bd64bbe396e01d1ae72f3be78df8e2331d3814d135b66d440afeb",
        "bb9c564ef4b31384169a396a2ce315b12c09582c3560a795ebb1aa1692a08fed",
    ),
    "ilog2-half-reduce": (
        "reduce",
        lambda: parse_config(ILOG_HALF, "reduce"),
        "f9e18d151495ec52dbd6250f44c4656dd200d64abd797e877264bc9f0687f902",
        "3bb730fc7a071a4ec74b46d7e0cd6a05d5afce132fa5a02916f925d99e598d8d",
    ),
    "on-hyperplane-reduce": (
        "reduce",
        lambda: parse_config(ON_HYPERPLANE, "reduce"),
        "2a2e333885ef98a7d634d8cd6cd4a879386f50edece648e723c8adec42419349",
        "b619848b06be0018e7805727abc754a374a41e498c725e4d60c923286d943834",
    ),
    "partial-gp-reduce": (
        "reduce",
        lambda: parse_config(PARTIAL_GP, "reduce"),
        "1f1f5574c6a94e5e8d304febe124efaf28cc848012c60f23450e196cd523b97f",
        "eddb64f3345d4d236ae868137ecf66c1e3839d8ed3483352d0dabfc8c47722ba",
    ),
    "degree-2-place-reduce": (
        "reduce",
        lambda: _with_places(generate("random-gp", m=1, q=4, window=(1, 32)), ["t^2 + 1", "inf"]),
        "c40dcd23f48cf1013c25deeed7143ffe63e7f6152d050e08d8cf3f312acf03a2",
        "7ba36060e8a6b047f1963bbffafe223bf28853333460183c795bb39ad8d29cb9",
    ),
    "three-places-m2-reduce": (
        "reduce",
        lambda: _with_places(
            generate("random-gp", m=2, q=4, window=(1, 24)), ["t", "t - 1", "inf"]
        ),
        "5e8c1d03b13220c8580ff38faa10fcc20930778e78c5e67e27748e84a8f46b35",
        "f565f7178135e59ccf5b0cb838b9756369ff9b0bd0ca5d0ac48ebc3452ea6fdb",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name):
    mode, config, json_digest, csv_digest = CASES[name]
    report = run(mode, config())
    assert _sha256(report.to_json()) == json_digest
    assert _sha256(report.to_csv()) == csv_digest
