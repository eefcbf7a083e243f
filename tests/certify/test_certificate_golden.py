"""Golden pins for the certificates the guarantee certifier emits.

Every case pins the sha256 of one certificate's canonical dict
(sorted-key compact JSON of ``Certificate.to_dict()``): verdicts, swept
counts per claim, tier accounting and every counterexample.  The cases
cover all registered schemes in fast mode at two seeds and in full mode,
the deliberately broken schemes (tampered parity columns, the naive
strawman) whose weight-minimal counterexamples must not move, and a
partial sweep.  A speed-only change to the sweep must leave every one of
them byte-identical.

Regenerate the golden file only for a change that is *meant* to move a
certificate (a new strike tier, a claim's semantics), and say so in the
change description::

    PYTHONPATH=src python tests/certify/test_certificate_golden.py --write
"""

import hashlib
import json
import os
import sys
from functools import lru_cache

import pytest

from repro.certify import (Certifier, certification_registry,
                           tampered_secded_dp)
from repro.ecc import NaiveSecDedSwap, SecDedDpSwap

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "certificate_golden.json")


def _registered(mode: str, seed: int, name: str):
    return Certifier(mode=mode, seed=seed).certify(
        certification_registry()[name](), name=name)


def _tampered(kind: str, mode: str):
    return Certifier(mode=mode).certify(tampered_secded_dp(kind))


def _naive():
    return Certifier(mode="fast").certify(NaiveSecDedSwap(),
                                          name="naive-secded")


def _partial_strict():
    return Certifier().certify(SecDedDpSwap(check_correction="strict"),
                               only=["corrects-all-single-storage"])


def _cases() -> dict:
    """Case label -> zero-argument certificate builder."""
    cases = {}
    for mode, seed in (("fast", 0), ("fast", 7), ("full", 0)):
        for name in certification_registry():
            cases[f"{mode}/seed{seed}/{name}"] = \
                (lambda m=mode, s=seed, n=name: _registered(m, s, n))
    for kind in ("zero-column", "duplicate-column"):
        for mode in ("fast", "full"):
            cases[f"{mode}/seed0/tampered-{kind}"] = \
                (lambda k=kind, m=mode: _tampered(k, m))
    cases["fast/seed0/naive-secded"] = _naive
    cases["fast/seed0/secded-dp-strict/only-corrects-all-single-storage"] = \
        _partial_strict
    return cases


CASES = _cases()


def measure(label: str) -> dict:
    """The pinned digest (plus readable headline fields) of one case."""
    payload = CASES[label]().to_dict()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "passed": payload["passed"],
        "strikes_swept": payload["strikes_swept"],
        "violated": payload["violated"],
    }


@lru_cache(maxsize=None)
def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def test_golden_pins_failed_certificates():
    failed = {label for label, entry in _golden().items()
              if not entry["passed"]}
    assert failed == {label for label in CASES
                      if "tampered" in label or "naive" in label}


@pytest.mark.parametrize("label", sorted(CASES))
def test_certificate_matches_golden(label):
    assert measure(label) == _golden()[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_certificate_golden.py --write")
    golden = {label: measure(label) for label in sorted(CASES)}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
