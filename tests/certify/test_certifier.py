"""Acceptance tests for the guarantee certifier.

Two directions: every *registered* scheme must earn a clean fast-mode
certificate (the paper's claim matrix holds), and deliberately broken
schemes — tampered parity columns, the naive no-DP strawman — must earn
FAILED certificates carrying weight-minimal counterexamples (the
certifier actually checks something).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.certify import (CERTIFICATE_SCHEMA_VERSION, Certifier, Strike,
                           certification_registry, certify_all,
                           certify_scheme, claim_matrix,
                           make_certified_scheme, tampered_secded_dp,
                           write_certificate)
from repro.certify.engine import _chunk_strikes
from repro.certify.strikes import apply_strike
from repro.ecc import (DetectOnlySwap, NaiveSecDedSwap, ParityCode,
                       SecDedDpSwap)
from repro.ecc.vectorized import READ_DUE, BatchReadResult
from repro.errors import CertificationError, InvalidArgument


@pytest.fixture(scope="module")
def fast_certificates():
    return certify_all(mode="fast", seed=0)


class TestRegisteredSchemesPass:
    def test_every_registered_scheme_certifies(self, fast_certificates):
        assert set(fast_certificates) == set(certification_registry())
        for name, certificate in fast_certificates.items():
            assert certificate.passed, (name, certificate.violated)

    def test_sweep_is_nontrivial(self, fast_certificates):
        for name, certificate in fast_certificates.items():
            assert certificate.strikes_swept > 1000, name
            assert certificate.tiers.get("exhaustive", 0) > 0, name
            for claim_name, report in certificate.claims.items():
                assert report.swept > 0, (name, claim_name)

    def test_claim_matrix_matches_scheme_family(self, fast_certificates):
        assert "corrects-all-single-storage" in \
            fast_certificates["secded-dp"].claims
        assert "ded-on-doubles" in fast_certificates["secded-dp"].claims
        assert "detects-all-single-storage" in \
            fast_certificates["parity"].claims
        assert "residue-arithmetic-coverage" in \
            fast_certificates["mod7"].claims
        assert "ded-on-doubles" not in fast_certificates["sec-dp"].claims
        for certificate in fast_certificates.values():
            assert "never-miscorrects-pipeline" in certificate.claims
            assert "batched-read-equivalence" in certificate.claims

    def test_full_mode_adds_adversarial_tiers(self):
        certificate = certify_scheme("secded-dp", mode="full", seed=1)
        assert certificate.passed
        assert certificate.tiers.get("burst", 0) > 0
        assert certificate.tiers.get("random", 0) > 0

    def test_certification_is_seed_deterministic(self):
        first = certify_scheme("mod7", mode="full", seed=9)
        second = certify_scheme("mod7", mode="full", seed=9)
        assert first.to_dict() == second.to_dict()


class TestBrokenSchemesFail:
    def test_zero_column_tamper_breaks_single_error_detection(self):
        certificate = Certifier(mode="fast").certify(
            tampered_secded_dp("zero-column"))
        assert not certificate.passed
        assert "detects-all-single-pipeline" in certificate.violated
        counterexample = \
            certificate.claims["detects-all-single-pipeline"].counterexample
        assert counterexample["weight"] == 1
        # the zeroed column is data bit 11: the minimal strike names it
        assert counterexample["strike"]["data_error"] == "0x800"

    def test_duplicate_column_tamper_breaks_storage_correction(self):
        certificate = Certifier(mode="fast").certify(
            tampered_secded_dp("duplicate-column"))
        assert not certificate.passed
        assert "corrects-all-single-storage" in certificate.violated
        counterexample = \
            certificate.claims["corrects-all-single-storage"].counterexample
        assert counterexample["weight"] == 1

    def test_naive_strawman_actively_miscorrects(self):
        certificate = Certifier(mode="fast").certify(NaiveSecDedSwap(),
                                                     name="naive-secded")
        assert "never-miscorrects-pipeline" in certificate.violated
        counterexample = \
            certificate.claims["never-miscorrects-pipeline"].counterexample
        assert counterexample["status"] == "corrected"
        assert counterexample["returned_data"] != \
            counterexample["golden_data"]

    def test_counterexamples_are_minimal_after_shrinking(self):
        certificate = Certifier(mode="full").certify(
            tampered_secded_dp("zero-column"))
        report = certificate.claims["detects-all-single-pipeline"]
        assert report.counterexample["weight"] == 1

    def test_tamper_factory_validates_inputs(self):
        with pytest.raises(CertificationError):
            tampered_secded_dp("missing-row")
        with pytest.raises(CertificationError):
            tampered_secded_dp(position=77)


class TestCertificateArtifact:
    def test_write_certificate_round_trips(self, tmp_path):
        certificate = certify_scheme("parity", mode="fast")
        path = write_certificate(certificate, str(tmp_path))
        assert path.endswith("CERTIFICATE_parity.json")
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["version"] == CERTIFICATE_SCHEMA_VERSION
        assert loaded["kind"] == "swapcodes-guarantee-certificate"
        assert loaded["scheme"] == "parity"
        assert loaded["passed"] is True
        assert loaded["violated"] == []
        assert set(loaded["claims"]) == set(certificate.claims)
        for report in loaded["claims"].values():
            assert report["verdict"] == "certified"
            assert report["counterexample"] is None

    def test_failed_certificate_serializes_counterexample(self, tmp_path):
        certificate = Certifier(mode="fast").certify(
            tampered_secded_dp("zero-column"))
        path = write_certificate(certificate, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["passed"] is False
        report = loaded["claims"]["detects-all-single-pipeline"]
        assert report["verdict"] == "violated"
        assert report["counterexample"]["strike"]["placement"] in (
            "pipeline-original", "pipeline-shadow-value")

    def test_write_certificate_rejects_unwritable_path(self):
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(CertificationError):
            write_certificate(certificate, "/proc/no-such-dir")


class TestRegistryAndConfig:
    def test_registry_spans_every_figure11_family(self):
        registry = certification_registry()
        for name in ("parity", "mod3", "mod255", "ted", "secded-dp",
                     "secded-dp-strict", "sec-dp"):
            assert name in registry
        assert "naive" not in " ".join(registry)

    def test_unknown_scheme_raises(self):
        with pytest.raises(CertificationError):
            make_certified_scheme("hamming-mystery")

    def test_bad_certifier_config_raises(self):
        with pytest.raises(CertificationError):
            Certifier(mode="extreme")
        with pytest.raises(CertificationError):
            Certifier(random_base_words=-1)

    def test_claim_matrix_strict_policy_scopes_storage_claim(self):
        strict = claim_matrix(SecDedDpSwap(check_correction="strict"))
        accept = claim_matrix(SecDedDpSwap())
        strike_on_check = Strike("storage", check_error=0b1)
        assert accept["corrects-all-single-storage"].covers(strike_on_check)
        assert not strict["corrects-all-single-storage"].covers(
            strike_on_check)


class TestArtifactDirValidation:
    def test_empty_out_dir_rejected(self):
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(InvalidArgument):
            write_certificate(certificate, "")

    def test_non_string_out_dir_rejected(self):
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(InvalidArgument):
            write_certificate(certificate, None)

    def test_out_dir_existing_as_file_rejected(self, tmp_path):
        victim = tmp_path / "artifact"
        victim.write_text("a file, not a directory")
        certificate = certify_scheme("parity", mode="fast")
        with pytest.raises(InvalidArgument) as info:
            write_certificate(certificate, str(victim))
        assert info.value.context["path"] == str(victim)


class TestAtomicCertificateWrite:
    def test_write_leaves_no_staging_files(self, tmp_path):
        certificate = certify_scheme("parity", mode="fast")
        write_certificate(certificate, str(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["CERTIFICATE_parity.json"]

    def test_overwrite_is_old_or_new_never_torn(self, tmp_path):
        # rewrite the artifact while re-reading it: every read parses
        certificate = certify_scheme("parity", mode="fast")
        path = write_certificate(certificate, str(tmp_path))
        for _ in range(40):
            write_certificate(certificate, str(tmp_path))
            with open(path, encoding="utf-8") as handle:
                loaded = json.load(handle)
            assert loaded["scheme"] == "parity"

    def test_kill_during_write_never_leaves_torn_artifact(self, tmp_path):
        """SIGKILL a writer loop mid-``write_certificate``; the artifact
        under the final name must always be absent or fully valid."""
        import os
        import signal
        import subprocess
        import sys
        import time

        out_dir = str(tmp_path / "artifacts")
        script = (
            "from repro.certify import certify_scheme, write_certificate\n"
            "import sys\n"
            "certificate = certify_scheme('parity', mode='fast')\n"
            "print('WRITING', flush=True)\n"
            "while True:\n"
            f"    write_certificate(certificate, {out_dir!r})\n")
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        for attempt in range(3):
            victim = subprocess.Popen(
                [sys.executable, "-c", script], cwd=repo_root, env=env,
                stdout=subprocess.PIPE, text=True)
            assert "WRITING" in victim.stdout.readline()
            time.sleep(0.05 + attempt * 0.03)
            victim.send_signal(signal.SIGKILL)
            victim.wait(30)
            final = os.path.join(out_dir, "CERTIFICATE_parity.json")
            if os.path.exists(final):
                with open(final, encoding="utf-8") as handle:
                    loaded = json.load(handle)
                assert loaded["scheme"] == "parity"
                assert loaded["passed"] is True


class TestPartialCertification:
    def test_only_restricts_the_claim_set(self):
        certificate = certify_scheme(
            "secded-dp", only=["corrects-all-single-storage"])
        assert set(certificate.claims) == {"corrects-all-single-storage"}
        assert certificate.passed

    def test_partial_sweep_enumerates_fewer_strikes(self):
        full = certify_scheme("secded-dp")
        partial = certify_scheme(
            "secded-dp", only=["corrects-all-single-storage"])
        assert 0 < partial.strikes_swept < full.strikes_swept / 10
        # the storage-only claim needs no pipeline placements at all
        report = partial.claims["corrects-all-single-storage"]
        assert report.swept == partial.strikes_swept

    def test_partial_verdict_matches_full_sweep_verdict(self):
        full = certify_scheme("secded-dp")
        partial = certify_scheme(
            "secded-dp", only=["ded-on-doubles"])
        assert partial.claims["ded-on-doubles"].swept == \
            full.claims["ded-on-doubles"].swept
        assert partial.claims["ded-on-doubles"].verdict == \
            full.claims["ded-on-doubles"].verdict

    def test_unknown_claim_rejected(self):
        with pytest.raises(CertificationError):
            certify_scheme("secded-dp", only=["no-such-claim"])

    def test_full_certificate_unchanged_by_partial_support(self):
        # the only=None path must stay byte-identical to the seed
        # behavior: a partial feature cannot perturb full sweeps
        first = certify_scheme("mod7", seed=3)
        second = certify_scheme("mod7", seed=3, only=None)
        assert first.to_dict() == second.to_dict()


class TestNarrowRegisters:
    def test_base_words_fill_a_narrow_register(self):
        words = Certifier(random_base_words=9).base_words(
            DetectOnlySwap(ParityCode(data_bits=4)))
        assert len(set(words)) == len(words) == 14 and max(words) < 16

    def test_two_bit_parity_certifies_end_to_end(self):
        # run in a child with a timeout: base_words once looped forever
        # on a register with fewer values than the default word count
        script = (
            "from repro.certify import Certifier\n"
            "from repro.ecc import DetectOnlySwap, ParityCode\n"
            "scheme = DetectOnlySwap(ParityCode(data_bits=2))\n"
            "words = Certifier(random_base_words=9).base_words(scheme)\n"
            "assert sorted(words) == [0, 1, 2, 3], words\n"
            "for mode in ('fast', 'full'):\n"
            "    cert = Certifier(mode=mode).certify(scheme)\n"
            "    assert cert.passed, cert.violated\n"
            "    assert cert.base_words == 4, cert.base_words\n"
            "    print(mode, cert.strikes_swept)\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("fast ")


class _RecordingParity(DetectOnlySwap):
    """Parity swap that records its read_many batches and can lie once."""

    def __init__(self, lie_on=None):
        super().__init__(ParityCode())
        self.batches = []
        self.lie_on = lie_on

    def read_many(self, data, check, dp=None):
        self.batches.append(len(data))
        batch = super().read_many(data, check, dp)
        if self.lie_on is None:
            return batch
        status = batch.status.copy()
        hit = (data == np.uint64(self.lie_on[0])) \
            & (check == np.uint64(self.lie_on[1]))
        status[hit] = READ_DUE
        return BatchReadResult(status, batch.data)


class TestBatchedReadPass:
    # 7 base words: a chunk holds 288 strikes (2016 words, 63 whole warp
    # batches), not the 292 that would fit in 2048 words
    CERTIFIER = Certifier(random_base_words=2)

    def test_chunks_hold_whole_warp_batches(self):
        for base_count in range(1, 65):
            words = _chunk_strikes(base_count) * base_count
            assert words % 32 == 0 and 0 < words <= 2048, base_count
        assert _chunk_strikes(7) == 288 and _chunk_strikes(8) == 256

    def test_batches_are_consecutive_warps_with_the_tail_last(self):
        scheme = _RecordingParity()
        certificate = self.CERTIFIER.certify(scheme)
        assert certificate.passed
        total = certificate.strikes_swept
        assert total % 32 and total > 2048
        assert scheme.batches == [32] * (total // 32) + [total % 32]
        assert certificate.claims["batched-read-equivalence"].swept == total

    def test_mismatch_in_a_later_chunk_names_its_strike(self):
        reference = DetectOnlySwap(ParityCode())
        bases = self.CERTIFIER.base_words(reference)
        order = [(strike, base)
                 for strike in self.CERTIFIER.strikes(reference)
                 for base in bases]
        stored = [(word.data, word.check) for word in
                  (apply_strike(reference, base, strike)
                   for strike, base in order)]
        # the second chunk starts at word 2016; pick a word in it whose
        # stored pair appears nowhere earlier in the sweep
        index = next(i for i in range(2016, 4032)
                     if stored.index(stored[i]) == i)
        strike, base = order[index]
        scheme = _RecordingParity(lie_on=stored[index])
        report = self.CERTIFIER.certify(scheme).claims[
            "batched-read-equivalence"]
        assert report.verdict == "violated"
        assert report.counterexample["strike"] == strike.describe()
        assert report.counterexample["base"] == f"0x{base:x}"
        assert report.counterexample["stored_data"] == \
            f"0x{stored[index][0]:x}"
        assert report.counterexample["scalar_status"] == "ok"
        assert report.counterexample["batched_status"] == READ_DUE
