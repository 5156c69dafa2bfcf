"""SharedKey signing: canonicalization, verification, tamper detection."""

import base64
import hmac
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.sharedkey import (
    DEV_ACCOUNT,
    DEV_KEY,
    SignatureError,
    compute_signature,
    parse_authorization,
    sign_request,
    string_to_sign,
    verify_request,
)


class TestStringToSign:
    def test_blob_flavor_shape(self):
        s = string_to_sign(
            DEV_ACCOUNT, "PUT", f"/{DEV_ACCOUNT}/cont/blob",
            {"comp": "block", "blockid": "b0"},
            {"x-ms-date": "Wed, 01 Aug 2012 00:00:00 GMT",
             "Content-Length": "42", "x-ms-version": "2012-02-12"})
        lines = s.split("\n")
        assert lines[0] == "PUT"
        # Content-Length occupies its standard slot.
        assert "42" in lines
        # Canonicalized x-ms-* headers, sorted, lower-cased.
        assert "x-ms-date:Wed, 01 Aug 2012 00:00:00 GMT" in lines
        assert "x-ms-version:2012-02-12" in lines
        # Emulator-style canonical resource: account prepended to the
        # account-prefixed URL path, plus sorted query parameters.
        assert f"/{DEV_ACCOUNT}/{DEV_ACCOUNT}/cont/blob" in lines
        assert "blockid:b0" in lines
        assert "comp:block" in lines

    def test_x_ms_date_supersedes_date(self):
        with_both = string_to_sign(
            DEV_ACCOUNT, "GET", "/a/c", {},
            {"date": "old", "x-ms-date": "new"})
        assert "old" not in with_both

    def test_zero_content_length_blanked(self):
        zero = string_to_sign(DEV_ACCOUNT, "GET", "/a/c", {},
                              {"Content-Length": "0"})
        empty = string_to_sign(DEV_ACCOUNT, "GET", "/a/c", {},
                               {"Content-Length": ""})
        assert zero == empty

    def test_table_flavor_is_short_form(self):
        s = string_to_sign(
            DEV_ACCOUNT, "POST", f"/{DEV_ACCOUNT}/Tables",
            {"timeout": "30"},
            {"content-type": "application/json", "x-ms-date": "D"},
            table_flavor=True)
        lines = s.split("\n")
        assert lines == ["POST", "", "application/json", "D",
                         f"/{DEV_ACCOUNT}/{DEV_ACCOUNT}/Tables"]

    def test_table_flavor_appends_only_comp(self):
        s = string_to_sign(DEV_ACCOUNT, "GET", "/a/t",
                           {"comp": "acl", "other": "x"}, {},
                           table_flavor=True)
        assert s.endswith(f"/{DEV_ACCOUNT}/a/t?comp=acl")

    def test_mixed_case_query_keys_canonicalized(self):
        lower = string_to_sign(DEV_ACCOUNT, "GET", "/a/t",
                               {"nextpartitionkey": "p"}, {})
        mixed = string_to_sign(DEV_ACCOUNT, "GET", "/a/t",
                               {"NextPartitionKey": "p"}, {})
        assert lower == mixed
        assert "nextpartitionkey:p" in lower


class TestVerify:
    def _headers(self):
        return {"x-ms-date": "Wed, 01 Aug 2012 00:00:00 GMT"}

    def test_round_trip(self):
        headers = self._headers()
        auth = sign_request(DEV_ACCOUNT, DEV_KEY, "GET",
                            f"/{DEV_ACCOUNT}/c", {}, headers)
        verify_request(DEV_KEY, "GET", f"/{DEV_ACCOUNT}/c", {}, headers,
                       auth)  # does not raise

    def test_tampered_path_rejected(self):
        headers = self._headers()
        auth = sign_request(DEV_ACCOUNT, DEV_KEY, "GET",
                            f"/{DEV_ACCOUNT}/c", {}, headers)
        with pytest.raises(SignatureError):
            verify_request(DEV_KEY, "GET", f"/{DEV_ACCOUNT}/other", {},
                           headers, auth)

    def test_tampered_header_rejected(self):
        headers = self._headers()
        auth = sign_request(DEV_ACCOUNT, DEV_KEY, "GET",
                            f"/{DEV_ACCOUNT}/c", {}, headers)
        headers["x-ms-date"] = "Thu, 02 Aug 2012 00:00:00 GMT"
        with pytest.raises(SignatureError):
            verify_request(DEV_KEY, "GET", f"/{DEV_ACCOUNT}/c", {},
                           headers, auth)

    def test_wrong_key_rejected(self):
        headers = self._headers()
        auth = sign_request(DEV_ACCOUNT, DEV_KEY, "GET",
                            f"/{DEV_ACCOUNT}/c", {}, headers)
        wrong = "QmFkS2V5QmFkS2V5QmFkS2V5QmFkS2V5"
        with pytest.raises(SignatureError):
            verify_request(wrong, "GET", f"/{DEV_ACCOUNT}/c", {}, headers,
                           auth)

    def test_parse_authorization(self):
        account, sig = parse_authorization("SharedKey acct:c2ln")
        assert (account, sig) == ("acct", "c2ln")

    @pytest.mark.parametrize("header", [
        "", "Bearer token", "SharedKey nosig", "SharedKeyLite a:b x",
    ])
    def test_parse_authorization_junk(self, header):
        with pytest.raises(SignatureError):
            parse_authorization(header)

    def test_signature_is_hmac_sha256_of_key(self):
        # Deterministic: same key + string -> same signature.
        assert (compute_signature(DEV_KEY, "abc")
                == compute_signature(DEV_KEY, "abc"))
        assert (compute_signature(DEV_KEY, "abc")
                != compute_signature(DEV_KEY, "abd"))


class TestKeyedMac:
    """The signature is the one-shot HMAC-SHA256 whatever the key: the
    pre-keyed MAC a key is cached as only saves keying it per request."""

    @settings(max_examples=200)
    @given(key=st.one_of(st.just(DEV_KEY),
                         st.binary(max_size=200).map(
                             lambda raw: base64.b64encode(raw).decode())),
           to_sign=st.text(max_size=300))
    def test_signature_is_the_one_shot_hmac(self, key, to_sign):
        expected = base64.b64encode(hmac.digest(
            base64.b64decode(key), to_sign.encode("utf-8"),
            "sha256")).decode("ascii")
        assert compute_signature(key, to_sign) == expected
        # Signing again with the cached key leaves it as it was.
        assert compute_signature(key, to_sign) == expected

    def test_threads_signing_through_one_cached_key_agree(self):
        strings = [f"GET\n\n/{DEV_ACCOUNT}/q{i}" for i in range(64)]
        expected = [compute_signature(DEV_KEY, s) for s in strings]
        results = []

        def sign_all():
            results.append([compute_signature(DEV_KEY, s)
                            for _ in range(50) for s in strings])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sign_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected * 50] * 4
