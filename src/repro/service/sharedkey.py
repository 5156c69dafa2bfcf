"""SharedKey request signing — the Azurite-compatible auth subset.

Implements the 2012-era ``Authorization: SharedKey account:signature``
scheme for all three services.  Blob and queue requests sign the full
canonicalized header/resource form; the table service signs the shorter
``SharedKey`` flavor (VERB, Content-MD5, Content-Type, Date, canonical
resource) that the Table SDKs of the period emit.

Both the service-node verifier and the in-process wire client sign
through the same functions, so a signature that verifies locally also
verifies for a real SDK following the published algorithm.
"""

from __future__ import annotations

import base64
import functools
import hmac
from typing import Dict, Mapping, Tuple
from urllib.parse import unquote

__all__ = [
    "DEV_ACCOUNT",
    "DEV_KEY",
    "SignatureError",
    "sign_request",
    "verify_request",
    "parse_authorization",
]

#: Azurite's well-known development account and key.
DEV_ACCOUNT = "devstoreaccount1"
DEV_KEY = ("Eby8vdM02xNOcqFlqUwJPLlmEtlCDXJ1OUzFT50uSRZ6IFsuFq2UVErCz4I6tq"
           "/K1SZFPTOtr/KBHBeksoGMGw==")

#: Standard headers in string-to-sign order for blob/queue requests.
_STANDARD_HEADERS = (
    "content-encoding", "content-language", "content-length", "content-md5",
    "content-type", "date", "if-modified-since", "if-match", "if-none-match",
    "if-unmodified-since", "range",
)


class SignatureError(Exception):
    """The request's Authorization header failed verification."""


_DATE_AT = _STANDARD_HEADERS.index("date")
_LENGTH_AT = _STANDARD_HEADERS.index("content-length")


def _canonicalized_headers(lowered: Mapping[str, str]) -> str:
    return "\n".join(f"{name}:{lowered[name].strip()}"
                     for name in sorted(lowered) if name.startswith("x-ms-"))


def _canonicalized_resource(account: str, path: str, query: Mapping[str, str],
                            *, table_flavor: bool) -> str:
    resource = f"/{account}{path}"
    if table_flavor:
        # Table canonical resource appends only the ?comp= parameter.
        comp = query.get("comp")
        return resource + (f"?comp={comp}" if comp else "")
    lowered = {k.lower(): v for k, v in query.items()}
    parts = [resource]
    for name in sorted(lowered):
        parts.append(f"{name}:{unquote(lowered[name])}")
    return "\n".join(parts)


def _lower(headers: Mapping[str, str]) -> Dict[str, str]:
    return {k.lower(): v for k, v in headers.items()}


def string_to_sign(account: str, method: str, path: str,
                   query: Mapping[str, str], headers: Mapping[str, str],
                   *, table_flavor: bool = False) -> str:
    """Build the canonical string-to-sign for one request."""
    h = _lower(headers)
    date = h.get("x-ms-date", "") or h.get("date", "")
    if table_flavor:
        return "\n".join([
            method.upper(),
            h.get("content-md5", ""),
            h.get("content-type", ""),
            date,
            _canonicalized_resource(account, path, query, table_flavor=True),
        ])
    std = [h.get(name, "") for name in _STANDARD_HEADERS]
    if h.get("x-ms-date"):
        std[_DATE_AT] = ""  # x-ms-date supersedes Date in the signature
    if std[_LENGTH_AT] == "0":
        std[_LENGTH_AT] = ""  # 2015-02-21+ semantics, matched by Azurite
    pieces = [method.upper(), *std]
    canon_headers = _canonicalized_headers(h)
    if canon_headers:
        pieces.append(canon_headers)
    pieces.append(
        _canonicalized_resource(account, path, query, table_flavor=False))
    return "\n".join(pieces)


@functools.lru_cache(maxsize=256)
def _keyed(key: str) -> hmac.HMAC:
    """An account key's HMAC, keyed once; never updated, only copied."""
    return hmac.new(base64.b64decode(key), digestmod="sha256")


def compute_signature(key: str, to_sign: str) -> str:
    mac = _keyed(key).copy()
    mac.update(to_sign.encode("utf-8"))
    return base64.b64encode(mac.digest()).decode("ascii")


def sign_request(account: str, key: str, method: str, path: str,
                 query: Mapping[str, str], headers: Mapping[str, str],
                 *, table_flavor: bool = False) -> str:
    """Return the value for the ``Authorization`` header."""
    to_sign = string_to_sign(account, method, path, query, headers,
                             table_flavor=table_flavor)
    return f"SharedKey {account}:{compute_signature(key, to_sign)}"


def parse_authorization(header: str) -> Tuple[str, str]:
    """``SharedKey account:sig`` -> ``(account, sig)``; raises on junk."""
    scheme, _, rest = header.partition(" ")
    if scheme != "SharedKey" or ":" not in rest:
        raise SignatureError(f"malformed Authorization header {header!r}")
    account, _, signature = rest.partition(":")
    return account.strip(), signature.strip()


def verify_request(key: str, method: str, path: str,
                   query: Mapping[str, str], headers: Mapping[str, str],
                   authorization: str, *,
                   table_flavor: bool = False) -> None:
    """Check the Authorization header; raise :class:`SignatureError`."""
    account, presented = parse_authorization(authorization)
    expected = compute_signature(
        key, string_to_sign(account, method, path, query, headers,
                            table_flavor=table_flavor))
    if not hmac.compare_digest(presented, expected):
        raise SignatureError(
            f"signature mismatch for account {account!r}")
