"""Azurite wire-subset conformance, driven by raw HTTP only.

No SDK and no repro wire clients: every request here is hand-built
headers + bodies through ``http.client``, the way an external 2012-era
client (or curl) would talk to ``repro serve``.  Covers the block,
page, queue, and table surfaces plus error-body and status-code
fidelity for 403/412/503.
"""

import base64
import json
import time
import xml.etree.ElementTree as ET

from tests.service.conftest import (
    RawClient,
    THROTTLED,
    THROTTLED_KEY,
)


def _error_code(body: bytes) -> str:
    """The <Error><Code> of an XML error body."""
    return ET.fromstring(body.decode()).findtext("Code")


class TestBlockBlobs:
    def test_put_block_put_blocklist_get(self, raw):
        status, _, _ = raw.request(
            "blob", "PUT", "/blocks", query={"restype": "container"})
        assert status == 201

        for i, chunk in enumerate([b"alpha-", b"beta"]):
            status, _, _ = raw.request(
                "blob", "PUT", "/blocks/doc",
                query={"comp": "block", "blockid": f"b{i}"}, body=chunk)
            assert status == 201

        commit = (b"<?xml version=\"1.0\" encoding=\"utf-8\"?>"
                  b"<BlockList><Latest>b0</Latest><Latest>b1</Latest>"
                  b"</BlockList>")
        status, _, _ = raw.request(
            "blob", "PUT", "/blocks/doc", query={"comp": "blocklist"},
            body=commit)
        assert status == 201

        status, headers, body = raw.request("blob", "GET", "/blocks/doc")
        assert status == 200
        assert body == b"alpha-beta"

        status, headers, _ = raw.request(
            "blob", "GET", "/blocks/doc", query={"comp": "blocklist"})
        assert status == 200
        assert headers["x-ms-block-count"] == "2"

    def test_single_shot_upload_and_list(self, raw):
        raw.request("blob", "PUT", "/single",
                    query={"restype": "container"})
        status, _, _ = raw.request(
            "blob", "PUT", "/single/one.txt", body=b"payload",
            headers={"x-ms-blob-type": "BlockBlob"})
        assert status == 201
        status, _, body = raw.request(
            "blob", "GET", "/single", query={"restype": "container",
                                             "comp": "list"})
        assert status == 200
        names = [el.text for el in
                 ET.fromstring(body.decode()).iter("Name")]
        assert names == ["one.txt"]

    def test_delete_blob(self, raw):
        raw.request("blob", "PUT", "/gone", query={"restype": "container"})
        raw.request("blob", "PUT", "/gone/b", body=b"x",
                    headers={"x-ms-blob-type": "BlockBlob"})
        status, _, _ = raw.request("blob", "DELETE", "/gone/b")
        assert status == 202
        status, _, body = raw.request("blob", "GET", "/gone/b")
        assert status == 404
        assert _error_code(body) == "BlobNotFound"

    def test_missing_container_404(self, raw):
        status, headers, body = raw.request("blob", "GET", "/absent/b")
        assert status == 404
        assert headers["x-ms-error-code"] == "ContainerNotFound"
        assert _error_code(body) == "ContainerNotFound"


class TestPageBlobs:
    def test_put_page_and_range_reads(self, raw):
        raw.request("blob", "PUT", "/pages", query={"restype": "container"})
        status, _, _ = raw.request(
            "blob", "PUT", "/pages/disk",
            headers={"x-ms-blob-type": "PageBlob",
                     "x-ms-blob-content-length": "2048"})
        assert status == 201

        status, _, _ = raw.request(
            "blob", "PUT", "/pages/disk", query={"comp": "page"},
            headers={"x-ms-range": "bytes=512-1023"}, body=b"P" * 512)
        assert status == 201

        status, headers, body = raw.request(
            "blob", "GET", "/pages/disk",
            headers={"x-ms-range": "bytes=512-1023"})
        assert status == 206
        assert body == b"P" * 512
        assert headers["content-range"] == "bytes 512-1023/2048"

        # Unwritten ranges read back as zeros.
        status, _, body = raw.request(
            "blob", "GET", "/pages/disk",
            headers={"x-ms-range": "bytes=0-511"})
        assert status == 206
        assert body == b"\0" * 512

        # Whole-blob download covers the declared size.
        status, _, body = raw.request("blob", "GET", "/pages/disk")
        assert status == 200
        assert len(body) == 2048

    def test_misaligned_page_write_rejected(self, raw):
        raw.request("blob", "PUT", "/pages2",
                    query={"restype": "container"})
        raw.request("blob", "PUT", "/pages2/disk",
                    headers={"x-ms-blob-type": "PageBlob",
                             "x-ms-blob-content-length": "1024"})
        status, _, body = raw.request(
            "blob", "PUT", "/pages2/disk", query={"comp": "page"},
            headers={"x-ms-range": "bytes=3-514"}, body=b"x" * 512)
        assert status == 400
        assert _error_code(body) == "InvalidPageRange"


class TestQueues:
    def _put_message(self, raw, queue, text, **query):
        payload = base64.b64encode(text).decode()
        body = (f"<QueueMessage><MessageText>{payload}</MessageText>"
                f"</QueueMessage>").encode()
        return raw.request("queue", "POST", f"/{queue}/messages",
                           query=query, body=body)

    def test_message_lifecycle_with_visibility(self, raw):
        status, _, _ = raw.request("queue", "PUT", "/conformq")
        assert status == 201

        status, _, body = self._put_message(raw, "conformq", b"job-1")
        assert status == 201
        put_el = ET.fromstring(body.decode()).find("QueueMessage")
        assert put_el.findtext("MessageId")
        # The put reply lists the message's metadata, not its text.
        assert put_el.findtext("TimeNextVisible")
        assert put_el.find("MessageText") is None

        # Get with a short visibility timeout: the message disappears...
        status, _, body = raw.request(
            "queue", "GET", "/conformq/messages",
            query={"visibilitytimeout": "0.3"})
        assert status == 200
        got = ET.fromstring(body.decode()).find("QueueMessage")
        assert base64.b64decode(got.findtext("MessageText")) == b"job-1"
        assert got.findtext("DequeueCount") == "1"
        pop_receipt = got.findtext("PopReceipt")
        assert pop_receipt

        status, _, body = raw.request("queue", "GET", "/conformq/messages")
        assert ET.fromstring(body.decode()).find("QueueMessage") is None

        # ...and reappears once the timeout lapses, dequeue count bumped.
        time.sleep(0.4)
        status, _, body = raw.request(
            "queue", "GET", "/conformq/messages",
            query={"visibilitytimeout": "30"})
        got = ET.fromstring(body.decode()).find("QueueMessage")
        assert got is not None
        assert got.findtext("DequeueCount") == "2"

        status, _, _ = raw.request(
            "queue", "DELETE",
            f"/conformq/messages/{got.findtext('MessageId')}",
            query={"popreceipt": got.findtext("PopReceipt")})
        assert status == 204

        status, headers, _ = raw.request(
            "queue", "GET", "/conformq", query={"comp": "metadata"})
        assert status == 200
        assert headers["x-ms-approximate-messages-count"] == "0"

    def test_peek_does_not_take_message(self, raw):
        raw.request("queue", "PUT", "/peekq")
        self._put_message(raw, "peekq", b"peek-me")
        status, _, body = raw.request(
            "queue", "GET", "/peekq/messages", query={"peekonly": "true"})
        assert status == 200
        peeked = ET.fromstring(body.decode()).find("QueueMessage")
        assert base64.b64decode(peeked.findtext("MessageText")) == b"peek-me"
        # Peeked messages carry no pop receipt and stay visible.
        assert peeked.find("PopReceipt") is None
        status, _, body = raw.request(
            "queue", "GET", "/peekq/messages",
            query={"numofmessages": "5"})
        msgs = ET.fromstring(body.decode()).findall("QueueMessage")
        assert len(msgs) == 1

    def test_delete_wrong_pop_receipt_404(self, raw):
        raw.request("queue", "PUT", "/popq")
        self._put_message(raw, "popq", b"m")
        status, _, body = raw.request(
            "queue", "GET", "/popq/messages",
            query={"visibilitytimeout": "30"})
        got = ET.fromstring(body.decode()).find("QueueMessage")
        status, _, body = raw.request(
            "queue", "DELETE",
            f"/popq/messages/{got.findtext('MessageId')}",
            query={"popreceipt": "bogus"})
        assert status == 404
        assert _error_code(body) == "MessageNotFound"


class TestTables:
    TABLE = "conformtbl"

    def _create(self, raw):
        raw.request(
            "table", "POST", "/Tables",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"TableName": self.TABLE}).encode())

    def _entity_path(self, pk, rk):
        return f"/{self.TABLE}(PartitionKey='{pk}',RowKey='{rk}')"

    def test_entity_crud_with_etags(self, raw):
        self._create(raw)
        status, headers, body = raw.request(
            "table", "POST", f"/{self.TABLE}",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"PartitionKey": "p1", "RowKey": "r1",
                             "score": 10}).encode())
        assert status == 201
        etag = headers["etag"]
        assert etag

        status, _, body = raw.request(
            "table", "GET", self._entity_path("p1", "r1"))
        assert status == 200
        doc = json.loads(body)
        assert doc["score"] == 10

        # Conditional update with the current ETag succeeds...
        status, headers, _ = raw.request(
            "table", "PUT", self._entity_path("p1", "r1"),
            headers={"Content-Type": "application/json",
                     "If-Match": etag},
            body=json.dumps({"PartitionKey": "p1", "RowKey": "r1",
                             "score": 11}).encode())
        assert status == 204
        new_etag = headers["etag"]
        assert new_etag != etag

        # ...and the stale ETag is rejected with 412 + odata error JSON.
        status, headers, body = raw.request(
            "table", "PUT", self._entity_path("p1", "r1"),
            headers={"Content-Type": "application/json",
                     "If-Match": etag},
            body=json.dumps({"PartitionKey": "p1", "RowKey": "r1",
                             "score": 12}).encode())
        assert status == 412
        assert headers["x-ms-error-code"] == "UpdateConditionNotSatisfied"
        err = json.loads(body)
        assert (err["odata.error"]["code"]
                == "UpdateConditionNotSatisfied")

        status, _, _ = raw.request(
            "table", "DELETE", self._entity_path("p1", "r1"),
            headers={"If-Match": new_etag})
        assert status == 204
        status, _, _ = raw.request(
            "table", "GET", self._entity_path("p1", "r1"))
        assert status == 404

    def test_merge_preserves_other_properties(self, raw):
        self._create(raw)
        raw.request(
            "table", "POST", f"/{self.TABLE}",
            headers={"Content-Type": "application/json"},
            body=json.dumps({"PartitionKey": "p2", "RowKey": "r1",
                             "a": 1, "b": 2}).encode())
        status, _, _ = raw.request(
            "table", "MERGE", self._entity_path("p2", "r1"),
            headers={"Content-Type": "application/json",
                     "If-Match": "*"},
            body=json.dumps({"PartitionKey": "p2", "RowKey": "r1",
                             "b": 20}).encode())
        assert status == 204
        _, _, body = raw.request(
            "table", "GET", self._entity_path("p2", "r1"))
        doc = json.loads(body)
        assert (doc["a"], doc["b"]) == (1, 20)

    def test_query_returns_inserted_entities(self, raw):
        self._create(raw)
        for i in range(3):
            raw.request(
                "table", "POST", f"/{self.TABLE}",
                headers={"Content-Type": "application/json"},
                body=json.dumps({"PartitionKey": "q", "RowKey": f"r{i}",
                                 "i": i}).encode())
        status, _, body = raw.request(
            "table", "GET", f"/{self.TABLE}()",
            query={"$filter": "PartitionKey%20eq%20'q'"})
        assert status == 200
        rows = json.loads(body)["value"]
        assert [r["RowKey"] for r in rows] == ["r0", "r1", "r2"]


class TestErrorFidelity:
    def test_bad_signature_403(self, raw, cluster):
        bad = RawClient(cluster.endpoints(0),
                        key="QmFkS2V5QmFkS2V5QmFkS2V5QmFkS2V5")
        status, headers, body = bad.request("blob", "PUT", "/nope",
                                            query={"restype": "container"})
        assert status == 403
        assert headers["x-ms-error-code"] == "AuthenticationFailed"
        assert _error_code(body) == "AuthenticationFailed"

    def test_missing_authorization_403(self, raw):
        status, _, body = raw.request("blob", "GET", "/c/b", sign=False)
        assert status == 403
        assert _error_code(body) == "AuthenticationFailed"

    def test_unknown_account_403_not_404(self, cluster):
        ghost = RawClient(cluster.endpoints(0), account="ghost")
        status, _, body = ghost.request("queue", "PUT", "/anyq")
        # Account existence is not revealed: authentication fails.
        assert status == 403
        assert _error_code(body) == "AuthenticationFailed"

    def test_server_busy_503_with_retry_after(self, cluster):
        busy = RawClient(cluster.endpoints(0), account=THROTTLED,
                         key=THROTTLED_KEY)
        status, _, _ = busy.request("queue", "PUT", "/stormq")
        assert status == 201
        saw_busy = None
        for i in range(20):
            status, headers, body = busy.request(
                "queue", "POST", "/stormq/messages",
                body=(b"<QueueMessage><MessageText>bTE=</MessageText>"
                      b"</QueueMessage>"))
            if status == 503:
                saw_busy = (headers, body)
                break
        assert saw_busy is not None, "throttle never tripped"
        headers, body = saw_busy
        assert headers["x-ms-error-code"] == "ServerBusy"
        assert float(headers["retry-after"]) > 0
        assert _error_code(body) == "ServerBusy"

    def test_table_error_body_is_odata_json(self, raw):
        status, headers, body = raw.request(
            "table", "GET", "/absenttbl(PartitionKey='p',RowKey='r')")
        assert status == 404
        err = json.loads(body)["odata.error"]
        assert err["code"] == "TableNotFound"
        assert "message" in err

    def test_second_service_node_serves_same_namespace(self, raw, raw_sn1):
        raw.request("blob", "PUT", "/shared", query={"restype": "container"})
        raw.request("blob", "PUT", "/shared/from-sn0", body=b"via sn0",
                    headers={"x-ms-blob-type": "BlockBlob"})
        status, _, body = raw_sn1.request("blob", "GET", "/shared/from-sn0")
        assert status == 200
        assert body == b"via sn0"
