"""Templated wire output equals the serialisers it replaced, byte for byte,
and the expat message reader reads what an element tree reads.

The XML documents and the RFC 1123 dates are emitted without
``ElementTree`` or ``email.utils``, and queue messages read back without
an element tree; the implementations they replaced stay here (and in
``tests.service.wire_oracle``) as the reference.
"""

import base64
import calendar
import email.utils
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire
from repro.storage.content import BytesContent
from repro.storage.errors import ResourceNotFoundError
from repro.storage.queue.state import QueueMessage
from tests.service import wire_oracle
from tests.service.test_wire_routes import view


def reference_date(epoch):
    return email.utils.formatdate(epoch, usegmt=True)


def reference_messages_xml(messages, *, peeked=False, text=True):
    """``text=False``: a put's reply, the message without its text."""
    root = ET.Element("QueueMessagesList")
    for msg in messages:
        el = ET.SubElement(root, "QueueMessage")
        ET.SubElement(el, "MessageId").text = msg.message_id
        ET.SubElement(el, "InsertionTime").text = \
            reference_date(msg.insertion_time)
        ET.SubElement(el, "ExpirationTime").text = \
            reference_date(msg.expiration_time)
        ET.SubElement(el, "DequeueCount").text = str(msg.dequeue_count)
        if not peeked:
            if msg.pop_receipt is not None:
                ET.SubElement(el, "PopReceipt").text = msg.pop_receipt
            ET.SubElement(el, "TimeNextVisible").text = \
                reference_date(msg.next_visible_time)
        if text:
            ET.SubElement(el, "MessageText").text = \
                base64.b64encode(msg.content.to_bytes()).decode("ascii")
        ET.SubElement(el, "InsertionTimeEpoch").text = \
            repr(msg.insertion_time)
        ET.SubElement(el, "ExpirationTimeEpoch").text = \
            repr(msg.expiration_time)
        ET.SubElement(el, "TimeNextVisibleEpoch").text = \
            repr(msg.next_visible_time)
    return ('<?xml version="1.0" encoding="utf-8"?>'
            + ET.tostring(root, encoding="unicode")).encode("utf-8")


def reference_message_body(data: bytes) -> bytes:
    root = ET.Element("QueueMessage")
    ET.SubElement(root, "MessageText").text = \
        base64.b64encode(data).decode("ascii")
    return ('<?xml version="1.0" encoding="utf-8"?>'
            + ET.tostring(root, encoding="unicode")).encode("utf-8")


#: Text ElementTree can carry: it escapes ``& < >`` and nothing else.
xml_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FF),
    max_size=24)
epochs = st.one_of(
    st.floats(min_value=0.0, max_value=4e9, allow_nan=False),
    st.integers(min_value=0, max_value=4 * 10 ** 9).flatmap(
        lambda s: st.sampled_from(
            [s + 0.9999994, s + 0.9999995, s + 0.9999996, float(s)])))
messages = st.builds(
    QueueMessage, message_id=xml_text,
    content=st.binary(max_size=64).map(BytesContent),
    insertion_time=epochs, expiration_time=epochs,
    next_visible_time=epochs,
    dequeue_count=st.integers(min_value=0, max_value=99),
    pop_receipt=st.one_of(st.none(), xml_text))


@settings(max_examples=300, deadline=None)
@given(st.lists(messages, max_size=3), st.booleans(), st.booleans())
def test_messages_xml_is_what_elementtree_wrote(msgs, peeked, text):
    assert wire._messages_xml(msgs, peeked=peeked, text=text) \
        == reference_messages_xml(msgs, peeked=peeked, text=text)


def test_a_put_reply_is_the_message_without_its_text():
    msg = QueueMessage("id-1", BytesContent(b"x" * 4096), 1790000000.5,
                       1790604800.5, 1790000000.5, 0, "rcpt")
    body = wire._messages_xml([msg], text=False)
    text = base64.b64encode(msg.content.to_bytes())
    assert wire._messages_xml([msg]) == body.replace(
        b"<InsertionTimeEpoch>",
        b"<MessageText>" + text + b"</MessageText><InsertionTimeEpoch>")
    assert ET.fromstring(body).find("QueueMessage").findtext("MessageId") \
        == "id-1"


@settings(max_examples=300, deadline=None)
@given(st.lists(messages, max_size=3), st.booleans(), st.booleans())
def test_the_expat_reader_reads_what_elementtree_reads(msgs, peeked, text):
    body = wire._messages_xml(msgs, peeked=peeked, text=text)
    assert view(wire._parse_messages_xml(body)) \
        == view(wire_oracle.parse_messages_xml(body))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_the_expat_reader_reads_a_message_body_as_elementtree_does(data):
    body = wire._message_body(data)
    assert wire._queue_text(body).to_bytes() \
        == wire_oracle.queue_text(body).to_bytes() == data


def raises(read, body):
    try:
        read(body)
    except Exception:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.lists(messages, min_size=1, max_size=2), st.data())
def test_a_truncated_document_raises_on_both_readers(msgs, data):
    body = wire._messages_xml(msgs)
    cut = body[:data.draw(st.integers(0, len(body) - 1))]
    for read in (wire._parse_messages_xml, wire_oracle.parse_messages_xml,
                 wire._queue_text, wire_oracle.queue_text):
        assert raises(read, cut)


@pytest.mark.parametrize("body", [
    b"", b"not xml", b"<QueueMessage>", b"<QueueMessage></Queue>",
    b"<QueueMessage><MessageText>aGk=</MessageId></QueueMessage>",
    b"<a/><b/>", b"<QueueMessage>\xff</QueueMessage>",
    b"<QueueMessagesList><QueueMessage><MessageId>a&b</MessageId>"
    b"</QueueMessage></QueueMessagesList>",
    b"<QueueMessage><MessageText>a</MessageText></QueueMessage>",
])
def test_a_malformed_document_raises_on_both_readers(body):
    for read in (wire._parse_messages_xml, wire_oracle.parse_messages_xml,
                 wire._queue_text, wire_oracle.queue_text):
        assert raises(read, body)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_message_body_is_what_elementtree_wrote(data):
    assert wire._message_body(data) == reference_message_body(data)


@settings(max_examples=500, deadline=None)
@given(st.one_of(epochs, st.floats(min_value=-1e6, max_value=0.0)))
def test_http_date_is_formatdate(epoch):
    assert wire._http_date(epoch) == reference_date(epoch)


# -- the date and the XML documents, without email.utils or ElementTree ------

def second(*fields):
    return calendar.timegm((*fields, 0, 0, 0))


@pytest.mark.parametrize("epoch", [
    0, second(2000, 2, 29, 0, 0, 0), second(2000, 2, 29, 23, 59, 59),
    second(1900, 2, 28, 12, 0, 0), 2 ** 31 - 1, 2 ** 31,
    second(2100, 2, 28, 23, 59, 59), second(2100, 3, 1, 0, 0, 0),
    second(9999, 12, 31, 23, 59, 59)])
def test_date_of_second_is_formatdate(epoch):
    assert wire._date_of_second(epoch) == reference_date(epoch)


def test_date_of_second_is_formatdate_on_a_sweep():
    rng = random.Random(2012)
    for epoch in (rng.randrange(-2 ** 32, 2 ** 35) for _ in range(20000)):
        assert wire._date_of_second(epoch) == reference_date(epoch), epoch


@pytest.mark.parametrize("whole", [0, second(2000, 2, 29, 23, 59, 59),
                                   2 ** 31 - 1, second(2050, 12, 31, 23,
                                                       59, 59)])
def test_http_date_rounds_a_fraction_up_as_formatdate_does(whole):
    # Rounded to the microsecond, .9999996 is the next second.
    assert wire._http_date(whole + 0.9999996) \
        == reference_date(whole + 0.9999996) == reference_date(whole + 1)
    assert wire._http_date(whole + 0.999999) == reference_date(whole)


def reference_document(root):
    return ('<?xml version="1.0" encoding="utf-8"?>'
            + ET.tostring(root, encoding="unicode")).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(xml_text)
def test_an_error_body_is_what_elementtree_wrote(message):
    exc = ResourceNotFoundError(message)
    root = ET.Element("Error")
    ET.SubElement(root, "Code").text = exc.error_code
    ET.SubElement(root, "Message").text = str(exc)
    assert wire.error_to_response(exc).body == reference_document(root)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["Blob", "Queue"]), st.lists(xml_text, max_size=3))
def test_a_listing_is_what_elementtree_wrote(kind, names):
    root = ET.Element("EnumerationResults")
    box = ET.SubElement(root, kind + "s")
    for name in names:
        ET.SubElement(ET.SubElement(box, kind), "Name").text = name
    assert wire._names_xml(kind, names) == reference_document(root)


@settings(max_examples=200, deadline=None)
@given(st.lists(xml_text, max_size=3))
def test_a_block_list_is_what_elementtree_wrote(block_ids):
    root = ET.Element("BlockList")
    for block_id in block_ids:
        ET.SubElement(root, "Latest").text = block_id
    assert wire._block_list_xml({"block_ids": block_ids}) \
        == reference_document(root)
