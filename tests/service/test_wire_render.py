"""Templated wire output equals the serialisers it replaced, byte for byte.

The queue-message XML and the RFC 1123 dates are emitted without an
``ElementTree`` per message or a ``formatdate`` per call; the
implementations they replaced stay here as the reference.
"""

import base64
import email.utils
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire
from repro.storage.content import BytesContent
from repro.storage.queue.state import QueueMessage


def reference_date(epoch):
    return email.utils.formatdate(epoch, usegmt=True)


def reference_messages_xml(messages, *, peeked=False):
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
@given(st.lists(messages, max_size=3), st.booleans())
def test_messages_xml_is_what_elementtree_wrote(msgs, peeked):
    assert wire._messages_xml(msgs, peeked=peeked) \
        == reference_messages_xml(msgs, peeked=peeked)
    assert wire._parse_messages_xml(wire._messages_xml(msgs)) is not None


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_message_body_is_what_elementtree_wrote(data):
    assert wire._message_body(data) == reference_message_body(data)


@settings(max_examples=500, deadline=None)
@given(st.one_of(epochs, st.floats(min_value=-1e6, max_value=0.0)))
def test_http_date_is_formatdate(epoch):
    assert wire._http_date(epoch) == reference_date(epoch)
