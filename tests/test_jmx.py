"""Tests for the JMX substrate: object names, MBeans, server, notifications, connector."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jmx.connector import JmxConnector, JmxConnectorError
from repro.jmx.mbean import MBean, MBeanAttributeError, MBeanOperationError, attribute, operation
from repro.jmx.mbean_server import (
    InstanceAlreadyExistsError,
    InstanceNotFoundError,
    MBeanServer,
    REGISTRATION_NOTIFICATION,
)
from repro.jmx.notifications import NotificationBroadcaster, type_filter
from repro.jmx.object_name import MalformedObjectNameError, ObjectName


class _SampleBean(MBean, NotificationBroadcaster):
    """Small MBean used throughout these tests."""

    description = "sample"

    def __init__(self) -> None:
        NotificationBroadcaster.__init__(self)
        self._level = 3
        self.reset_calls = 0

    @attribute
    def Level(self) -> int:
        return self._level

    @attribute(writable=True)
    def Threshold(self) -> int:
        return getattr(self, "_threshold", 10)

    def set_Threshold(self, value: int) -> None:
        self._threshold = value

    @operation
    def reset(self) -> str:
        self.reset_calls += 1
        return "ok"

    @operation
    def add(self, a: int, b: int) -> int:
        return a + b


class TestObjectName:
    def test_parse_canonical_form(self):
        name = ObjectName("repro.agents:type=memory,name=a1")
        assert name.domain == "repro.agents"
        assert name.get("type") == "memory"
        assert name.canonical == "repro.agents:name=a1,type=memory"

    def test_constructor_with_properties(self):
        name = ObjectName.of("d", type="x", id="1")
        assert name == ObjectName("d:type=x,id=1")
        assert hash(name) == hash(ObjectName("d:id=1,type=x"))

    def test_malformed_names(self):
        for bad in ["nodomain", "d:", "d:novalue", "d:k=", "d:k=v,k=w", ":k=v", "d:*,k=v"]:
            with pytest.raises(MalformedObjectNameError):
                ObjectName(bad)

    def test_pattern_matching_property_list_wildcard(self):
        pattern = ObjectName("repro.agents:type=memory,*")
        assert pattern.is_pattern
        assert pattern.matches(ObjectName("repro.agents:type=memory,name=a1"))
        assert not pattern.matches(ObjectName("repro.agents:type=cpu,name=a1"))

    def test_pattern_matching_value_wildcards(self):
        pattern = ObjectName("repro.*:component=TPCW_*,*")
        assert pattern.matches(ObjectName("repro.aspects:component=TPCW_home,x=1"))
        assert not pattern.matches(ObjectName("other:component=TPCW_home"))

    def test_exact_name_requires_same_property_set(self):
        exact = ObjectName("d:a=1")
        assert not exact.matches(ObjectName("d:a=1,b=2"))
        assert exact.matches(ObjectName("d:a=1"))

    def test_name_is_immutable(self):
        name = ObjectName("repro.agents:type=memory,name=a1")
        before = (name.canonical, hash(name))
        with pytest.raises(AttributeError):
            name.domain = "other"
        with pytest.raises(AttributeError):
            name.properties = {"type": "cpu"}
        with pytest.raises(TypeError):
            name.properties["type"] = "cpu"
        with pytest.raises(TypeError):
            del name.properties["name"]
        assert (name.canonical, hash(name)) == before

    def test_caller_mapping_does_not_alias_properties(self):
        properties = {"type": "memory"}
        name = ObjectName("d", properties=properties)
        properties["type"] = "cpu"
        assert name.get("type") == "memory"
        assert name == ObjectName("d:type=memory")


class TestMBean:
    def test_attribute_read(self):
        bean = _SampleBean()
        assert bean.get_attribute("Level") == 3
        assert bean.get_attributes(["Level", "Threshold"]) == {"Level": 3, "Threshold": 10}

    def test_unknown_attribute(self):
        with pytest.raises(MBeanAttributeError):
            _SampleBean().get_attribute("Nope")

    def test_read_only_attribute_rejects_write(self):
        with pytest.raises(MBeanAttributeError):
            _SampleBean().set_attribute("Level", 5)

    def test_writable_attribute(self):
        bean = _SampleBean()
        bean.set_attribute("Threshold", 42)
        assert bean.get_attribute("Threshold") == 42

    def test_operation_invocation(self):
        bean = _SampleBean()
        assert bean.invoke("reset") == "ok"
        assert bean.invoke("add", 2, 3) == 5
        with pytest.raises(MBeanOperationError):
            bean.invoke("missing")

    def test_mbean_info_lists_surface(self):
        info = _SampleBean().mbean_info()
        assert "Level" in info.attribute_names()
        assert info.attributes["Threshold"]["writable"] is True
        assert set(info.operation_names()) >= {"reset", "add"}


class TestMBeanServer:
    def test_register_query_invoke(self):
        server = MBeanServer()
        bean = _SampleBean()
        server.register("d:type=sample,id=1", bean)
        assert server.mbean_count == 1
        assert server.get_attribute("d:type=sample,id=1", "Level") == 3
        server.invoke("d:type=sample,id=1", "reset")
        assert bean.reset_calls == 1

    def test_duplicate_registration_rejected(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        with pytest.raises(InstanceAlreadyExistsError):
            server.register("d:a=1", _SampleBean())

    def test_register_pattern_rejected(self):
        with pytest.raises(ValueError):
            MBeanServer().register("d:a=1,*", _SampleBean())

    def test_unregister(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        server.unregister("d:a=1")
        assert not server.is_registered("d:a=1")
        with pytest.raises(InstanceNotFoundError):
            server.get_mbean("d:a=1")

    def test_query_names_with_pattern(self):
        server = MBeanServer()
        server.register("repro.agents:type=memory", _SampleBean())
        server.register("repro.agents:type=cpu", _SampleBean())
        server.register("repro.core:type=manager", _SampleBean())
        names = server.query_names("repro.agents:*")
        assert [n.get("type") for n in names] == ["cpu", "memory"]
        assert len(server.query_names()) == 3

    def test_registration_notifications(self):
        server = MBeanServer()
        events = []
        server.add_notification_listener(
            lambda notification, handback: events.append(notification.type),
            type_filter(REGISTRATION_NOTIFICATION),
        )
        server.register("d:a=1", _SampleBean())
        server.unregister("d:a=1")
        assert events == [REGISTRATION_NOTIFICATION]

    def test_add_mbean_listener_routes_to_broadcaster(self):
        server = MBeanServer()
        bean = _SampleBean()
        server.register("d:a=1", bean)
        got = []
        server.add_mbean_listener("d:a=1", lambda notification, handback: got.append(handback), handback="hb")
        bean.send_notification("custom", source="d:a=1")
        assert got == ["hb"]


class TestNotifications:
    def test_filter_and_handback(self):
        broadcaster = NotificationBroadcaster()
        received = []
        broadcaster.add_notification_listener(
            lambda n, h: received.append((n.type, h)), type_filter("a"), handback=1
        )
        broadcaster.send_notification("a", source="s")
        broadcaster.send_notification("b", source="s")
        assert received == [("a", 1)]
        assert broadcaster.emitted_count == 2

    def test_sequence_numbers_increase(self):
        broadcaster = NotificationBroadcaster()
        first = broadcaster.send_notification("t", source="s")
        second = broadcaster.send_notification("t", source="s")
        assert second.sequence_number == first.sequence_number + 1

    def test_remove_listener(self):
        broadcaster = NotificationBroadcaster()
        listener = lambda n, h: None  # noqa: E731
        broadcaster.add_notification_listener(listener)
        assert broadcaster.remove_notification_listener(listener) == 1
        with pytest.raises(ValueError):
            broadcaster.remove_notification_listener(listener)


class TestConnector:
    def test_proxy_reads_and_invokes(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        connector = JmxConnector(server, call_latency=0.001)
        proxy = connector.proxy("d:a=1")
        assert proxy.get("Level") == 3
        assert proxy.call("add", 1, 2) == 3
        proxy.set("Threshold", 9)
        assert proxy.get("Threshold") == 9
        assert connector.call_count >= 4
        assert connector.total_latency == pytest.approx(connector.call_count * 0.001)

    def test_closed_connector_rejects_calls(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        connector = JmxConnector(server)
        connector.close()
        with pytest.raises(JmxConnectorError):
            connector.query_names()

    def test_proxy_for_missing_mbean(self):
        connector = JmxConnector(MBeanServer())
        with pytest.raises(JmxConnectorError):
            connector.proxy("d:a=1")

    def test_mbean_info_over_connector(self):
        server = MBeanServer()
        server.register("d:a=1", _SampleBean())
        info = JmxConnector(server).mbean_info("d:a=1")
        assert info["class_name"] == "_SampleBean"
        assert "Level" in info["attributes"]


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
_ident = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(domain=_ident, properties=st.dictionaries(_ident, _ident, min_size=1, max_size=4))
def test_property_object_name_roundtrip(domain, properties):
    """Canonical form parses back to an equal ObjectName."""
    name = ObjectName.of(domain, **properties)
    reparsed = ObjectName(name.canonical)
    assert reparsed == name
    assert reparsed.properties == name.properties


@settings(max_examples=60, deadline=None)
@given(domain=_ident, properties=st.dictionaries(_ident, _ident, min_size=1, max_size=4))
def test_property_pattern_with_property_wildcard_matches_self(domain, properties):
    """``domain:*`` matches every concrete name in that domain."""
    concrete = ObjectName.of(domain, **properties)
    pattern = ObjectName(f"{domain}:*")
    assert pattern.matches(concrete)


@settings(max_examples=60, deadline=None)
@given(
    domain=_ident,
    properties=st.dictionaries(_ident, _ident, min_size=1, max_size=4),
    data=st.data(),
)
def test_property_name_forms_agree(domain, properties, data):
    """Parsed, ``of(...)`` and pattern forms hash, match and query alike."""
    keys = data.draw(st.permutations(sorted(properties)))
    text = f"{domain}:" + ",".join(f"{k}={properties[k]}" for k in keys)
    parsed, built = ObjectName(text), ObjectName.of(domain, **properties)
    for form in (parsed, pickle.loads(pickle.dumps(built))):
        assert form == built and hash(form) == hash(built)

    wildcard_key = keys[0]
    value_pattern = dict(properties, **{wildcard_key: properties[wildcard_key][:1] + "*"})
    # (string form, equivalent keyword form or None when there is none)
    patterns = (
        (f"{domain}:{wildcard_key}={value_pattern[wildcard_key]},*", None),
        (
            f"{domain}:" + ",".join(f"{k}={value_pattern[k]}" for k in reversed(keys)),
            ObjectName.of(domain, **value_pattern),
        ),
        (f"{domain[:1]}*:*", None),
    )
    concretes = [
        built,
        ObjectName.of(domain, **dict(properties, extra="1")),
        ObjectName.of(domain + "x", **properties),
        ObjectName.of(domain, **{k: v + "z" for k, v in properties.items()}),
    ]
    for pattern_text, keyword_form in patterns:
        forms = [ObjectName(pattern_text), pickle.loads(pickle.dumps(ObjectName(pattern_text)))]
        if keyword_form is not None:
            forms.append(keyword_form)
        assert forms[0].is_pattern
        assert len({hash(form) for form in forms}) == 1
        assert all(form == forms[0] for form in forms)
        expected = [forms[0].matches(name) for name in concretes]
        assert expected[0]
        assert all([form.matches(name) for name in concretes] == expected for form in forms)
        query_results = []
        for query in [*forms, pattern_text]:
            server = MBeanServer()
            for name in {c.canonical: c for c in concretes}.values():
                server.register(name, _SampleBean())
            query_results.append(server.query_names(query))
        assert all(result == query_results[0] for result in query_results)
