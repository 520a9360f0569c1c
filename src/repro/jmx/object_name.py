"""``javax.management.ObjectName`` analogue.

An object name has the canonical form ``domain:key1=value1,key2=value2``.
Names may be *patterns*: ``*`` and ``?`` wildcards in the domain, a trailing
``,*`` (or a lone ``*``) in the key-property list meaning "and any further
properties", and ``*``/``?`` wildcards inside property values.  Pattern
matching is what lets the JMX Manager Agent discover monitoring agents and
Aspect Components it has never been told about — the decoupling the paper
emphasises.
"""

from __future__ import annotations

import fnmatch
import re
from types import MappingProxyType
from typing import Dict, Mapping, Optional


class MalformedObjectNameError(ValueError):
    """Raised for syntactically invalid object names."""


_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


class ObjectName:
    """A structured MBean name: ``domain:key=value,...``.

    Names are immutable: ``domain`` cannot be reassigned and ``properties``
    is a read-only mapping, so the canonical string and hash — built once
    here, since every ``MBeanServer`` lookup hashes and compares names —
    can never go stale.

    Parameters
    ----------
    name:
        Either a full canonical string, or just the domain when
        ``properties`` is given.
    properties:
        Key-property mapping used when ``name`` is only the domain.
    """

    __slots__ = ("_domain", "_properties", "_property_list_pattern", "_canonical", "_hash")

    def __init__(self, name: str, properties: Optional[Mapping[str, str]] = None) -> None:
        if properties is not None:
            self._init(name, {str(k): str(v) for k, v in properties.items()}, False)
            return

        if ":" not in name:
            raise MalformedObjectNameError(f"missing ':' separator in object name {name!r}")
        domain, _, prop_text = name.partition(":")
        parsed: Dict[str, str] = {}
        property_list_pattern = False

        prop_text = prop_text.strip()
        if not prop_text:
            raise MalformedObjectNameError(f"empty key-property list in {name!r}")

        parts = [p.strip() for p in prop_text.split(",")]
        for index, part in enumerate(parts):
            if part == "*":
                property_list_pattern = True
                if index != len(parts) - 1:
                    raise MalformedObjectNameError(
                        f"property-list wildcard '*' must be last in {name!r}"
                    )
                continue
            if "=" not in part:
                raise MalformedObjectNameError(f"invalid key property {part!r} in {name!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise MalformedObjectNameError(f"empty key or value in {part!r} of {name!r}")
            if key in parsed:
                raise MalformedObjectNameError(f"duplicate key {key!r} in {name!r}")
            parsed[key] = value
        self._init(domain, parsed, property_list_pattern)

    def _init(self, domain: str, properties: Dict[str, str], property_list_pattern: bool) -> None:
        """Validate the parts, then freeze them with their canonical form."""
        if not domain:
            raise MalformedObjectNameError("object name domain must be non-empty")
        if not properties and not property_list_pattern:
            raise MalformedObjectNameError(
                f"object name {domain!r} must have at least one key property"
            )
        for key in properties:
            if not _KEY_RE.match(key):
                raise MalformedObjectNameError(f"invalid property key {key!r}")
        self._domain = domain
        self._properties = MappingProxyType(properties)
        self._property_list_pattern = property_list_pattern
        props = ",".join(f"{k}={properties[k]}" for k in sorted(properties))
        if property_list_pattern:
            props = f"{props},*" if props else "*"
        self._canonical = f"{domain}:{props}"
        self._hash = hash(self._canonical)

    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> str:
        """The domain part (before the ``:``)."""
        return self._domain

    @property
    def properties(self) -> Mapping[str, str]:
        """Read-only key-property mapping."""
        return self._properties

    @property
    def canonical(self) -> str:
        """Canonical string form with keys sorted alphabetically."""
        return self._canonical

    @property
    def is_pattern(self) -> bool:
        """Whether this name contains any wildcard."""
        if self._property_list_pattern:
            return True
        if any(ch in self._domain for ch in "*?"):
            return True
        return any(any(ch in v for ch in "*?") for v in self._properties.values())

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Value of a key property (or ``default``)."""
        return self.properties.get(key, default)

    # ------------------------------------------------------------------ #
    def matches(self, other: "ObjectName") -> bool:
        """Whether this (pattern) name matches the concrete name ``other``.

        A non-pattern name matches only an equal name.
        """
        if not fnmatch.fnmatchcase(other.domain, self.domain):
            return False
        for key, value_pattern in self.properties.items():
            other_value = other.properties.get(key)
            if other_value is None:
                return False
            if not fnmatch.fnmatchcase(other_value, value_pattern):
                return False
        if not self._property_list_pattern:
            # Exact property sets must coincide.
            if set(self.properties) != set(other.properties):
                return False
        return True

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectName):
            return NotImplemented
        return self._hash == other._hash and self._canonical == other._canonical

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The read-only mapping does not pickle; rebuild from the parts.
        return (_rebuild, (self._domain, dict(self._properties), self._property_list_pattern))

    def __str__(self) -> str:
        return self._canonical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectName({self.canonical!r})"

    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, domain: str, **properties: str) -> "ObjectName":
        """Convenience constructor: ``ObjectName.of('repro.agents', type='memory')``."""
        return cls(domain, properties=properties)


def _rebuild(domain: str, properties: Dict[str, str], property_list_pattern: bool) -> ObjectName:
    """Unpickle an :class:`ObjectName` (see ``ObjectName.__reduce__``)."""
    name = ObjectName.__new__(ObjectName)
    name._init(domain, properties, property_list_pattern)
    return name


def to_object_name(name: "ObjectName | str") -> ObjectName:
    """Coerce a string or ObjectName into an ObjectName."""
    if isinstance(name, ObjectName):
        return name
    return ObjectName(name)
