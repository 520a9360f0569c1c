"""Join points: the interceptable points in program execution.

Only *method execution* join points are modelled (the only kind the paper
uses: "before and after the application component execution").  A
:class:`JoinPoint` carries the reflective information advices receive in
AspectJ (``thisJoinPoint``): the target object, the signature, the call
arguments and — once execution finished — the return value or exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass
class Signature:
    """A method signature ``<declaring_type>.<method_name>``.

    ``declaring_type`` uses the Java-style fully qualified name the target
    exposes (see :func:`declaring_type_of`), so pointcuts written against the
    paper's TPC-W class names match our Python servlet objects.
    """

    declaring_type: str
    method_name: str

    @property
    def full_name(self) -> str:
        """``declaring_type.method_name``."""
        return f"{self.declaring_type}.{self.method_name}"

    def __str__(self) -> str:
        return self.full_name


def declaring_type_of(target: Any) -> str:
    """The fully qualified type name pointcuts are matched against.

    Targets may expose an explicit ``java_class_name`` attribute (the TPC-W
    servlets do, so that pointcuts can be written with the original Java
    names); otherwise ``module.ClassName`` of the Python class is used.
    """
    explicit = getattr(target, "java_class_name", None)
    if isinstance(explicit, str) and explicit:
        return explicit
    cls = target if isinstance(target, type) else type(target)
    return f"{cls.__module__}.{cls.__qualname__}"


class JoinPoint:
    """A method-execution join point.

    One join point is allocated per intercepted call that at least one
    enabled advice observes, so construction is kept deliberately cheap:
    every field that is constant (or almost always default) lives as a class
    attribute, the ``context`` scratch dict is materialised lazily, and the
    weaver can specialise a subclass per woven method whose per-target
    constants are class attributes too (see :func:`compile_join_point_class`)
    so the hot path only stores the per-call fields.

    Attributes
    ----------
    kind:
        Always ``"method-execution"`` in this model.
    target:
        The object whose method is executing.
    signature:
        The matched signature.
    args, kwargs:
        The call arguments.
    component:
        Logical component name used for attribution (usually the servlet
        name); filled in by the weaver from the target's ``component_name``
        attribute when present.
    timestamp:
        Simulated time at which the execution started (filled by callers
        that have access to the clock; 0.0 otherwise).
    result, exception:
        Populated after the underlying method returns or raises.
    context:
        Scratch space where advices can stash per-execution data (each Aspect
        Component stores its "before" resource snapshot here, keyed by
        itself).
    """

    # Class-level defaults: a weave-time-compiled subclass overrides the
    # per-target ones, and instances only store what actually varies.
    kind: str = "method-execution"
    target: Any = None
    signature: Optional[Signature] = None
    args: Tuple[Any, ...] = ()
    component: str = ""
    timestamp: float = 0.0
    result: Any = None
    exception: Optional[BaseException] = None
    _context: Optional[Dict[Any, Any]] = None

    def __init__(
        self,
        kind: str,
        target: Any,
        signature: Signature,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        component: str = "",
        timestamp: float = 0.0,
        result: Any = None,
        exception: Optional[BaseException] = None,
        context: Optional[Dict[Any, Any]] = None,
    ) -> None:
        self.kind = kind
        self.target = target
        self.signature = signature
        self.args = args
        self.kwargs = kwargs if kwargs is not None else {}
        self.component = component
        self.timestamp = timestamp
        self.result = result
        self.exception = exception
        if context is not None:
            self._context = context

    @property
    def context(self) -> Dict[Any, Any]:
        """Per-execution scratch space, created on first access."""
        ctx = self._context
        if ctx is None:
            ctx = self._context = {}
        return ctx

    @property
    def full_name(self) -> str:
        """The signature's fully qualified name."""
        return self.signature.full_name

    def __repr__(self) -> str:
        return (
            f"JoinPoint(kind={self.kind!r}, signature={self.signature.full_name!r}, "
            f"component={self.component!r})"
        )

    def __str__(self) -> str:
        return f"{self.kind}({self.signature.full_name})"


def compile_join_point_class(
    target: Any, signature: Signature, component: str
) -> type:
    """Specialise a :class:`JoinPoint` subclass for one woven method.

    The returned class carries the per-target constants as class attributes;
    the weaver's fast dispatch path then builds join points with
    ``cls.__new__(cls)`` plus stores for only the per-call fields
    (``args``, ``kwargs`` and — when a clock is present — ``timestamp``).
    """

    class CompiledJoinPoint(JoinPoint):
        pass

    CompiledJoinPoint.target = target
    CompiledJoinPoint.signature = signature
    CompiledJoinPoint.component = component
    CompiledJoinPoint.__qualname__ = f"CompiledJoinPoint[{signature.full_name}]"
    return CompiledJoinPoint
