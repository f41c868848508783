"""Spec v2: the uniform, serializable section protocol.

Every section of a declarative scenario — cluster, workload, latency,
monitoring, faults, transfers, and the :class:`~repro.experiments.spec.
ScenarioSpec` root itself — is a frozen dataclass inheriting
:class:`SpecSection`, which gives all of them the same five-method protocol:

* :meth:`SpecSection.to_dict` — recursive, JSON-serialisable plain-dict form
  (nested sections become dicts, tuples become lists);
* :meth:`SpecSection.from_dict` — the exact inverse, rejecting unknown keys
  so a typo in a spec file fails loudly instead of silently running the
  defaults;
* :meth:`SpecSection.flatten` — the section's sweepable parameters as one
  flat dotted-path dict (``cluster.n``, ``workload.keys.zipf_s``,
  ``monitoring.policy.threshold``), shared by the sweep engine, the registry
  and the CLI instead of per-section flattening plumbing;
* :meth:`SpecSection.validate` — recursive semantic validation (kind names,
  ranges, cross-field consistency) without building anything;
* ``build(...)`` — section-specific: construct the runtime objects the
  section describes (a latency model, a cluster, a failure schedule, a
  monitoring harness).

Because the protocol is uniform, composition is free: a section nests other
sections to arbitrary depth and serialization / flattening / validation
recurse without any section-specific code.  :func:`unflatten` is the inverse
of the dotted-path flattener on plain dicts, so a flat override map can be
turned back into the nested ``from_dict`` form.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, ClassVar, Dict, Mapping, Tuple, Type, TypeVar

from repro.errors import ConfigurationError

__all__ = ["SpecSection", "unflatten"]

S = TypeVar("S", bound="SpecSection")

# typing.get_type_hints walks the MRO and evaluates string annotations; cache
# per class so from_dict stays cheap in sweeps that parse many spec files.
_HINTS_CACHE: Dict[type, Dict[str, Any]] = {}


def _field_hints(cls: type) -> Dict[str, Any]:
    hints = _HINTS_CACHE.get(cls)
    if hints is None:
        hints = _HINTS_CACHE[cls] = typing.get_type_hints(cls)
    return hints


def _deep_tuple(value: Any) -> Any:
    """Lists arriving from JSON become the tuples the frozen specs store."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(item) for item in value)
    return value


def _jsonable(value: Any) -> Any:
    if isinstance(value, SpecSection):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _section_from(section: Type[S], value: Any, context: str) -> S:
    """Build a nested section from a dict (by name) or a sequence (positional)."""
    if isinstance(value, section):
        return value
    if isinstance(value, Mapping):
        return section.from_dict(value)
    if isinstance(value, (list, tuple)):
        try:
            return section(*(_deep_tuple(item) for item in value))
        except TypeError as error:
            raise ConfigurationError(
                f"{context}: cannot build {section.__name__} from {value!r}"
            ) from error
    raise ConfigurationError(
        f"{context}: expected a {section.__name__} mapping, got {value!r}"
    )


def _coerce(hint: Any, value: Any, context: str) -> Any:
    """Convert one JSON-shaped field value into its declared spec type."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        if value is None:
            return None
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        hint = args[0]
        origin = typing.get_origin(hint)
    if isinstance(hint, type) and issubclass(hint, SpecSection):
        return _section_from(hint, value, context)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{context}: expected a list, got {value!r}"
            )
        args = typing.get_args(hint)
        element = args[0] if len(args) == 2 and args[1] is Ellipsis else None
        if (
            isinstance(element, type)
            and issubclass(element, SpecSection)
        ):
            return tuple(
                _section_from(element, item, context) for item in value
            )
        return _deep_tuple(value)
    return _deep_tuple(value) if isinstance(value, list) else value


class SpecSection:
    """Mixin giving every (frozen dataclass) spec section one uniform protocol.

    Subclasses may declare:

    * ``_non_sweepable`` — field names excluded from :meth:`flatten` (e.g.
      the root spec's ``name``/``description``);
    * ``_validate()`` — per-section semantic checks, called by
      :meth:`validate` after the nested sections validated.
    """

    _non_sweepable: ClassVar[Tuple[str, ...]] = ()

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The section as a JSON-serialisable plain dict (recursive)."""
        return {
            field.name: _jsonable(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls: Type[S], data: Mapping[str, Any]) -> S:
        """The inverse of :meth:`to_dict`; unknown keys are rejected.

        Nested sections may be given as dicts (by field name) or sequences
        (positional — the CLI/JSON shorthand for transfers and phases);
        lists become tuples throughout.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} expects a mapping, got {data!r}"
            )
        field_names = {field.name for field in dataclasses.fields(cls)}
        hints = _field_hints(cls)
        kwargs: Dict[str, Any] = {}
        for key in data:
            if key not in field_names:
                raise ConfigurationError(
                    f"unknown key {key!r} for {cls.__name__} "
                    f"(known keys: {', '.join(sorted(field_names))})",
                    path=key,
                )
            kwargs[key] = _coerce(hints[key], data[key], f"{cls.__name__}.{key}")
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise ConfigurationError(
                f"cannot build {cls.__name__} from {dict(data)!r}: {error}"
            ) from error

    # -- sweepable parameters --------------------------------------------------
    def flatten(self, prefix: str = "") -> Dict[str, Any]:
        """The section's sweepable parameters as a flat dotted-path dict.

        Nested sections recurse to arbitrary depth; tuple-valued fields
        (transfers, phases, crashes) stay single leaves with their raw
        values, exactly addressable by one override.
        """
        flat: Dict[str, Any] = {}
        for field in dataclasses.fields(self):
            if field.name in self._non_sweepable:
                continue
            value = getattr(self, field.name)
            key = f"{prefix}{field.name}"
            if isinstance(value, SpecSection):
                flat.update(value.flatten(f"{key}."))
            else:
                flat[key] = value
        return flat

    # -- validation ------------------------------------------------------------
    def validate(self: S, path: str = "") -> S:
        """Check semantic constraints recursively; returns ``self`` for chaining.

        ``path`` is the dotted location of this section within the root spec
        (empty at the root).  A :class:`ConfigurationError` raised anywhere
        below gets the innermost section's path attached as its ``path``
        attribute — unless the raiser already supplied a more precise one —
        so callers can render dotted-path errors without parsing messages.
        """
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            child = f"{path}{field.name}"
            if isinstance(value, SpecSection):
                value.validate(path=f"{child}.")
            elif isinstance(value, tuple):
                for index, item in enumerate(value):
                    if isinstance(item, SpecSection):
                        item.validate(path=f"{child}[{index}].")
        try:
            self._validate()
        except ConfigurationError as error:
            if error.path is None:
                error.path = path.rstrip(".") or None
            raise
        return self

    def _validate(self) -> None:
        """Per-section checks; the default accepts everything."""

    # -- construction -----------------------------------------------------------
    def build(self, *args: Any, **kwargs: Any) -> Any:
        """Construct the runtime object(s) this section describes."""
        raise NotImplementedError(
            f"{type(self).__name__} does not build a runtime object"
        )


def unflatten(flat: Mapping[str, Any]) -> Dict[str, Any]:
    """Turn a dotted-path dict back into the nested ``from_dict`` shape.

    The inverse of :meth:`SpecSection.flatten` on plain dicts:
    ``{"cluster.n": 5, "seed": 1}`` becomes ``{"cluster": {"n": 5},
    "seed": 1}``.  A path that descends through a leaf of another path
    (``a`` and ``a.b`` together) is rejected.
    """
    nested: Dict[str, Any] = {}
    for key in sorted(flat):
        parts = key.split(".")
        node = nested
        for depth, part in enumerate(parts[:-1]):
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ConfigurationError(
                    f"path {key!r} descends into the leaf "
                    f"{'.'.join(parts[: depth + 1])!r}"
                )
            node = child
        leaf = parts[-1]
        if isinstance(node.get(leaf), dict) and node[leaf]:
            raise ConfigurationError(
                f"leaf {key!r} collides with nested keys under it"
            )
        node[leaf] = flat[key]
    return nested
