"""The dict form shared by every registered spec kind.

Attack specs (:mod:`repro.attack.scenario`) and fault specs
(:mod:`repro.faults.campaign`) are frozen dataclasses whose dict form is
part of the result-cache key: campaigns of them ride inside
:meth:`repro.core.config.ExperimentConfig.canonical_json`. That form is
defined once, here, so a new kind only declares its fields and validates
them in ``__post_init__``:

* :meth:`KindSpec.to_dict` emits ``{"kind": ...}`` plus every
  ``compare=True`` dataclass field, omitting fields that are ``None``.
  Tuples become lists, nested specs serialize through their own
  ``to_dict``, and every other value is cast to its declared annotation,
  so ``rate=40`` serializes as ``40.0``.
* :meth:`KindSpec.from_dict` checks the mapping, the ``kind``, unknown
  keys and missing required fields, then calls the constructor: defaults
  come from the dataclass fields and validation from ``__post_init__``.

Errors are raised as the subclass's :attr:`KindSpec.error` type
(``AttackError``, ``FaultError``).
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, ClassVar, Dict, Mapping, Tuple, Type, TypeVar

from repro.errors import ReproError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.registry import Registry

__all__ = ["KindSpec", "parse_campaign", "spec_from_entry"]

_Spec = TypeVar("_Spec", bound="KindSpec")


class KindSpec:
    """Mixin giving a frozen spec dataclass its canonical dict form."""

    #: registry name of this spec kind (e.g. ``"flood"``).
    kind: ClassVar[str] = ""
    #: error type raised for a malformed dict form.
    error: ClassVar[Type[Exception]] = ReproError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form including the ``"kind"`` discriminator."""
        out: Dict[str, Any] = {"kind": self.kind}
        for name, hint in _serialized_fields(type(self)):
            value = getattr(self, name)
            if value is not None:
                out[name] = _plain(value, hint)
        return out

    @classmethod
    def from_dict(cls: Type[_Spec], data: Mapping[str, Any]) -> _Spec:
        """Validate and rebuild a spec from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise cls.error(
                f"{cls.__name__} must be a mapping, got {type(data).__name__}")
        rest = dict(data)
        kind = rest.pop("kind", cls.kind)
        if kind != cls.kind:
            raise cls.error(f"{cls.__name__} cannot parse kind {kind!r}")
        fields = [f for f in dataclasses.fields(cls) if f.compare]
        unknown = set(rest) - {f.name for f in fields}
        if unknown:
            raise cls.error(f"{cls.kind} has unknown keys {sorted(unknown)}")
        for f in fields:
            if (f.name not in rest and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise cls.error(f"{cls.kind} is missing key {f.name!r}")
        return cls(**rest)


@functools.lru_cache(maxsize=None)
def _serialized_fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, resolved annotation)`` of each ``compare=True`` field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls)
                 if f.compare)


def _plain(value: Any, hint: Any) -> Any:
    """``value`` as JSON-ready builtins, cast to its annotation ``hint``."""
    if isinstance(value, KindSpec):
        return value.to_dict()
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        return _plain(value, next(a for a in args if a is not type(None)))
    if typing.get_origin(hint) is tuple:
        return [_plain(item, args[0]) for item in value]
    return hint(value)


def spec_from_entry(entry: Any, registry: "Registry",
                    error: Type[Exception]) -> Any:
    """Deserialize one spec dict, dispatching its kind through ``registry``.

    An unregistered kind raises :class:`repro.errors.UnknownNameError`
    from :meth:`repro.registry.Registry.create`.
    """
    if not isinstance(entry, Mapping) or "kind" not in entry:
        raise error(
            f"each {registry.kind} entry needs a 'kind' key, got {entry!r}")
    return registry.create(entry["kind"], entry)


def parse_campaign(owner: str, data: Any, registry: "Registry",
                   error: Type[Exception]) -> Tuple[Any, ...]:
    """The specs of a campaign dict ``{"specs": [...]}``, in order."""
    if not isinstance(data, Mapping):
        raise error(f"{owner} must be a mapping, got {type(data).__name__}")
    unknown = set(data) - {"specs"}
    if unknown:
        raise error(f"{owner} has unknown keys {sorted(unknown)}")
    entries = data.get("specs")
    if not isinstance(entries, (list, tuple)):
        raise error(f"{owner}.specs must be a list, got {entries!r}")
    return tuple(spec_from_entry(entry, registry, error) for entry in entries)
