"""Declared knobs: the one place a tunable is written down.

A :class:`Configurable` subclass (every registered scenario and flow
model) lists its knobs once, as a ``params`` tuple of :class:`Param`
schemas.  That tuple *is* the constructor signature, the defaults, the
registry schema sweeps and the CLI enumerate, and the ``repro list``
documentation — nothing else restates a knob.
"""

__all__ = ["Param", "Configurable", "with_defaults"]


class Param:
    """One declared knob: name, kind, default, and what it means.

    ``kind`` is one of ``"float"``, ``"int"``, ``"str"``, ``"bool"`` and
    drives :meth:`coerce` for spec-file / CLI values; ``default`` is the
    value :class:`Configurable` binds when the knob is omitted.
    """

    __slots__ = ("name", "kind", "default", "description")

    _KINDS = ("float", "int", "str", "bool")

    def __init__(self, name, kind, default=None, description=""):
        if kind not in self._KINDS:
            raise ValueError(
                f"param {name!r}: kind must be one of "
                f"{sorted(self._KINDS)}, got {kind!r}"
            )
        self.name = name
        self.kind = kind
        self.default = default
        self.description = description

    def coerce(self, value):
        """Coerce a spec-file / CLI value to this param's kind.

        Lossy conversions are rejected, not performed: a fractional
        number or a bool is not an ``int``, and NaN is not a ``float``
        (it would render into cell keys and compare unequal to itself).
        """
        if value is None:
            return None
        kind = self.kind
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError(f"param {self.name!r} expects a bool, got {value!r}")
        try:
            if kind == "str":
                return str(value)
            if kind == "float":
                result = float(value)
                if result == result:  # not NaN
                    return result
            elif not isinstance(value, bool) and (
                not isinstance(value, float) or value.is_integer()
            ):
                return int(value)
        except (TypeError, ValueError):
            pass
        raise ValueError(f"param {self.name!r} expects {kind}, got {value!r}")

    def as_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "description": self.description,
        }

    def __repr__(self):
        return f"Param({self.name!r}, {self.kind!r}, default={self.default!r})"


def with_defaults(params, **defaults):
    """``params`` with the named knobs' defaults replaced.

    For a subclass that inherits a knob but ships a different default:
    ``params = with_defaults(Parent.params, weight=0.5) + (...)``.
    """
    unknown = set(defaults) - {param.name for param in params}
    if unknown:
        raise KeyError(f"no such param(s) to override: {sorted(unknown)}")
    return tuple(
        Param(p.name, p.kind, defaults[p.name], p.description)
        if p.name in defaults
        else p
        for p in params
    )


class Configurable:
    """Base for objects configured purely by declared knobs.

    ``__init__`` binds every entry of :attr:`params` as a plain instance
    attribute (the passed value, else the declared default), rejects
    undeclared knobs with :class:`TypeError`, then calls
    :meth:`validate`.  Subclasses extend their parent's tuple
    (``params = Parent.params + (...)``) and never restate a knob.
    """

    #: The declared knobs, in display order.
    params = ()

    def __init__(self, **knobs):
        for param in self.params:
            setattr(self, param.name, knobs.pop(param.name, param.default))
        if knobs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected knob(s) "
                f"{sorted(knobs)}; declared: {[p.name for p in self.params]}"
            )
        self.validate()

    def validate(self):
        """Range-check the bound knobs; a subclass of a validating class
        calls ``super().validate()`` first."""
