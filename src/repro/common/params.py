"""Declared knobs: the one place a tunable is written down.

A :class:`Configurable` subclass (every registered scenario) lists its
knobs once, as a ``params`` tuple of :class:`Param`
schemas.  That tuple *is* the constructor signature, the defaults, the
legal values, the registry schema sweeps and the CLI enumerate, and the
``repro list`` documentation — nothing else restates a knob, and a
``Param``'s domain is the only range check a knob gets.
"""

import re

__all__ = ["Param", "Configurable", "with_defaults"]

_INTERVAL = re.compile(r"([\[(])(\S+), (\S+)([\])])")


class Param:
    """One declared knob: name, kind, default, meaning, legal values.

    ``kind`` is one of ``"float"``, ``"int"``, ``"str"``, ``"bool"`` and
    drives :meth:`coerce` for spec-file / CLI values; ``default`` is the
    value :class:`Configurable` binds when the knob is omitted.

    ``domain`` is the knob's legal values: for ``float``/``int`` an
    interval in bracket notation (``"(0, 1]"``, ``"[0, inf)"``), for
    ``str`` the tuple of allowed values; ``None`` allows any value of
    the kind.  ``nullable`` says whether ``None`` is legal — by default
    exactly when the declared default is ``None``.  :meth:`check`
    enforces both, wherever a value enters.
    """

    __slots__ = (
        "name",
        "kind",
        "default",
        "description",
        "domain",
        "nullable",
        "_interval",
    )

    _KINDS = ("float", "int", "str", "bool")

    def __init__(
        self, name, kind, default=None, description="", domain=None, nullable=None
    ):
        if kind not in self._KINDS:
            raise ValueError(
                f"param {name!r}: kind must be one of "
                f"{sorted(self._KINDS)}, got {kind!r}"
            )
        self.name = name
        self.kind = kind
        self.default = default
        self.description = description
        self.domain = domain
        self.nullable = default is None if nullable is None else nullable
        #: ``(low, low_closed, high, high_closed)`` of a numeric domain.
        self._interval = None
        if domain is not None and kind in ("float", "int"):
            match = _INTERVAL.fullmatch(domain)
            if match is None:
                raise ValueError(
                    f"param {name!r}: domain must be an interval like "
                    f"'(0, 1]' or '[0, inf)', got {domain!r}"
                )
            left, low, high, right = match.groups()
            self._interval = (float(low), left == "[", float(high), right == "]")
        self.check(default)

    def check(self, value):
        """``value`` if it lies in this knob's domain, else ValueError.

        A range check only — the value is not converted, so programmatic
        callers may pass ``20`` for a float knob or a scenario object
        where spec files pass its name.
        """
        if value is None:
            legal = self.nullable
        elif self._interval is not None:
            low, low_closed, high, high_closed = self._interval
            try:
                legal = (
                    low < value < high
                    or (low_closed and value == low)
                    or (high_closed and value == high)
                )
            except TypeError:
                legal = False
        else:
            legal = self.domain is None or value in self.domain
        if legal:
            return value
        if self.domain is None:
            expected = f"a {self.kind}"
        elif self._interval is None:
            expected = f"one of {list(self.domain)}"
        else:
            expected = f"in {self.domain}"
        if self.nullable:
            expected += " or None"
        raise ValueError(f"param {self.name!r} must be {expected}, got {value!r}")

    def coerce(self, value):
        """Coerce a spec-file / CLI value to this param's kind, then
        :meth:`check` it against the domain.

        Lossy conversions are rejected, not performed: a fractional
        number or a bool is not an ``int``, and NaN is not a ``float``
        (it would render into cell keys and compare unequal to itself).
        """
        if value is None:
            return self.check(None)
        kind = self.kind
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError(f"param {self.name!r} expects a bool, got {value!r}")
        result = None
        try:
            if kind == "str":
                result = str(value)
            elif kind == "float":
                result = float(value)
                if result != result:  # NaN
                    result = None
            elif not isinstance(value, bool) and (
                not isinstance(value, float) or value.is_integer()
            ):
                result = int(value)
        except (TypeError, ValueError):
            pass
        if result is None:
            raise ValueError(f"param {self.name!r} expects {kind}, got {value!r}")
        return self.check(result)

    def as_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "description": self.description,
            "domain": self.domain,
            "nullable": self.nullable,
        }

    def __repr__(self):
        return f"Param({self.name!r}, {self.kind!r}, default={self.default!r})"


def with_defaults(params, **defaults):
    """``params`` with the named knobs' defaults replaced.

    For a subclass that inherits a knob but ships a different default:
    ``params = with_defaults(Parent.params, weight=0.5) + (...)``.  The
    domain carries over; ``nullable`` does when the parent stated it,
    and follows the new default when it followed the old one.
    """
    unknown = set(defaults) - {param.name for param in params}
    if unknown:
        raise KeyError(f"no such param(s) to override: {sorted(unknown)}")
    return tuple(
        Param(
            p.name,
            p.kind,
            defaults[p.name],
            p.description,
            p.domain,
            None if p.default is None else p.nullable,
        )
        if p.name in defaults
        else p
        for p in params
    )


class Configurable:
    """Base for objects configured purely by declared knobs.

    ``__init__`` binds every entry of :attr:`params` as a plain instance
    attribute (the passed value, else the declared default) after
    :meth:`Param.check` has held it to the knob's domain, rejects
    undeclared knobs with :class:`TypeError`, then calls
    :meth:`validate`.  Subclasses extend their parent's tuple
    (``params = Parent.params + (...)``) and never restate a knob.
    """

    #: The declared knobs, in display order.
    params = ()

    def __init__(self, **knobs):
        for param in self.params:
            value = knobs.pop(param.name, param.default)
            setattr(self, param.name, param.check(value))
        if knobs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected knob(s) "
                f"{sorted(knobs)}; declared: {[p.name for p in self.params]}"
            )
        self.validate()

    def validate(self):
        """What a single knob's domain cannot say: a constraint between
        two knobs, or a name that must resolve.  A subclass of a
        validating class calls ``super().validate()`` first."""
