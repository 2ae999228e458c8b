"""Unified name registries for systems, scenarios and flow models.

One :class:`Registry` instance per kind maps names to *builders* —
callables returning the experiment ingredient (a node-factory builder, a
:class:`~repro.scenarios.base.Scenario`, a topology).  Every
consumer (figures, the ``python -m repro run``/``list`` CLI, benchmarks,
tests) resolves through these instead of private dicts, so registering a
new system or scenario makes it runnable everywhere at once — including
the full baseline x scenario matrix.

Lookup is forgiving: exact name first, then declared aliases, then a
normalized form that ignores case, ``-`` and ``_`` (so ``bulletprime``
finds ``bullet_prime``).  Registries populate lazily by importing the
module that registers into them, which keeps this module import-cycle
free.
"""

import importlib

from repro.common.params import Param

__all__ = [
    "Param",
    "Registry",
    "RegistryEntry",
    "SYSTEMS",
    "SCENARIOS",
    "FLOW_MODELS",
]


def _normalize(name):
    return name.lower().replace("-", "").replace("_", "")


class RegistryEntry:
    """One registered name: the builder plus display metadata.

    ``params`` is the builder's own ``params`` tuple (see
    :class:`repro.common.params.Configurable`) — the registry reads the
    knob schema off the builder, it never holds a second copy.  A builder
    without one (every flow model) has no knobs: ``params`` is empty.
    """

    __slots__ = ("name", "builder", "description", "aliases", "params")

    def __init__(self, name, builder, description="", aliases=()):
        self.name = name
        self.builder = builder
        self.description = description
        self.aliases = tuple(aliases)
        self.params = getattr(builder, "params", ())
        seen = set()
        for param in self.params:
            if param.name in seen:
                raise ValueError(
                    f"{name!r} declares param {param.name!r} twice"
                )
            seen.add(param.name)

    def build(self, **kwargs):
        return self.builder(**kwargs)

    def param(self, key):
        """The declared :class:`Param` named ``key``, or raise KeyError."""
        for param in self.params:
            if param.name == key:
                return param
        raise KeyError(
            f"{self.name!r} has no param {key!r}; declared: "
            f"{[p.name for p in self.params]}"
        )

    def coerce_params(self, mapping):
        """Validate + coerce ``{knob: value}`` against the declared schema."""
        return {key: self.param(key).coerce(value) for key, value in mapping.items()}

    def __repr__(self):
        return f"RegistryEntry({self.name!r})"


class Registry:
    """An ordered name -> :class:`RegistryEntry` mapping with aliases.

    ``populate`` names a module imported on first access; that module
    registers its entries at import time (systems register themselves in
    :mod:`repro.harness.systems`, scenarios in :mod:`repro.scenarios`).
    The topology families' registry is filled where it is defined, in
    :mod:`repro.harness.sweep`.
    """

    def __init__(self, kind, populate=None):
        self.kind = kind
        self._populate = populate
        self._populated = populate is None
        self._entries = {}
        self._lookup = {}

    def _ensure_populated(self):
        if not self._populated:
            # Set the flag first: the populating module may itself read
            # the registry at import time.
            self._populated = True
            importlib.import_module(self._populate)

    def register(self, name, builder, *, description="", aliases=()):
        """Register ``builder`` under ``name`` (plus ``aliases``).

        Registration is all-or-nothing: a duplicate name, or an alias
        that collides with any already-registered name or alias (after
        normalization), raises :class:`ValueError` and leaves the
        registry untouched — nothing is ever silently overwritten.
        """
        if name in self._entries:
            raise ValueError(
                f"duplicate {self.kind} name {name!r} (already registered; "
                f"names are never overwritten)"
            )
        entry = RegistryEntry(name, builder, description, aliases)
        # Validate every key before committing any of them, so a failed
        # registration cannot leave a half-visible entry behind.
        staged = {}
        for key in (name, *aliases):
            normalized = _normalize(key)
            other = self._lookup.get(normalized)
            if other is not None and other != name:
                raise ValueError(
                    f"{self.kind} alias {key!r} collides with the existing "
                    f"{self.kind} {other!r}"
                )
            staged[normalized] = name
        self._entries[name] = entry
        self._lookup.update(staged)
        return entry

    def get(self, name):
        """Resolve ``name`` (exact, alias, or normalized) to its entry."""
        self._ensure_populated()
        entry = self._entries.get(name)
        if entry is None:
            canonical = self._lookup.get(_normalize(name))
            if canonical is not None:
                entry = self._entries[canonical]
        if entry is None:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return entry

    def build(self, name, **kwargs):
        """Build the named object: ``get(name).builder(**kwargs)``."""
        return self.get(name).build(**kwargs)

    def __getitem__(self, name):
        """The named builder: ``registry[name](...)`` builds."""
        return self.get(name).builder

    def names(self):
        self._ensure_populated()
        return sorted(self._entries)

    def items(self):
        self._ensure_populated()
        return list(self._entries.items())

    def __contains__(self, name):
        try:
            self.get(name)
            return True
        except KeyError:
            return False

    def __iter__(self):
        self._ensure_populated()
        return iter(self._entries)

    def __len__(self):
        self._ensure_populated()
        return len(self._entries)

    def describe(self):
        """Display metadata for CLI listings: one dict per entry with
        ``name``, ``description``, ``aliases``, and ``params`` (the
        declared :class:`Param` schemas as plain dicts)."""
        self._ensure_populated()
        return [
            {
                "name": entry.name,
                "description": entry.description,
                "aliases": list(entry.aliases),
                "params": [p.as_dict() for p in entry.params],
            }
            for entry in self._entries.values()
        ]

    def __repr__(self):
        return f"Registry({self.kind!r}, n={len(self._entries)})"


#: Dissemination systems (``repro.harness.systems``).
SYSTEMS = Registry("system", populate="repro.harness.systems")

#: Dynamic-network scenarios (``repro.scenarios``).
SCENARIOS = Registry("scenario", populate="repro.scenarios")

#: Underlay flow models (``repro.sim.flow_models``): the rate-control
#: law each TCP flow obeys — ``reno`` (Mathis cap, the default),
#: ``bbr``, ``autorate``.
FLOW_MODELS = Registry("flow model", populate="repro.sim.flow_models")
