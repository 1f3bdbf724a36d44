"""The component registry: stable names for every pluggable piece.

One table maps ``(kind, name)`` to a factory with an introspected,
typed parameter signature.  The CLI, the benchmarks, the streaming
resolver's batch bridge and :class:`~repro.api.spec.PipelineSpec`
validation all resolve components here: it is the one name → component
lookup.

Kinds registered by default:

==============  ============================================================
``blocker``     blocking methods (``token``, ``attribute-clustering``, …)
``postprocess`` block post-processing operators (purging / filtering)
``weighting``   meta-blocking edge-weighting schemes (``ARCS``, ``CBS``, …)
``pruner``      meta-blocking pruning algorithms (``CNP``, ``WEP``, …)
``matcher``     pairwise match deciders (``threshold``, ``oracle``)
``benefit``     budget policies steering progressive scheduling
``scenario``    streaming workload shapes (``uniform``, ``bursty``, …)
``corpus``      packaged sample corpora (``movies``, ``restaurants``, …)
==============  ============================================================

Third-party components self-register with the :func:`register`
decorator::

    from repro.api import register

    @register("weighting", name="MYSCHEME")
    class MyScheme(WeightingScheme):
        ...

Lookups are case-insensitive, so the historical spellings (``ARCS``
upper-case, benefit names lower-case) both resolve.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field


class UnknownComponentError(KeyError):
    """Lookup of a name that is not registered for its kind."""


class InvalidParamsError(ValueError):
    """Parameters that do not fit the component's signature."""


#: sentinel for parameters without a default (required at create time)
REQUIRED = object()


@dataclass(frozen=True)
class ParamInfo:
    """One introspected constructor parameter."""

    name: str
    annotation: str = ""
    default: object = REQUIRED

    @property
    def required(self) -> bool:
        """Whether the parameter must be supplied at create time."""
        return self.default is REQUIRED


@dataclass(frozen=True)
class ComponentInfo:
    """One registered component: its factory plus introspected metadata."""

    kind: str
    name: str
    factory: object
    params: tuple[ParamInfo, ...] = ()
    summary: str = ""
    #: construction-time parameters injected by the runner (similarity
    #: index, gold standard, …) — excluded from spec-level validation
    runtime_params: frozenset[str] = field(default_factory=frozenset)

    def param(self, name: str) -> ParamInfo | None:
        """The parameter named *name*, or ``None``."""
        for info in self.params:
            if info.name == name:
                return info
        return None

    def spec_params(self) -> tuple[ParamInfo, ...]:
        """Parameters a spec may set (runtime-injected ones excluded)."""
        return tuple(p for p in self.params if p.name not in self.runtime_params)

    def validate_params(self, params: dict) -> None:
        """Check *params* against the introspected signature.

        Raises:
            InvalidParamsError: for unknown names or missing required
                parameters (runtime-injected parameters excepted).
        """
        known = {p.name for p in self.params}
        unknown = sorted(set(params) - known)
        if unknown:
            allowed = sorted(p.name for p in self.spec_params())
            raise InvalidParamsError(
                f"{self.kind} {self.name!r} got unknown parameter(s) "
                f"{', '.join(map(repr, unknown))}; allowed: "
                f"{', '.join(allowed) if allowed else '(none)'}"
            )
        missing = [
            p.name
            for p in self.params
            if p.required and p.name not in params and p.name not in self.runtime_params
        ]
        if missing:
            raise InvalidParamsError(
                f"{self.kind} {self.name!r} missing required parameter(s) "
                f"{', '.join(map(repr, missing))}"
            )


def _introspect(factory) -> tuple[ParamInfo, ...]:
    """Introspect a factory's keyword surface as :class:`ParamInfo` rows."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return ()
    params = []
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.name == "self":
            continue
        annotation = (
            ""
            if parameter.annotation is inspect.Parameter.empty
            else str(parameter.annotation)
        )
        default = (
            REQUIRED
            if parameter.default is inspect.Parameter.empty
            else parameter.default
        )
        params.append(ParamInfo(parameter.name, annotation, default))
    return tuple(params)


class Registry:
    """Case-insensitive ``(kind, name) -> ComponentInfo`` table."""

    def __init__(self) -> None:
        self._components: dict[tuple[str, str], ComponentInfo] = {}
        #: canonical display names per (kind, lowercase name)
        self._display: dict[tuple[str, str], str] = {}

    # -- registration --------------------------------------------------------

    def register(
        self,
        kind: str,
        name: str | None = None,
        factory=None,
        summary: str | None = None,
        runtime_params: tuple[str, ...] = (),
    ):
        """Register *factory* under ``(kind, name)``.

        Usable directly (``registry.register("pruner", "CNP", CNP)``) or
        as a decorator (``@registry.register("pruner", "CNP")``).

        Args:
            kind: component category (``"weighting"``, ``"pruner"``, …).
            name: stable public name; defaults to the factory's ``name``
                attribute, falling back to ``__name__``.
            factory: class or callable producing the component.
            summary: one-line description; defaults to the first line of
                the factory's docstring.
            runtime_params: parameter names injected by the runner at
                build time, hidden from spec-level validation.

        Returns:
            The factory (so the call composes as a decorator).

        Raises:
            ValueError: when the name is already taken for this kind.
        """
        if factory is None:
            return lambda actual: self.register(
                kind, name, actual, summary, runtime_params
            )
        resolved = name or getattr(factory, "name", None) or factory.__name__
        key = (kind, resolved.lower())
        if key in self._components:
            raise ValueError(f"{kind} {resolved!r} is already registered")
        doc = summary
        if doc is None:
            doc = (inspect.getdoc(factory) or "").strip().split("\n")[0]
        self._components[key] = ComponentInfo(
            kind=kind,
            name=resolved,
            factory=factory,
            params=_introspect(factory),
            summary=doc,
            runtime_params=frozenset(runtime_params),
        )
        self._display[key] = resolved
        return factory

    # -- lookup --------------------------------------------------------------

    def kinds(self) -> list[str]:
        """All registered kinds, sorted."""
        return sorted({kind for kind, _ in self._components})

    def names(self, kind: str) -> list[str]:
        """Registered display names for *kind*, sorted."""
        return sorted(
            info.name for (k, _), info in self._components.items() if k == kind
        )

    def has(self, kind: str, name: str) -> bool:
        """Whether ``(kind, name)`` is registered (case-insensitive)."""
        return (kind, name.lower()) in self._components

    def get(self, kind: str, name: str) -> ComponentInfo:
        """The :class:`ComponentInfo` for ``(kind, name)``.

        Raises:
            UnknownComponentError: naming the registered alternatives.
        """
        info = self._components.get((kind, name.lower()))
        if info is None:
            registered = ", ".join(self.names(kind)) or "(none)"
            raise UnknownComponentError(
                f"unknown {kind} {name!r}; registered: {registered}"
            )
        return info

    def factory(self, kind: str, name: str):
        """The raw factory for ``(kind, name)`` (see :meth:`get`)."""
        return self.get(kind, name).factory

    def create(self, kind: str, name: str, params: dict | None = None):
        """Instantiate ``(kind, name)`` with validated *params*.

        Raises:
            UnknownComponentError: for unregistered names.
            InvalidParamsError: for parameters outside the signature.
        """
        info = self.get(kind, name)
        params = dict(params or {})
        info.validate_params(params)
        return info.factory(**params)

    def describe(self, kind: str | None = None) -> list[dict[str, str]]:
        """Report-ready rows (kind, name, parameters, summary)."""
        rows = []
        for registered_kind in self.kinds():
            if kind is not None and registered_kind != kind:
                continue
            for name in self.names(registered_kind):
                info = self.get(registered_kind, name)
                shown = []
                for param in info.spec_params():
                    if param.required:
                        shown.append(f"{param.name} (required)")
                    else:
                        shown.append(f"{param.name}={param.default!r}")
                rows.append(
                    {
                        "kind": registered_kind,
                        "name": name,
                        "parameters": ", ".join(shown) or "-",
                        "summary": info.summary,
                    }
                )
        return rows


#: the process-wide registry every facade consumer resolves against
registry = Registry()


def register(kind: str, name: str | None = None, **kwargs):
    """Module-level alias of :meth:`Registry.register` on the default
    :data:`registry` (decorator-friendly)."""
    return registry.register(kind, name, **kwargs)


# -- built-in components -----------------------------------------------------


def _bootstrap() -> None:
    """Register every built-in component under its stable name.

    Import-light on purpose: pulled in once at ``repro.api`` import; the
    modules referenced here never import ``repro.api`` back.
    """
    from repro.blocking import (
        AttributeClusteringBlocking,
        BlockFiltering,
        BlockPurging,
        PrefixInfixSuffixBlocking,
        QGramsBlocking,
        TokenBlocking,
    )
    from repro.core.benefit import BENEFITS
    from repro.datasets.samples import load_movies, load_people, load_restaurants
    from repro.matching.matcher import OracleMatcher, ThresholdMatcher
    from repro.core.evidence_matcher import NeighborAwareMatcher
    from repro.metablocking.pruning import PRUNERS
    from repro.metablocking.weighting import SCHEMES
    from repro.stream.workload import SCENARIOS

    registry.register("blocker", "token", TokenBlocking)
    registry.register("blocker", "attribute-clustering", AttributeClusteringBlocking)
    registry.register("blocker", "prefix-infix-suffix", PrefixInfixSuffixBlocking)
    registry.register("blocker", "qgrams", QGramsBlocking)

    registry.register("postprocess", "purging", BlockPurging)
    registry.register("postprocess", "filtering", BlockFiltering)

    for name, scheme in SCHEMES.items():
        registry.register("weighting", name, scheme)
    for name, pruner in PRUNERS.items():
        registry.register("pruner", name, pruner)
    for name, benefit in BENEFITS.items():
        registry.register("benefit", name, benefit)

    registry.register(
        "matcher", "threshold", ThresholdMatcher, runtime_params=("index",)
    )
    registry.register(
        "matcher", "neighbor-aware", NeighborAwareMatcher, runtime_params=("base",)
    )
    registry.register("matcher", "oracle", OracleMatcher, runtime_params=("gold",))

    for name, generator in SCENARIOS.items():
        registry.register(
            "scenario", name, generator, runtime_params=("kb1", "kb2", "seed")
        )

    registry.register("corpus", "movies", load_movies)
    registry.register("corpus", "restaurants", load_restaurants)
    registry.register("corpus", "people", load_people)


_bootstrap()
