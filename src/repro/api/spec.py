"""Declarative pipeline specification.

A :class:`PipelineSpec` is the serializable description of one end-to-end
entity-resolution run: blocking → post-processing → weighting → pruning →
matching → evaluation, plus a ``backend`` node selecting *how* the plan
executes (``sequential`` | ``mapreduce`` | ``stream``).  Any scheme ×
pruner × blocker × backend combination is one plain object that

* **validates eagerly** — every component name is resolved against the
  :mod:`~repro.api.registry` at construction, every parameter checked
  against the component's introspected signature, so a typo fails at
  spec-build time, not mid-run;
* **round-trips exactly** — ``spec == PipelineSpec.from_dict(spec.to_dict())``
  and the same through JSON;
* **hashes stably** — :meth:`PipelineSpec.cache_key` digests the
  canonical JSON form, giving sweeps and caches a stable identity.

The same spec runs on every backend with bit-identical pruned edges and
match decisions (gated in ``tests/api/``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.api.registry import InvalidParamsError, registry


class SpecError(ValueError):
    """An eagerly-detected problem in a pipeline spec."""


def _freeze(value):
    """Canonicalize a params value for hashing/equality (dicts sorted)."""
    if isinstance(value, dict):
        return {key: _freeze(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_freeze(item) for item in value]
    return value


@dataclass(frozen=True)
class ComponentSpec:
    """One component reference: registered name + constructor params."""

    name: str
    params: dict = field(default_factory=dict)

    def validated(self, kind: str) -> "ComponentSpec":
        """Resolve against the registry; returns a canonicalized copy.

        Raises:
            SpecError: unknown name (listing registered alternatives) or
                parameters outside the component's signature.
        """
        try:
            info = registry.get(kind, self.name)
        except KeyError as exc:
            raise SpecError(str(exc.args[0])) from None
        params = _freeze(self.params or {})
        allowed = {p.name for p in info.spec_params()}
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise SpecError(
                f"{kind} {info.name!r} got unknown parameter(s) "
                f"{', '.join(map(repr, unknown))}; allowed: "
                f"{', '.join(sorted(allowed)) or '(none)'}"
            )
        try:
            info.validate_params(params)
        except InvalidParamsError as exc:
            raise SpecError(str(exc)) from None
        return ComponentSpec(info.name, params)

    def build(self, kind: str, **runtime):
        """Instantiate via the registry, merging runtime-only params."""
        merged = dict(self.params)
        merged.update(runtime)
        return registry.create(kind, self.name, merged)

    def to_dict(self) -> dict:
        """Plain-dict form (name-only components collapse to a string)."""
        if not self.params:
            return {"name": self.name}
        return {"name": self.name, "params": _freeze(self.params)}

    @classmethod
    def from_value(cls, value, default: "ComponentSpec | None" = None):
        """Coerce a string / dict / ComponentSpec / None into a spec."""
        if value is None:
            return default
        if isinstance(value, ComponentSpec):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, dict):
            try:
                name = value["name"]
            except KeyError:
                raise SpecError(
                    f"component dict needs a 'name' key, got {sorted(value)!r}"
                ) from None
            extra = set(value) - {"name", "params"}
            if extra:
                raise SpecError(
                    f"component dict has unknown key(s) {sorted(extra)!r}"
                )
            return cls(name, dict(value.get("params") or {}))
        raise SpecError(f"cannot interpret {value!r} as a component spec")


@dataclass(frozen=True)
class BlockingSpec:
    """The blocking stage: key extraction plus block post-processing."""

    blocker: ComponentSpec = field(default_factory=lambda: ComponentSpec("token"))
    #: block purging, or ``None`` to skip the stage
    purging: ComponentSpec | None = field(
        default_factory=lambda: ComponentSpec("purging")
    )
    #: block filtering, or ``None`` to skip the stage
    filtering: ComponentSpec | None = field(
        default_factory=lambda: ComponentSpec("filtering")
    )

    def validated(self) -> "BlockingSpec":
        return BlockingSpec(
            blocker=self.blocker.validated("blocker"),
            purging=(
                self.purging.validated("postprocess")
                if self.purging is not None
                else None
            ),
            filtering=(
                self.filtering.validated("postprocess")
                if self.filtering is not None
                else None
            ),
        )

    def to_dict(self) -> dict:
        return {
            "blocker": self.blocker.to_dict(),
            "purging": self.purging.to_dict() if self.purging else None,
            "filtering": self.filtering.to_dict() if self.filtering else None,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "BlockingSpec":
        data = data or {}
        extra = set(data) - {"blocker", "purging", "filtering"}
        if extra:
            raise SpecError(f"blocking node has unknown key(s) {sorted(extra)!r}")
        return cls(
            blocker=ComponentSpec.from_value(
                data.get("blocker"), ComponentSpec("token")
            ),
            purging=ComponentSpec.from_value(
                data.get("purging"),
                ComponentSpec("purging") if "purging" not in data else None,
            ),
            filtering=ComponentSpec.from_value(
                data.get("filtering"),
                ComponentSpec("filtering") if "filtering" not in data else None,
            ),
        )


@dataclass(frozen=True)
class MatchingSpec:
    """The progressive matching stage (matcher + budget policy)."""

    matcher: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("threshold", {"threshold": 0.4})
    )
    #: total comparison budget; ``None`` = unlimited
    budget: int | None = None
    #: budget policy (benefit model) steering the scheduler
    benefit: ComponentSpec = field(default_factory=lambda: ComponentSpec("quantity"))
    #: neighbour-evidence propagation (the MinoanER update phase)
    update_phase: bool = True
    boost_factor: float = 1.0
    discovery_weight: float = 0.5
    evidence_weight: float = 0.3
    checkpoint_every: int = 10

    def validated(self) -> "MatchingSpec":
        if not isinstance(self.update_phase, bool):
            raise SpecError(
                f"matching.update_phase must be true or false, "
                f"got {self.update_phase!r}"
            )
        counts = [] if self.budget is None else [("budget", self.budget, 0)]
        counts.append(("checkpoint_every", self.checkpoint_every, 1))
        for name, value, low in counts:
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise SpecError(
                    f"matching.{name} must be an integer >= {low}, got {value!r}"
                )
        for name in ("boost_factor", "discovery_weight", "evidence_weight"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
                or value < 0
            ):
                raise SpecError(
                    f"matching.{name} must be a finite number >= 0, got {value!r}"
                )
        return dataclasses.replace(
            self,
            matcher=self.matcher.validated("matcher"),
            benefit=self.benefit.validated("benefit"),
        )

    def to_dict(self) -> dict:
        return {
            "matcher": self.matcher.to_dict(),
            "budget": self.budget,
            "benefit": self.benefit.to_dict(),
            "update_phase": self.update_phase,
            "boost_factor": self.boost_factor,
            "discovery_weight": self.discovery_weight,
            "evidence_weight": self.evidence_weight,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "MatchingSpec":
        data = dict(data or {})
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise SpecError(f"matching node has unknown key(s) {sorted(extra)!r}")
        kwargs = {}
        if "matcher" in data:
            kwargs["matcher"] = ComponentSpec.from_value(data["matcher"])
        if "benefit" in data:
            kwargs["benefit"] = ComponentSpec.from_value(data["benefit"])
        for name in known - {"matcher", "benefit"}:
            if name in data:
                kwargs[name] = data[name]
        return cls(**kwargs)


@dataclass(frozen=True)
class EvaluationSpec:
    """What to evaluate when a gold standard is supplied."""

    #: evaluate blocking PC/PQ/RR against the gold standard
    blocks: bool = True
    #: evaluate final match precision/recall/F1 against the gold standard
    matches: bool = True

    def validated(self) -> "EvaluationSpec":
        return self

    def to_dict(self) -> dict:
        return {"blocks": self.blocks, "matches": self.matches}

    @classmethod
    def from_dict(cls, data: dict | None) -> "EvaluationSpec":
        data = dict(data or {})
        extra = set(data) - {"blocks", "matches"}
        if extra:
            raise SpecError(f"evaluation node has unknown key(s) {sorted(extra)!r}")
        return cls(**data)


BACKEND_KINDS = ("sequential", "mapreduce", "stream", "sql")
MAPREDUCE_EXECUTORS = ("serial", "process")
SQL_ENGINES = ("sqlite", "duckdb")


@dataclass(frozen=True)
class BackendSpec:
    """How the plan executes.

    ``sequential`` runs the in-process batch pipeline; ``mapreduce``
    produces the pruned edges through the parallel int-ID MapReduce
    jobs on *workers* workers; ``stream`` replays a workload *scenario*
    through the streaming resolver and takes the edges from the batch
    bridge; ``sql`` compiles purging, filtering, weighting and pruning
    to SQL on *engine* (stdlib sqlite, or DuckDB when installed),
    optionally out of core via *db_path*.  All four produce
    bit-identical pruned edges and match decisions for the same spec.
    """

    kind: str = "sequential"
    # -- mapreduce ----------------------------------------------------------
    workers: int = 2
    executor: str = "serial"
    # -- stream -------------------------------------------------------------
    scenario: ComponentSpec = field(default_factory=lambda: ComponentSpec("uniform"))
    processed_view: bool = False
    #: reconcile cadence in inserts (``None`` = adaptive)
    reconcile_every: int | None = None
    seed: int = 17
    #: per-query comparison cap during scenario replay (``None`` = all)
    query_budget: int | None = None
    #: query-time local pruner override: a registered pruner name or
    #: ``"none"``; ``None`` derives it from the spec's pruning node
    query_pruner: str | None = None
    #: write-ahead log + snapshot directory (``None`` = in-memory only);
    #: with a directory set, the stream backend is crash-recoverable
    durability_dir: str | None = None
    #: snapshot cadence in WAL records (``None`` = WAL only, no snapshots)
    snapshot_every: int | None = None
    # -- sql ----------------------------------------------------------------
    #: relational engine for the ``sql`` backend
    engine: str = "sqlite"
    #: database file for the ``sql`` backend (``None`` = in-memory);
    #: pointing this at disk moves the whole computation out of core
    db_path: str | None = None

    def validated(self) -> "BackendSpec":
        if self.kind not in BACKEND_KINDS:
            raise SpecError(
                f"unknown backend kind {self.kind!r}; "
                f"choose from {', '.join(BACKEND_KINDS)}"
            )
        if self.workers < 1:
            raise SpecError(f"backend.workers must be >= 1, got {self.workers}")
        if self.executor not in MAPREDUCE_EXECUTORS:
            raise SpecError(
                f"unknown mapreduce executor {self.executor!r}; "
                f"choose from {', '.join(MAPREDUCE_EXECUTORS)}"
            )
        if self.engine not in SQL_ENGINES:
            raise SpecError(
                f"unknown sql engine {self.engine!r}; "
                f"choose from {', '.join(SQL_ENGINES)}"
            )
        if self.reconcile_every is not None and self.reconcile_every < 1:
            raise SpecError(
                f"backend.reconcile_every must be >= 1, got {self.reconcile_every}"
            )
        if self.query_budget is not None and self.query_budget < 0:
            raise SpecError(
                f"backend.query_budget must be >= 0, got {self.query_budget}"
            )
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise SpecError(
                f"backend.snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.snapshot_every is not None and self.durability_dir is None:
            raise SpecError(
                "backend.snapshot_every needs backend.durability_dir "
                "(snapshots are written there)"
            )
        if (
            self.query_pruner is not None
            and self.query_pruner.lower() != "none"
            and not registry.has("pruner", self.query_pruner)
        ):
            registered = ", ".join(registry.names("pruner"))
            raise SpecError(
                f"unknown backend.query_pruner {self.query_pruner!r}; "
                f"choose 'none' or one of: {registered}"
            )
        return dataclasses.replace(
            self, scenario=self.scenario.validated("scenario")
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "executor": self.executor,
            "scenario": self.scenario.to_dict(),
            "processed_view": self.processed_view,
            "reconcile_every": self.reconcile_every,
            "seed": self.seed,
            "query_budget": self.query_budget,
            "query_pruner": self.query_pruner,
            "durability_dir": self.durability_dir,
            "snapshot_every": self.snapshot_every,
            "engine": self.engine,
            "db_path": self.db_path,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "BackendSpec":
        if isinstance(data, str):
            data = {"kind": data}
        data = dict(data or {})
        # Legacy key, still written by bench/workloads.py: the only value
        # that ever meant today's behaviour is accepted and dropped.
        if data.pop("formulation", "int") != "int":
            raise SpecError(
                "backend.formulation was removed: the int-ID jobs are the "
                "only MapReduce formulation"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise SpecError(f"backend node has unknown key(s) {sorted(extra)!r}")
        if "scenario" in data:
            data["scenario"] = ComponentSpec.from_value(data["scenario"])
        return cls(**data)


@dataclass(frozen=True)
class DataSpec:
    """Where the input collections come from.

    Either a packaged *sample* corpus name (registry kind ``corpus``) or
    explicit file paths.  Optional — ``Pipeline.run`` also accepts
    collections directly.
    """

    sample: str | None = None
    kb1: str | None = None
    kb2: str | None = None
    gold: str | None = None

    def validated(self) -> "DataSpec":
        if self.sample is not None and self.kb1 is not None:
            raise SpecError("data node: give either 'sample' or 'kb1', not both")
        if self.sample is not None and not registry.has("corpus", self.sample):
            registered = ", ".join(registry.names("corpus"))
            raise SpecError(
                f"unknown sample corpus {self.sample!r}; registered: {registered}"
            )
        return self

    def resolve(self):
        """Load ``(kb1, kb2, gold)``; all ``None`` when the node is empty."""
        if self.sample is not None:
            return registry.create("corpus", self.sample)
        if self.kb1 is None:
            return None, None, None
        from repro.datasets.gold import load_gold_csv
        from repro.rdf.loader import load_collection

        kb1 = load_collection(self.kb1)
        kb2 = load_collection(self.kb2) if self.kb2 else None
        gold = load_gold_csv(self.gold) if self.gold else None
        return kb1, kb2, gold

    def to_dict(self) -> dict:
        return {
            "sample": self.sample,
            "kb1": self.kb1,
            "kb2": self.kb2,
            "gold": self.gold,
        }

    @classmethod
    def from_dict(cls, data) -> "DataSpec":
        if isinstance(data, str):
            data = {"sample": data}
        data = dict(data or {})
        extra = set(data) - {"sample", "kb1", "kb2", "gold"}
        if extra:
            raise SpecError(f"data node has unknown key(s) {sorted(extra)!r}")
        return cls(**data)


@dataclass(frozen=True)
class PipelineSpec:
    """One declarative, serializable entity-resolution pipeline.

    Validates eagerly at construction (see :class:`SpecError`),
    round-trips exactly through :meth:`to_dict` / :meth:`from_dict` and
    JSON, and hashes to a stable :meth:`cache_key`.  Run it with
    :class:`~repro.api.runner.Pipeline`.
    """

    blocking: BlockingSpec = field(default_factory=BlockingSpec)
    weighting: ComponentSpec = field(default_factory=lambda: ComponentSpec("ARCS"))
    pruning: ComponentSpec = field(default_factory=lambda: ComponentSpec("CNP"))
    matching: MatchingSpec = field(default_factory=MatchingSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    data: DataSpec | None = None

    def __post_init__(self) -> None:
        # Eager validation: canonicalized nodes are written back through
        # object.__setattr__ (frozen dataclass), so equal specs compare
        # and hash equal regardless of input spelling (case, shorthand).
        object.__setattr__(self, "blocking", self.blocking.validated())
        object.__setattr__(self, "weighting", self.weighting.validated("weighting"))
        object.__setattr__(self, "pruning", self.pruning.validated("pruner"))
        object.__setattr__(self, "matching", self.matching.validated())
        object.__setattr__(self, "evaluation", self.evaluation.validated())
        object.__setattr__(self, "backend", self.backend.validated())
        if self.data is not None:
            object.__setattr__(self, "data", self.data.validated())

    # -- construction convenience -------------------------------------------

    def with_backend(self, **changes) -> "PipelineSpec":
        """Copy with backend fields replaced (validated again)."""
        if "scenario" in changes:
            changes["scenario"] = ComponentSpec.from_value(changes["scenario"])
        return dataclasses.replace(
            self, backend=dataclasses.replace(self.backend, **changes)
        )

    def with_matching(self, **changes) -> "PipelineSpec":
        """Copy with matching fields replaced (validated again)."""
        for key in ("matcher", "benefit"):
            if key in changes:
                changes[key] = ComponentSpec.from_value(changes[key])
        return dataclasses.replace(
            self, matching=dataclasses.replace(self.matching, **changes)
        )

    def with_components(
        self,
        weighting=None,
        pruning=None,
        blocker=None,
    ) -> "PipelineSpec":
        """Copy with the named components swapped (validated again)."""
        spec = self
        if weighting is not None:
            spec = dataclasses.replace(
                spec, weighting=ComponentSpec.from_value(weighting)
            )
        if pruning is not None:
            spec = dataclasses.replace(spec, pruning=ComponentSpec.from_value(pruning))
        if blocker is not None:
            spec = dataclasses.replace(
                spec,
                blocking=dataclasses.replace(
                    spec.blocking, blocker=ComponentSpec.from_value(blocker)
                ),
            )
        return spec

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Nested plain-dict form (JSON-ready)."""
        return {
            "blocking": self.blocking.to_dict(),
            "weighting": self.weighting.to_dict(),
            "pruning": self.pruning.to_dict(),
            "matching": self.matching.to_dict(),
            "evaluation": self.evaluation.to_dict(),
            "backend": self.backend.to_dict(),
            "data": self.data.to_dict() if self.data is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        """Rebuild from :meth:`to_dict` output (shorthands accepted)."""
        data = dict(data or {})
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise SpecError(
                f"pipeline spec has unknown key(s) {sorted(extra)!r}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs = {}
        if "blocking" in data:
            kwargs["blocking"] = BlockingSpec.from_dict(data["blocking"])
        if "weighting" in data:
            kwargs["weighting"] = ComponentSpec.from_value(data["weighting"])
        if "pruning" in data:
            kwargs["pruning"] = ComponentSpec.from_value(data["pruning"])
        if "matching" in data:
            kwargs["matching"] = MatchingSpec.from_dict(data["matching"])
        if "evaluation" in data:
            kwargs["evaluation"] = EvaluationSpec.from_dict(data["evaluation"])
        if "backend" in data:
            kwargs["backend"] = BackendSpec.from_dict(data["backend"])
        if data.get("data") is not None:
            kwargs["data"] = DataSpec.from_dict(data["data"])
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form; ``from_json`` round-trips it exactly."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "PipelineSpec":
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        """Write the spec as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def cache_key(self) -> str:
        """Stable hex digest of the canonical JSON form."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
