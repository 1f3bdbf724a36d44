"""The LOD-cloud workload synthesizer.

Generates pairs of knowledge bases describing an overlapping universe of
real-world entities, with the statistical properties the paper's
motivation section measures on the actual LOD cloud:

* **proprietary vocabularies** — each KB names its properties in its own
  namespace (58.24% of LOD vocabularies are used by exactly one KB), so
  schema-based methods have nothing to align on;
* **semantic/structural diversity** — per-type attribute schemas, partial
  attribute coverage, multi-valued properties;
* **skewed token frequencies** — attribute values mix entity-specific
  words with Zipf-distributed common words, producing the heavy-tailed
  block-size distribution block purging exists for;
* **similarity regimes** — a *center* profile emits highly similar
  description pairs (many common tokens), a *periphery* profile emits
  somehow similar pairs (few common tokens: aggressive attribute dropping
  and per-KB synonym substitution), reproducing the "highly vs somehow
  similar" dichotomy of the companion Big Data 2015 study;
* **relationship structure** — entities form small related groups
  ("entity graphs": e.g. a film, its director, its location) and each KB
  materializes intra-KB references among the descriptions of a group,
  giving the progressive update phase real neighbourhoods to propagate
  evidence along.

Everything is driven by a single integer seed: the same
:class:`SyntheticConfig` always produces byte-identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datasets.gold import GoldStandard
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.utils.rng import deterministic_rng

# ---------------------------------------------------------------------------
# Vocabulary generation
# ---------------------------------------------------------------------------

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def _make_word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
    )


def _make_vocabulary(rng: random.Random, size: int, syllables: tuple[int, int]) -> list[str]:
    """Generate *size* distinct pseudo-words."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = _make_word(rng, rng.randint(*syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_choice(rng: random.Random, items: list[str], exponent: float = 1.0) -> str:
    """Draw from *items* with a Zipf-like rank distribution."""
    # Inverse-CDF sampling over ranks: P(rank r) ∝ 1/r^exponent.
    u = rng.random()
    n = len(items)
    # Approximate via the continuous Pareto quantile, clamped to range.
    rank = int(n ** (u ** (1.0 / max(exponent, 1e-9)))) - 1
    return items[min(max(rank, 0), n - 1)]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationProfile:
    """How a KB's description of an entity distorts the canonical entity.

    The *center* profile keeps most evidence; the *periphery* profile
    destroys most of it, leaving "somehow similar" pairs that share only a
    couple of tokens.
    """

    #: probability an attribute of the canonical entity is described at all
    attribute_keep: float = 0.9
    #: probability each value token survives (vs being dropped)
    token_keep: float = 0.85
    #: probability a surviving token is replaced by a KB-local synonym
    synonym_rate: float = 0.05
    #: probability of appending a random noise token to a value
    noise_rate: float = 0.05
    #: probability the description URI carries the entity name tokens
    name_bearing_uri: float = 1.0
    #: probability each relationship of the entity is materialized in the KB
    relation_keep: float = 0.9

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range probabilities."""
        for name in (
            "attribute_keep",
            "token_keep",
            "synonym_rate",
            "noise_rate",
            "name_bearing_uri",
            "relation_keep",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


#: highly similar descriptions — the center of the LOD cloud
CENTER_PROFILE = PerturbationProfile(
    attribute_keep=0.92,
    token_keep=0.88,
    synonym_rate=0.04,
    noise_rate=0.05,
    name_bearing_uri=1.0,
    relation_keep=0.9,
)

#: somehow similar descriptions — the sparsely linked periphery
PERIPHERY_PROFILE = PerturbationProfile(
    attribute_keep=0.45,
    token_keep=0.55,
    synonym_rate=0.35,
    noise_rate=0.12,
    name_bearing_uri=0.7,
    relation_keep=0.75,
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of one synthetic clean-clean workload.

    Args:
        entities: size of the real-world entity universe.
        overlap: fraction of the universe described by **both** KBs; the
            rest is split between KB-exclusive entities (noise for ER).
        profile: perturbation profile applied to both KBs (the second KB
            can override it with *profile2*).
        profile2: optional distinct profile for KB2.
        seed: master seed; every draw derives from it.
        entity_types: number of entity types (each with its own schema).
        properties_per_type: attributes in each type's schema.
        name_words: range of words in an entity's name.
        value_words: range of common-vocabulary words per attribute value.
        group_size: range of entity-graph sizes (1 = no relationships).
        common_vocabulary: size of the shared Zipf-distributed vocabulary.
        name_vocabulary: size of the name-word vocabulary.
    """

    entities: int = 300
    overlap: float = 0.7
    profile: PerturbationProfile = CENTER_PROFILE
    profile2: PerturbationProfile | None = None
    seed: int = 42
    entity_types: int = 4
    properties_per_type: int = 6
    name_words: tuple[int, int] = (2, 3)
    value_words: tuple[int, int] = (1, 3)
    group_size: tuple[int, int] = (1, 4)
    common_vocabulary: int = 400
    name_vocabulary: int = 1500

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.entities < 1:
            raise ValueError("entities must be >= 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        if self.group_size[0] < 1 or self.group_size[1] < self.group_size[0]:
            raise ValueError("group_size must be a valid (lo, hi) range with lo >= 1")
        self.profile.validate()
        if self.profile2 is not None:
            self.profile2.validate()


# ---------------------------------------------------------------------------
# The canonical universe
# ---------------------------------------------------------------------------


@dataclass
class _RealEntity:
    """One real-world entity of the canonical universe."""

    entity_id: int
    entity_type: int
    name_tokens: list[str]
    #: property index → list of value tokens
    attributes: dict[int, list[str]]
    #: entity ids this entity is related to (directed, intra-group)
    relations: list[int] = field(default_factory=list)
    group_id: int = 0


def _build_universe(config: SyntheticConfig) -> tuple[list[_RealEntity], list[list[int]]]:
    """Generate the canonical entities and their grouping into entity graphs."""
    vocab_rng = deterministic_rng(config.seed, "vocabulary")
    common_vocab = _make_vocabulary(vocab_rng, config.common_vocabulary, (2, 3))
    name_vocab = _make_vocabulary(vocab_rng, config.name_vocabulary, (2, 4))

    entity_rng = deterministic_rng(config.seed, "entities")
    entities: list[_RealEntity] = []
    for entity_id in range(config.entities):
        entity_type = entity_rng.randrange(config.entity_types)
        name_len = entity_rng.randint(*config.name_words)
        name_tokens = [entity_rng.choice(name_vocab) for _ in range(name_len)]
        attributes: dict[int, list[str]] = {}
        for prop in range(config.properties_per_type):
            value_len = entity_rng.randint(*config.value_words)
            tokens = [
                _zipf_choice(entity_rng, common_vocab) for _ in range(value_len)
            ]
            # One attribute value embeds a name token, making values
            # entity-discriminative the way real labels/titles are.
            if prop == 0:
                tokens = list(name_tokens) + tokens
            attributes[prop] = tokens
        entities.append(
            _RealEntity(entity_id, entity_type, name_tokens, attributes)
        )

    # Partition the universe into entity graphs and wire star relations.
    group_rng = deterministic_rng(config.seed, "groups")
    groups: list[list[int]] = []
    cursor = 0
    while cursor < len(entities):
        size = group_rng.randint(*config.group_size)
        members = list(range(cursor, min(cursor + size, len(entities))))
        group_id = len(groups)
        hub = members[0]
        for member in members:
            entities[member].group_id = group_id
            if member != hub:
                entities[hub].relations.append(member)
                # Half the spokes point back, making some relations mutual.
                if group_rng.random() < 0.5:
                    entities[member].relations.append(hub)
        groups.append(members)
        cursor += size
    return entities, groups


# ---------------------------------------------------------------------------
# KB materialization
# ---------------------------------------------------------------------------


def _kb_property_names(
    config: SyntheticConfig, kb: str
) -> dict[tuple[int, int], str]:
    """Proprietary property URIs: (type, property index) → URI."""
    rng = deterministic_rng(config.seed, "properties", kb)
    names: dict[tuple[int, int], str] = {}
    for entity_type in range(config.entity_types):
        for prop in range(config.properties_per_type):
            local = _make_word(rng, 3)
            names[(entity_type, prop)] = (
                f"http://{kb}.example.org/ontology/{local}"
            )
    return names


def _kb_synonyms(config: SyntheticConfig, kb: str) -> dict[str, str]:
    """KB-local token rewrites (the 'different curation policy' effect)."""
    vocab_rng = deterministic_rng(config.seed, "vocabulary")
    common_vocab = _make_vocabulary(vocab_rng, config.common_vocabulary, (2, 3))
    rng = deterministic_rng(config.seed, "synonyms", kb)
    return {word: _make_word(rng, 3) for word in common_vocab}


def _materialize(
    entity: _RealEntity,
    kb: str,
    uri_by_entity: dict[int, str],
    property_names: dict[tuple[int, int], str],
    synonyms: dict[str, str],
    profile: PerturbationProfile,
    rng: random.Random,
    relation_property: str,
) -> EntityDescription:
    """One KB's description of *entity* (URI pre-assigned in uri_by_entity)."""
    description = EntityDescription(uri_by_entity[entity.entity_id], source=kb)
    for prop, tokens in sorted(entity.attributes.items()):
        if rng.random() > profile.attribute_keep and prop != 0:
            continue  # property 0 (the label) is always described
        surviving: list[str] = []
        for token in tokens:
            if rng.random() > profile.token_keep:
                continue
            if rng.random() < profile.synonym_rate:
                token = synonyms.get(token, token)
            surviving.append(token)
        if not surviving:
            surviving = [tokens[0]]  # a value never vanishes entirely
        if rng.random() < profile.noise_rate:
            surviving.append(_make_word(rng, 2))
        description.add(
            property_names[(entity.entity_type, prop)], " ".join(surviving)
        )
    for target in entity.relations:
        if target in uri_by_entity and rng.random() <= profile.relation_keep:
            description.add(relation_property, uri_by_entity[target])
    return description


def _assign_uris(
    entities: list[_RealEntity],
    members: list[int],
    kb: str,
    profile: PerturbationProfile,
    rng: random.Random,
) -> dict[int, str]:
    uris: dict[int, str] = {}
    for entity_id in members:
        entity = entities[entity_id]
        if rng.random() <= profile.name_bearing_uri:
            infix = "_".join(entity.name_tokens) + f"_{entity_id}"
        else:
            infix = f"node{entity_id}x{rng.randrange(10_000)}"
        uris[entity_id] = f"http://{kb}.example.org/resource/{infix}"
    return uris


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclass
class SyntheticDataset:
    """A generated clean-clean workload.

    Attributes:
        kb1, kb2: the two entity collections.
        gold: ground truth (matches + clusters + entity graphs).
        config: the generating configuration.
        entity_of: URI → canonical entity id (for analysis).
        shared_entities: ids described by both KBs.
    """

    kb1: EntityCollection
    kb2: EntityCollection
    gold: GoldStandard
    config: SyntheticConfig
    entity_of: dict[str, int]
    shared_entities: list[int]


def synthesize_pair(config: SyntheticConfig) -> SyntheticDataset:
    """Generate a clean-clean ER workload from *config*.

    Raises:
        ValueError: on invalid configuration.
    """
    config.validate()
    entities, groups = _build_universe(config)

    split_rng = deterministic_rng(config.seed, "split")
    ids = list(range(len(entities)))
    split_rng.shuffle(ids)
    shared_count = round(config.overlap * len(ids))
    shared = sorted(ids[:shared_count])
    exclusive = ids[shared_count:]
    # Exclusive entities alternate between the KBs.
    only1 = sorted(exclusive[0::2])
    only2 = sorted(exclusive[1::2])

    profile1 = config.profile
    profile2 = config.profile2 or config.profile

    properties1 = _kb_property_names(config, "kb1")
    properties2 = _kb_property_names(config, "kb2")
    synonyms1: dict[str, str] = {}  # KB1 keeps canonical tokens
    synonyms2 = _kb_synonyms(config, "kb2")
    relation_prop1 = "http://kb1.example.org/ontology/relatedTo"
    relation_prop2 = "http://kb2.example.org/ontology/linksTo"

    rng1 = deterministic_rng(config.seed, "materialize", "kb1")
    rng2 = deterministic_rng(config.seed, "materialize", "kb2")
    members1 = sorted(shared + only1)
    members2 = sorted(shared + only2)
    uris1 = _assign_uris(entities, members1, "kb1", profile1, rng1)
    uris2 = _assign_uris(entities, members2, "kb2", profile2, rng2)

    kb1 = EntityCollection(name="kb1")
    for entity_id in members1:
        kb1.add(
            _materialize(
                entities[entity_id], "kb1", uris1, properties1, synonyms1,
                profile1, rng1, relation_prop1,
            )
        )
    kb2 = EntityCollection(name="kb2")
    for entity_id in members2:
        kb2.add(
            _materialize(
                entities[entity_id], "kb2", uris2, properties2, synonyms2,
                profile2, rng2, relation_prop2,
            )
        )

    clusters: list[frozenset[str]] = []
    cluster_of_entity: dict[int, int] = {}
    for entity_id in shared:
        cluster_of_entity[entity_id] = len(clusters)
        clusters.append(frozenset((uris1[entity_id], uris2[entity_id])))
    entity_graphs: list[frozenset[int]] = []
    for members in groups:
        cluster_ids = frozenset(
            cluster_of_entity[m] for m in members if m in cluster_of_entity
        )
        if cluster_ids:
            entity_graphs.append(cluster_ids)

    gold = GoldStandard(clusters=clusters, entity_graphs=entity_graphs)
    entity_of: dict[str, int] = {}
    for entity_id, uri in uris1.items():
        entity_of[uri] = entity_id
    for entity_id, uri in uris2.items():
        entity_of[uri] = entity_id
    return SyntheticDataset(
        kb1=kb1,
        kb2=kb2,
        gold=gold,
        config=config,
        entity_of=entity_of,
        shared_entities=shared,
    )


def synthesize_dirty(
    config: SyntheticConfig,
    max_duplicates: int = 3,
) -> tuple[EntityCollection, GoldStandard]:
    """Generate a dirty-ER workload: one collection with duplicate clusters.

    Each universe entity receives 1..*max_duplicates* descriptions (drawn
    uniformly), all perturbed with ``config.profile``.

    Returns:
        ``(collection, gold)`` where gold clusters group the duplicate
        descriptions of each entity.
    """
    config.validate()
    if max_duplicates < 1:
        raise ValueError("max_duplicates must be >= 1")
    entities, groups = _build_universe(config)
    profile = config.profile
    properties = _kb_property_names(config, "kb1")
    relation_prop = "http://kb1.example.org/ontology/relatedTo"
    rng = deterministic_rng(config.seed, "dirty")

    collection = EntityCollection(name="dirty")
    clusters: list[frozenset[str]] = []
    cluster_of_entity: dict[int, int] = {}
    # Pre-assign one primary URI per entity so relations can point to it.
    primary_uris = _assign_uris(entities, list(range(len(entities))), "kb1", profile, rng)

    for entity in entities:
        copies = rng.randint(1, max_duplicates)
        copy_uris: list[str] = []
        for copy in range(copies):
            uri_map = dict(primary_uris)
            if copy > 0:
                uri_map[entity.entity_id] = (
                    f"{primary_uris[entity.entity_id]}_v{copy}"
                )
            description = _materialize(
                entity, "kb1", uri_map, properties, {}, profile, rng, relation_prop
            )
            collection.add(description)
            copy_uris.append(description.uri)
        if len(copy_uris) > 1:
            cluster_of_entity[entity.entity_id] = len(clusters)
            clusters.append(frozenset(copy_uris))

    entity_graphs = []
    for members in groups:
        cluster_ids = frozenset(
            cluster_of_entity[m] for m in members if m in cluster_of_entity
        )
        if cluster_ids:
            entity_graphs.append(cluster_ids)
    gold = GoldStandard(clusters=clusters, entity_graphs=entity_graphs)
    return collection, gold
