"""Embedded sample corpora.

Three hand-curated clean-clean corpora ship with the package as N-Triples
plus gold CSVs:

* **restaurants** — the classic ER demonstration domain: two directories
  describing overlapping sets of restaurants with different schemas,
  abbreviation conventions (``Street``/``St``) and coverage; 14 gold
  matches, a few single-KB venues as noise.
* **movies** — films *and* their directors across a DBpedia-like KB
  (name-bearing URIs, rich attributes) and a Freebase-like KB (opaque
  ``/m/…`` ids, sparse labels, several abbreviated titles).  Films
  reference their directors inside each KB, so the corpus exercises the
  progressive update phase: a director match is evidence for the films
  that cite them — including films whose abbreviated titles token
  blocking alone scores poorly.
* **people** — researchers and their institutions; see :func:`load_people`.
"""

from __future__ import annotations

import os

from repro.datasets.gold import GoldStandard, load_gold_csv
from repro.model.collection import EntityCollection
from repro.rdf.loader import load_collection

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def sample_path(filename: str) -> str:
    """Absolute path of a shipped data file.

    Raises:
        FileNotFoundError: if the file is not part of the package data.
    """
    path = os.path.join(_DATA_DIR, filename)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no packaged sample file {filename!r}")
    return path


def load_restaurants() -> tuple[EntityCollection, EntityCollection, GoldStandard]:
    """The restaurants corpus: ``(kb_a, kb_b, gold)``."""
    kb_a = load_collection(sample_path("restaurants_a.nt"), name="restaurants-a")
    kb_b = load_collection(sample_path("restaurants_b.nt"), name="restaurants-b")
    gold = load_gold_csv(sample_path("restaurants_gold.csv"))
    return kb_a, kb_b, gold


def load_movies() -> tuple[EntityCollection, EntityCollection, GoldStandard]:
    """The movies corpus (films + directors): ``(kb_a, kb_b, gold)``."""
    kb_a = load_collection(sample_path("movies_a.nt"), name="movies-a")
    kb_b = load_collection(sample_path("movies_b.nt"), name="movies-b")
    gold = load_gold_csv(sample_path("movies_gold.csv"))
    return kb_a, kb_b, gold


def load_people() -> tuple[EntityCollection, EntityCollection, GoldStandard]:
    """The people corpus (researchers + institutions): ``(kb_a, kb_b, gold)``.

    People reference their institutions inside each KB (``affiliation`` /
    ``memberOf``), several names are abbreviated on one side
    ("E. Marchetti"), and each side has one researcher with no counterpart.
    """
    kb_a = load_collection(sample_path("people_a.nt"), name="people-a")
    kb_b = load_collection(sample_path("people_b.nt"), name="people-b")
    gold = load_gold_csv(sample_path("people_gold.csv"))
    return kb_a, kb_b, gold
