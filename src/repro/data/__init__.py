"""The truth-finding data model (paper Section 2).

The input of the truth-finding problem is a *raw database* of
``(entity, attribute, source)`` triples (Definition 1).  From it the library
derives:

* the **fact table** — distinct ``(entity, attribute)`` pairs with dense
  integer ids (Definition 2);
* the **claim table** — for every fact, a positive claim from each source
  that asserted it and a negative claim from each source that asserted the
  same entity but not this fact (Definition 3);
* the **truth table** — one Boolean truth label per fact, the object of
  inference (Definition 4).

The central runtime object is :class:`~repro.data.dataset.ClaimMatrix`, a
flat numpy encoding of the claim table grouped by fact, which every solver in
:mod:`repro.core` and :mod:`repro.baselines` consumes.
"""

from repro.data.records import Fact, SourceRecord
from repro.data.raw import RawDatabase
from repro.data.claim_builder import ClaimTableBuilder, build_claim_matrix
from repro.data.dataset import ClaimMatrix, TruthDataset
from repro.data.loaders import (
    load_triples_csv,
    save_triples_csv,
    load_dataset_json,
    save_dataset_json,
    load_labels_csv,
    save_labels_csv,
)

__all__ = [
    "Fact",
    "SourceRecord",
    "RawDatabase",
    "ClaimTableBuilder",
    "build_claim_matrix",
    "ClaimMatrix",
    "TruthDataset",
    "load_triples_csv",
    "save_triples_csv",
    "load_dataset_json",
    "save_dataset_json",
    "load_labels_csv",
    "save_labels_csv",
]
