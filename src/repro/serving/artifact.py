"""Versioned, portable on-disk snapshots of a fitted engine.

A :class:`TruthArtifact` is the serving-side counterpart of a fitted
:class:`~repro.engine.TruthEngine`: everything the closed-form LTMinc
deployment of paper Section 5.4 needs to score traffic — the engine
configuration (method key, hyperparameters, RNG seed), the learned
:class:`~repro.core.base.SourceQualityTable`, the per-fact truth posteriors
and the entity / attribute / source index maps — written as a
self-describing directory::

    artifact/
      manifest.json   # schema version, library version, config, sizes
      arrays.npz      # fact_entity, fact_attribute, fact_score,
                      # source_names, sensitivity, specificity, precision,
                      # accuracy (quality arrays only when learned)

Design constraints, in order:

* **Round-trip fidelity** — ``TruthEngine.load(save(engine))`` must be
  score-identical to the saved engine (pinned per catalog dataset by the
  test suite).
* **Determinism** — two fits with the same seed produce *byte-identical*
  artifact payloads, so artifacts can be content-addressed and diffed.  The
  manifest is canonical JSON (sorted keys) and the ``.npz`` member is
  written through a fixed-timestamp zip writer instead of
  :func:`numpy.savez` (which stamps members with the current time).
* **Forward compatibility** — the manifest carries ``schema_version``;
  :func:`register_migration` installs upgrade hooks so old artifacts keep
  loading, and a library-version mismatch warns
  (:class:`~repro.exceptions.ArtifactVersionWarning`) instead of crashing.

:class:`~repro.serving.service.TruthService` consumes artifacts for
query serving; :meth:`~repro.engine.TruthEngine.save` /
:meth:`~repro.engine.TruthEngine.load` / to_artifact are the engine-side
entry points.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.base import SourceQualityTable
from repro.core.priors import BetaPrior, LTMPriors
from repro.engine.config import EngineConfig
from repro.exceptions import ArtifactError, ArtifactVersionWarning
from repro.obs import get_tracer

__all__ = [
    "SCHEMA_VERSION",
    "TruthArtifact",
    "register_migration",
    "load_artifact",
]

#: Current artifact schema version.  Bump when the manifest layout or the
#: array set changes, and register a migration for the old version.
SCHEMA_VERSION = 3

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: Fixed zip member timestamp (the zip epoch) so payloads are byte-stable.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

#: Registered manifest upgraders: ``schema_version -> hook`` where the hook
#: maps a manifest dict at that version to the next version's layout.
_MIGRATIONS: dict[int, Callable[[dict], dict]] = {}


def register_migration(
    from_version: int, hook: Callable[[dict], dict], replace: bool = False
) -> None:
    """Install ``hook`` to upgrade manifests written at ``from_version``.

    Hooks are applied in sequence at load time until the manifest reaches
    :data:`SCHEMA_VERSION`; each hook receives the manifest dict and must
    return the dict upgraded by exactly one version (bumping its
    ``schema_version`` field itself).
    """
    if from_version >= SCHEMA_VERSION:
        raise ArtifactError(
            f"cannot register a migration from schema version {from_version}: "
            f"current version is {SCHEMA_VERSION}"
        )
    if not replace and from_version in _MIGRATIONS:
        raise ArtifactError(
            f"a migration from schema version {from_version} is already registered"
        )
    _MIGRATIONS[from_version] = hook


def _drop_kernel_param(manifest: dict) -> dict:
    """Schema 1 -> 2: the Gibbs sampler no longer takes a ``kernel`` parameter.

    Version-1 artifacts exported with a kernel choice store it in
    ``config.params``; the sampler now has a single sweep, so the entry is
    dropped and the artifact loads, serves and refits unchanged.
    """
    config = manifest.get("config")
    params = config.get("params") if isinstance(config, dict) else None
    if isinstance(params, dict):
        params.pop("kernel", None)
    manifest["schema_version"] = 2
    return manifest


register_migration(1, _drop_kernel_param)


def _drop_threads_backend(manifest: dict) -> dict:
    """Schema 2 -> 3: the removed ``threads`` backend loads as ``serial``.

    Both gave identical scores; ``threads`` only ran slower.
    """
    config = manifest.get("config")
    execution = config.get("execution") if isinstance(config, dict) else None
    if isinstance(execution, dict) and execution.get("backend") == "threads":
        execution["backend"] = "serial"
    manifest["schema_version"] = 3
    return manifest


register_migration(2, _drop_threads_backend)


def _migrate(manifest: dict) -> dict:
    """Upgrade ``manifest`` to :data:`SCHEMA_VERSION` through registered hooks."""
    version = manifest.get("schema_version")
    if not isinstance(version, int):
        raise ArtifactError("artifact manifest has no integer 'schema_version'")
    while version < SCHEMA_VERSION:
        hook = _MIGRATIONS.get(version)
        if hook is None:
            raise ArtifactError(
                f"artifact schema version {version} is older than "
                f"{SCHEMA_VERSION} and no migration is registered for it"
            )
        manifest = hook(dict(manifest))
        new_version = manifest.get("schema_version")
        if not isinstance(new_version, int) or new_version <= version:
            raise ArtifactError(
                f"migration from schema version {version} did not advance the "
                f"manifest (got {new_version!r})"
            )
        version = new_version
    if version > SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact schema version {version} is newer than this library's "
            f"{SCHEMA_VERSION}; upgrade repro to read it"
        )
    return manifest


# ---------------------------------------------------------------------------
# Config parameter (de)serialisation
# ---------------------------------------------------------------------------
# EngineConfig.params may hold rich objects (LTMPriors, SourceQualityTable);
# they are encoded with explicit type tags so artifacts stay plain JSON.
def _encode_param(value: Any) -> Any:
    if isinstance(value, BetaPrior):
        return {"__type__": "BetaPrior", "positive": value.positive, "negative": value.negative}
    if isinstance(value, LTMPriors):
        return {
            "__type__": "LTMPriors",
            "false_positive": _encode_param(value.false_positive),
            "sensitivity": _encode_param(value.sensitivity),
            "truth": _encode_param(value.truth),
            "per_source": {
                name: [_encode_param(fp), _encode_param(sens)]
                for name, (fp, sens) in value.per_source.items()
            },
        }
    if isinstance(value, SourceQualityTable):
        return {
            "__type__": "SourceQualityTable",
            "source_names": list(value.source_names),
            "sensitivity": [float(x) for x in value.sensitivity],
            "specificity": [float(x) for x in value.specificity],
            "precision": [float(x) for x in value.precision],
            "accuracy": [float(x) for x in value.accuracy],
        }
    if isinstance(value, np.ndarray):
        return {"__type__": "ndarray", "values": value.tolist()}
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _encode_param(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_param(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ArtifactError(
        f"value of type {type(value).__name__!r} is not artifact-serialisable; "
        f"use JSON-safe values in EngineConfig.params and artifact extras"
    )


def _decode_param(value: Any) -> Any:
    if isinstance(value, dict):
        tag = value.get("__type__")
        if tag == "BetaPrior":
            return BetaPrior(positive=value["positive"], negative=value["negative"])
        if tag == "LTMPriors":
            return LTMPriors(
                false_positive=_decode_param(value["false_positive"]),
                sensitivity=_decode_param(value["sensitivity"]),
                truth=_decode_param(value["truth"]),
                per_source={
                    name: (_decode_param(pair[0]), _decode_param(pair[1]))
                    for name, pair in value.get("per_source", {}).items()
                },
            )
        if tag == "SourceQualityTable":
            return SourceQualityTable(
                source_names=tuple(value["source_names"]),
                sensitivity=np.asarray(value["sensitivity"], dtype=float),
                specificity=np.asarray(value["specificity"], dtype=float),
                precision=np.asarray(value["precision"], dtype=float),
                accuracy=np.asarray(value["accuracy"], dtype=float),
            )
        if tag == "ndarray":
            return np.asarray(value["values"])
        return {k: _decode_param(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_param(v) for v in value]
    return value


# JSON maps NaN to the non-standard token 'NaN' by default; keep it (allow_nan)
# but make emission canonical for byte-stable manifests.
def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _deterministic_npz(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialise ``arrays`` as an ``.npz`` with byte-stable content.

    :func:`numpy.savez` stamps each zip member with the current wall clock,
    which breaks artifact determinism; this writer pins the zip epoch and
    stores members uncompressed in sorted key order.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for key in sorted(arrays):
            payload = io.BytesIO()
            np.save(payload, np.asarray(arrays[key]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_EPOCH)
            archive.writestr(info, payload.getvalue())
    return buffer.getvalue()


@dataclass
class TruthArtifact:
    """A fitted engine's serving state, decoupled from the process that fit it.

    Attributes
    ----------
    config:
        The :class:`~repro.engine.config.EngineConfig` the engine was built
        from (method key, hyperparameters including seed and priors,
        execution options).
    fact_entity, fact_attribute, fact_score:
        Parallel per-fact arrays: entity key, attribute value (as text) and
        truth posterior, position = fact id of the saved fit.
    quality:
        The learned :class:`~repro.core.base.SourceQualityTable`, or ``None``
        for methods that do not estimate source quality (e.g. voting).
    name:
        Free-form artifact name (defaults to the method key).
    schema_version, repro_version:
        Layout version of the artifact and the library version that wrote it.
    extras:
        Small JSON-safe metadata (e.g. streaming step counters).
    """

    config: EngineConfig
    fact_entity: np.ndarray
    fact_attribute: np.ndarray
    fact_score: np.ndarray
    quality: SourceQualityTable | None = None
    name: str = ""
    schema_version: int = SCHEMA_VERSION
    repro_version: str = ""
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.fact_entity = np.asarray(self.fact_entity, dtype=str)
        self.fact_attribute = np.asarray(self.fact_attribute, dtype=str)
        self.fact_score = np.asarray(self.fact_score, dtype=float)
        if not (
            self.fact_entity.shape == self.fact_attribute.shape == self.fact_score.shape
        ) or self.fact_score.ndim != 1:
            raise ArtifactError(
                "fact_entity, fact_attribute and fact_score must be parallel "
                "one-dimensional arrays"
            )
        if not self.name:
            self.name = self.config.method
        if not self.repro_version:
            from repro import __version__

            self.repro_version = __version__

    # -- introspection ------------------------------------------------------------
    @property
    def num_facts(self) -> int:
        """Number of facts carried by the artifact."""
        return int(self.fact_score.shape[0])

    @property
    def method(self) -> str:
        """Registry key of the method that produced the artifact."""
        return self.config.method

    @property
    def seed(self) -> int | None:
        """The RNG seed recorded in the config (``None`` when unseeded)."""
        seed = self.config.params.get("seed")
        return int(seed) if seed is not None else None

    def fact_scores(self) -> dict[tuple[str, str], float]:
        """Mapping of ``(entity, attribute)`` to truth posterior."""
        return {
            (str(e), str(a)): float(s)
            for e, a, s in zip(self.fact_entity, self.fact_attribute, self.fact_score)
        }

    def summary(self) -> dict[str, Any]:
        """Size and identity statistics, for display and logging."""
        return {
            "name": self.name,
            "method": self.method,
            "schema_version": self.schema_version,
            "repro_version": self.repro_version,
            "seed": self.seed,
            "facts": self.num_facts,
            "entities": len(set(self.fact_entity.tolist())),
            "sources": self.quality.num_sources if self.quality is not None else 0,
            "has_quality": self.quality is not None,
        }

    # -- serialisation ------------------------------------------------------------
    def manifest(self) -> dict[str, Any]:
        """The JSON-safe manifest describing this artifact."""
        return {
            "schema_version": self.schema_version,
            "repro_version": self.repro_version,
            "name": self.name,
            "seed": self.seed,
            "config": {
                **self.config.to_dict(),
                "params": {k: _encode_param(v) for k, v in self.config.params.items()},
            },
            "counts": {
                "facts": self.num_facts,
                "entities": len(set(self.fact_entity.tolist())),
                "sources": self.quality.num_sources if self.quality is not None else 0,
            },
            "has_quality": self.quality is not None,
            "arrays": ARRAYS_NAME,
            "extras": {k: _encode_param(v) for k, v in self.extras.items()},
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """The numeric payload written to ``arrays.npz``."""
        out: dict[str, np.ndarray] = {
            "fact_entity": self.fact_entity,
            "fact_attribute": self.fact_attribute,
            "fact_score": self.fact_score,
        }
        if self.quality is not None:
            out["source_names"] = np.asarray(self.quality.source_names, dtype=str)
            out["sensitivity"] = np.asarray(self.quality.sensitivity, dtype=float)
            out["specificity"] = np.asarray(self.quality.specificity, dtype=float)
            out["precision"] = np.asarray(self.quality.precision, dtype=float)
            out["accuracy"] = np.asarray(self.quality.accuracy, dtype=float)
        return out

    def payload(self) -> dict[str, bytes]:
        """The artifact's full byte payload, keyed by file name.

        Byte-identical for identical fitted state — the determinism contract
        the test suite pins.  The manifest records the SHA-256 of the array
        payload so :meth:`load` can detect a manifest/arrays mismatch (e.g.
        an in-place overwrite caught mid-way).
        """
        arrays_bytes = _deterministic_npz(self.arrays())
        manifest = self.manifest()
        manifest["arrays_sha256"] = hashlib.sha256(arrays_bytes).hexdigest()
        return {
            MANIFEST_NAME: _canonical_json(manifest).encode("utf-8"),
            ARRAYS_NAME: arrays_bytes,
        }

    def save(self, path: str | Path) -> Path:
        """Write the artifact directory at ``path`` and return it.

        The directory is created (parents included); an existing artifact at
        the same path is overwritten atomically file-by-file (write to a
        temporary sibling, then :func:`os.replace`), with the manifest
        replaced *last* as the commit record — a reader never sees a
        half-written file, and a new manifest is never paired with old
        arrays.  A reader racing an in-place overwrite can still observe
        the *old* manifest with *new* arrays; :meth:`load` detects that
        tear through the manifest's recorded array digest (and fact count)
        and fails with a pointed
        :class:`~repro.exceptions.ArtifactError` rather than serving mixed
        state.  For lock-free hot swaps, publish each version to a fresh
        directory (as the streaming ``export_dir`` loop does) and
        :meth:`~repro.serving.service.TruthService.refresh` onto it.
        """
        target = Path(path)
        with get_tracer().span(
            "artifact.save",
            path=str(target),
            artifact=self.name,
            facts=int(self.fact_score.shape[0]),
        ):
            payload = self.payload()
            try:
                target.mkdir(parents=True, exist_ok=True)
                for file_name in sorted(payload, key=lambda name: name == MANIFEST_NAME):
                    temp = target / (file_name + ".tmp")
                    temp.write_bytes(payload[file_name])
                    temp.replace(target / file_name)
            except OSError as exc:
                raise ArtifactError(
                    f"cannot write artifact to {str(target)!r}: {exc}"
                ) from exc
            return target

    @classmethod
    def load(cls, path: str | Path) -> "TruthArtifact":
        """Read an artifact directory written by :meth:`save`.

        Applies registered schema migrations, and warns with
        :class:`~repro.exceptions.ArtifactVersionWarning` (instead of
        failing) when the artifact was written by a different library
        version.
        """
        with get_tracer().span("artifact.load", path=str(path)) as span:
            artifact = cls._load(path)
            span.set(
                artifact=artifact.name, facts=int(artifact.fact_score.shape[0])
            )
            return artifact

    @classmethod
    def _load(cls, path: str | Path) -> "TruthArtifact":
        """The :meth:`load` body, reporting into the ambient span."""
        target = Path(path)
        manifest_path = target / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ArtifactError(
                f"{str(target)!r} is not a truth artifact (no {MANIFEST_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"artifact manifest {str(manifest_path)!r} is not valid JSON") from exc
        except OSError as exc:
            raise ArtifactError(
                f"cannot read artifact manifest {str(manifest_path)!r}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactError("artifact manifest must be a JSON object")
        manifest = _migrate(manifest)

        from repro import __version__

        written_by = manifest.get("repro_version", "<unknown>")
        if written_by != __version__:
            warnings.warn(
                f"artifact {str(target)!r} was written by repro {written_by}, "
                f"reading with {__version__}; scores are reproducible only "
                f"under the writing version",
                ArtifactVersionWarning,
                stacklevel=2,
            )

        arrays_path = target / str(manifest.get("arrays", ARRAYS_NAME))
        # Artifacts are portable and may come from untrusted places: never
        # follow a manifest-controlled path outside the artifact directory.
        if not arrays_path.resolve().is_relative_to(target.resolve()):
            raise ArtifactError(
                f"artifact manifest references an array payload outside the "
                f"artifact directory: {manifest.get('arrays')!r}"
            )
        if not arrays_path.is_file():
            raise ArtifactError(f"artifact is missing its array payload {arrays_path.name!r}")
        try:
            arrays_bytes = arrays_path.read_bytes()
        except OSError as exc:
            raise ArtifactError(
                f"cannot read artifact array payload {str(arrays_path)!r}: {exc}"
            ) from exc
        declared_digest = manifest.get("arrays_sha256")
        if (
            declared_digest is not None
            and hashlib.sha256(arrays_bytes).hexdigest() != declared_digest
        ):
            raise ArtifactError(
                f"artifact array payload {arrays_path.name!r} does not match the "
                f"manifest's recorded digest; the artifact was likely caught "
                f"mid-overwrite — re-save it, or publish versions to fresh "
                f"directories instead of overwriting in place"
            )
        try:
            with np.load(io.BytesIO(arrays_bytes), allow_pickle=False) as data:
                arrays = {key: data[key] for key in data.files}
        except (zipfile.BadZipFile, ValueError, OSError) as exc:
            raise ArtifactError(
                f"artifact array payload {str(arrays_path)!r} is corrupt: {exc}"
            ) from exc
        for required in ("fact_entity", "fact_attribute", "fact_score"):
            if required not in arrays:
                raise ArtifactError(f"artifact arrays are missing {required!r}")
        declared_facts = manifest.get("counts", {}).get("facts")
        actual_facts = int(arrays["fact_score"].shape[0])
        if declared_facts is not None and int(declared_facts) != actual_facts:
            raise ArtifactError(
                f"artifact manifest declares {declared_facts} facts but the array "
                f"payload has {actual_facts}; the artifact was likely caught "
                f"mid-overwrite — re-save it, or publish versions to fresh "
                f"directories instead of overwriting in place"
            )

        quality: SourceQualityTable | None = None
        if manifest.get("has_quality"):
            for required in ("source_names", "sensitivity", "specificity", "precision"):
                if required not in arrays:
                    raise ArtifactError(f"artifact arrays are missing {required!r}")
            try:
                quality = SourceQualityTable(
                    source_names=tuple(str(s) for s in arrays["source_names"]),
                    sensitivity=arrays["sensitivity"].astype(float),
                    specificity=arrays["specificity"].astype(float),
                    precision=arrays["precision"].astype(float),
                    accuracy=arrays["accuracy"].astype(float) if "accuracy" in arrays else None,
                )
            except Exception as exc:
                raise ArtifactError(
                    f"artifact quality arrays are inconsistent: {exc}"
                ) from exc

        raw_config = dict(manifest.get("config", {}))
        try:
            raw_config["params"] = {
                k: _decode_param(v) for k, v in raw_config.get("params", {}).items()
            }
            # Tolerate manifests from configs with fewer/more fields than this
            # version knows: unknown keys are dropped, missing ones default.
            known = {f.name for f in dataclasses.fields(EngineConfig)}
            config = EngineConfig(**{k: v for k, v in raw_config.items() if k in known})
        except Exception as exc:
            raise ArtifactError(
                f"artifact manifest carries an invalid engine config: {exc}"
            ) from exc
        return cls(
            config=config,
            fact_entity=arrays["fact_entity"],
            fact_attribute=arrays["fact_attribute"],
            fact_score=arrays["fact_score"],
            quality=quality,
            name=manifest.get("name", ""),
            schema_version=SCHEMA_VERSION,
            repro_version=str(written_by),
            extras={k: _decode_param(v) for k, v in manifest.get("extras", {}).items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TruthArtifact(name={self.name!r}, method={self.method!r}, "
            f"facts={self.num_facts}, quality={self.quality is not None})"
        )


def load_artifact(path: str | Path) -> TruthArtifact:
    """Module-level alias of :meth:`TruthArtifact.load`."""
    return TruthArtifact.load(path)
