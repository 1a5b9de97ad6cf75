"""The verification harness: relations, config sampling, shrinking, reports.

A *relation* is a named executable invariant: a function taking a
sampled configuration dict and a harness-provided RNG, and raising
:class:`RelationViolation` when the invariant is broken.  Relations
declare the configuration space they quantify over as a dict of
:class:`Param` samplers, so the harness can (a) draw deterministic
random cases from a master seed and (b) *shrink* any failing case
toward the simplest configuration that still fails.

Determinism contract
--------------------
Every case is derived from ``(master_seed, crc32(relation name), case
index)`` through ``np.random.SeedSequence``, so a campaign is
bit-reproducible for a fixed master seed regardless of which relations
run, in which order, or how many cases other relations draw.  Relations
must consume randomness only through the ``rng`` argument the harness
passes them (enforced by the ``verify-relation-seeded`` lint rule).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.executor import spawn_seeds

__all__ = [
    "RelationViolation",
    "check",
    "check_allclose",
    "check_array_equal",
    "Param",
    "FloatParam",
    "IntParam",
    "ChoiceParam",
    "floats",
    "log_floats",
    "integers",
    "choice",
    "booleans",
    "Relation",
    "Registry",
    "DEFAULT_REGISTRY",
    "DEFAULT_MASTER_SEED",
    "relation",
    "CaseFailure",
    "RelationReport",
    "CampaignReport",
    "run_relation",
    "run_campaign",
]

#: Default campaign master seed (the paper appeared at DATE, March 2002).
DEFAULT_MASTER_SEED = 20020304

#: Failures recorded verbatim per relation (all failures are *counted*).
MAX_RECORDED_FAILURES = 10


class RelationViolation(AssertionError):
    """A relation's invariant does not hold for one sampled configuration."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`RelationViolation` with ``message`` unless ``condition``."""
    if not condition:
        raise RelationViolation(message)


def check_allclose(
    actual: np.ndarray,
    desired: np.ndarray,
    rtol: float = 1e-7,
    atol: float = 0.0,
    label: str = "value",
) -> None:
    """Elementwise closeness check that reports the worst deviation."""
    actual = np.asarray(actual, dtype=float)
    desired = np.asarray(desired, dtype=float)
    if actual.shape != desired.shape:
        raise RelationViolation(
            f"{label}: shape mismatch {actual.shape} vs {desired.shape}"
        )
    if not np.allclose(actual, desired, rtol=rtol, atol=atol):
        err = np.abs(actual - desired)
        scale = atol + rtol * np.abs(desired)
        worst = int(np.argmax(err - scale))
        raise RelationViolation(
            f"{label}: max deviation {float(err.flat[worst]):.3e} at flat "
            f"index {worst} exceeds tolerance (rtol={rtol:g}, atol={atol:g})"
        )


def check_array_equal(
    actual: np.ndarray,
    desired: np.ndarray,
    label: str = "value",
    equal_nan: bool = False,
) -> None:
    """Bit-equality check (the batch/serial/parallel contract).

    ``equal_nan`` counts NaN as equal to NaN (a fail-closed value).
    """
    actual = np.asarray(actual)
    desired = np.asarray(desired)
    if actual.shape != desired.shape:
        raise RelationViolation(
            f"{label}: shape mismatch {actual.shape} vs {desired.shape}"
        )
    if not np.array_equal(actual, desired, equal_nan=equal_nan):
        diff = np.abs(np.asarray(actual, dtype=float) - np.asarray(desired, dtype=float))
        raise RelationViolation(
            f"{label}: arrays are not bit-identical "
            f"(max |delta| = {float(diff.max()):.3e})"
        )


# ----------------------------------------------------------------------
# configuration-space parameters
# ----------------------------------------------------------------------
class Param:
    """One sampled dimension of a relation's configuration space.

    Subclasses implement :meth:`sample` (a deterministic draw from the
    harness RNG) and :meth:`shrink_candidates` (progressively *simpler*
    values to try while a case keeps failing; "simpler" means closer to
    the declared origin).
    """

    def sample(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def shrink_candidates(self, value: Any) -> Iterator[Any]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FloatParam(Param):
    lo: float
    hi: float
    origin: float
    log: bool = False

    def sample(self, rng: np.random.Generator) -> float:
        if self.log:
            return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))
        return float(rng.uniform(self.lo, self.hi))

    def shrink_candidates(self, value: float) -> Iterator[float]:
        if value != self.origin:
            yield self.origin
            yield (value + self.origin) / 2.0
        rounded = float(f"{value:.2g}")
        if self.lo <= rounded <= self.hi and rounded != value:
            yield rounded

    def describe(self) -> str:
        kind = "log-uniform" if self.log else "uniform"
        return f"{kind}[{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class IntParam(Param):
    lo: int
    hi: int
    origin: int

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))

    def shrink_candidates(self, value: int) -> Iterator[int]:
        if value != self.origin:
            yield self.origin
            mid = (value + self.origin) // 2
            if mid != value:
                yield mid
            yield value - 1 if value > self.origin else value + 1

    def describe(self) -> str:
        return f"int[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class ChoiceParam(Param):
    options: Tuple[Any, ...]

    def sample(self, rng: np.random.Generator) -> Any:
        return self.options[int(rng.integers(len(self.options)))]

    def shrink_candidates(self, value: Any) -> Iterator[Any]:
        # earlier options are simpler by declaration order
        for option in self.options:
            if option == value:
                return
            yield option

    def describe(self) -> str:
        return f"choice{self.options!r}"


def floats(lo: float, hi: float, origin: Optional[float] = None) -> Param:
    """Uniform float in ``[lo, hi]``; shrinks toward ``origin`` (default lo)."""
    if not (lo < hi):
        raise ValueError("need lo < hi")
    return FloatParam(lo=float(lo), hi=float(hi), origin=float(lo if origin is None else origin))


def log_floats(lo: float, hi: float, origin: Optional[float] = None) -> Param:
    """Log-uniform float in ``[lo, hi]`` (both positive); shrinks toward origin."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    return FloatParam(
        lo=float(lo), hi=float(hi), origin=float(lo if origin is None else origin), log=True
    )


def integers(lo: int, hi: int, origin: Optional[int] = None) -> Param:
    """Uniform integer in ``[lo, hi]`` inclusive; shrinks toward origin."""
    if not (lo <= hi):
        raise ValueError("need lo <= hi")
    return IntParam(lo=int(lo), hi=int(hi), origin=int(lo if origin is None else origin))


def choice(*options: Any) -> Param:
    """One of ``options``; earlier options are considered simpler."""
    if not options:
        raise ValueError("need at least one option")
    return ChoiceParam(options=tuple(options))


def booleans() -> Param:
    """A coin flip; ``False`` is the simpler value."""
    return ChoiceParam(options=(False, True))


# ----------------------------------------------------------------------
# relations and the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Relation:
    """A registered invariant over a sampled configuration space."""

    name: str
    fn: Callable[[Dict[str, Any], np.random.Generator], None]
    params: Dict[str, Param]
    #: the paper equation (or reproduction contract) this relation encodes
    equation: str = ""
    description: str = ""


class Registry:
    """Ordered collection of relations (the default one backs the CLI)."""

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}

    def register(self, rel: Relation) -> None:
        if rel.name in self._relations:
            raise ValueError(f"relation {rel.name!r} is already registered")
        self._relations[rel.name] = rel

    def names(self) -> List[str]:
        return list(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def get(self, names: Optional[Sequence[str]] = None) -> List[Relation]:
        """Relations in registration order, optionally filtered by name."""
        if names is None:
            return list(self._relations.values())
        missing = [n for n in names if n not in self._relations]
        if missing:
            raise KeyError(
                f"unknown relation(s) {missing}; registered: {self.names()}"
            )
        return [self._relations[n] for n in names]


DEFAULT_REGISTRY = Registry()


def relation(
    name: str,
    *,
    params: Dict[str, Param],
    equation: str = "",
    description: str = "",
    registry: Optional[Registry] = None,
):
    """Decorator registering ``fn(case, rng)`` as a named relation.

    ``params`` declares the sampled configuration space; the decorated
    function receives one drawn ``case`` dict plus a harness-derived
    ``rng`` it must use for *all* of its randomness.
    """

    def decorate(fn: Callable[[Dict[str, Any], np.random.Generator], None]):
        rel = Relation(
            name=name,
            fn=fn,
            params=dict(params),
            equation=equation,
            description=description or (fn.__doc__ or "").strip().splitlines()[0]
            if (description or fn.__doc__)
            else "",
        )
        (registry if registry is not None else DEFAULT_REGISTRY).register(rel)
        return fn

    return decorate


# ----------------------------------------------------------------------
# deterministic case derivation
# ----------------------------------------------------------------------
def _case_sequences(
    rel_name: str, master_seed: int, index: int
) -> Tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """(sampling, execution) seed sequences for one case.

    Keyed on the relation *name* (via CRC32), not registry order, so
    adding or filtering relations never changes another relation's cases.
    """
    tag = zlib.crc32(rel_name.encode("utf-8"))
    root = np.random.SeedSequence(entropy=(int(master_seed), tag, int(index)))
    sample_seq, exec_seq = spawn_seeds(root, 2)
    return sample_seq, exec_seq


def _draw_case(params: Dict[str, Param], seq: np.random.SeedSequence) -> Dict[str, Any]:
    rng = np.random.default_rng(seq)
    return {name: params[name].sample(rng) for name in sorted(params)}


def _run_case(
    rel: Relation, values: Dict[str, Any], exec_seq: np.random.SeedSequence
) -> Optional[str]:
    """Run one case; return the violation message, or None on success.

    A fresh generator is built from ``exec_seq`` each call, so re-running
    (during shrinking) replays the identical noise streams.
    """
    rng = np.random.default_rng(exec_seq)
    try:
        rel.fn(dict(values), rng)
    except RelationViolation as exc:
        return str(exc)
    return None


def _shrink_case(
    rel: Relation,
    values: Dict[str, Any],
    message: str,
    exec_seq: np.random.SeedSequence,
    max_evals: int = 120,
) -> Tuple[Dict[str, Any], str, int]:
    """Greedy per-parameter shrink toward each Param's origin.

    Keeps a candidate simplification only if the case *still fails*; the
    execution seed is held fixed so the comparison is apples-to-apples.
    Returns ``(shrunk values, shrunk failure message, evaluations)``.
    """
    current = dict(values)
    current_message = message
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for name in sorted(rel.params):
            for candidate in rel.params[name].shrink_candidates(current[name]):
                if candidate == current[name]:
                    continue
                trial = dict(current)
                trial[name] = candidate
                evals += 1
                trial_message = _run_case(rel, trial, exec_seq)
                if trial_message is not None:
                    current = trial
                    current_message = trial_message
                    improved = True
                    break
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break
    return current, current_message, evals


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@dataclass(frozen=True)
class CaseFailure:
    """One violated case, with its shrunk minimal counterexample."""

    case_index: int
    message: str
    config: Dict[str, Any]
    shrunk_config: Optional[Dict[str, Any]] = None
    shrunk_message: Optional[str] = None
    shrink_evaluations: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case_index": self.case_index,
            "message": self.message,
            "config": {k: _jsonable(v) for k, v in self.config.items()},
            "shrunk_config": None
            if self.shrunk_config is None
            else {k: _jsonable(v) for k, v in self.shrunk_config.items()},
            "shrunk_message": self.shrunk_message,
            "shrink_evaluations": self.shrink_evaluations,
        }


@dataclass
class RelationReport:
    """Outcome of one relation's campaign."""

    name: str
    equation: str
    description: str
    n_cases: int
    n_failures: int = 0
    seconds: float = 0.0
    failures: List[CaseFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.n_failures == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "equation": self.equation,
            "description": self.description,
            "n_cases": self.n_cases,
            "n_failures": self.n_failures,
            "seconds": round(self.seconds, 4),
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
        }


@dataclass
class CampaignReport:
    """Outcome of a full verification campaign."""

    master_seed: int
    n_cases: int
    relations: List[RelationReport] = field(default_factory=list)
    golden_drift: Dict[str, List[str]] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.relations) and not any(
            msgs for msgs in self.golden_drift.values()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "master_seed": self.master_seed,
            "n_cases": self.n_cases,
            "seconds": round(self.seconds, 4),
            "ok": self.ok,
            "relations": [r.to_dict() for r in self.relations],
            "golden_drift": self.golden_drift,
        }

    def write(self, path: str) -> str:
        """Write the JSON report, creating parent directories as needed."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def summary(self) -> str:
        lines = []
        for rel in self.relations:
            status = "ok" if rel.ok else f"FAIL ({rel.n_failures}/{rel.n_cases})"
            lines.append(
                f"{rel.name:<36s} {rel.n_cases:>4d} cases  "
                f"{rel.seconds:6.2f} s  {status}"
            )
            for failure in rel.failures[:1]:
                shown = failure.shrunk_config or failure.config
                lines.append(f"    counterexample: {shown}")
                lines.append(f"    {failure.shrunk_message or failure.message}")
        for name, msgs in self.golden_drift.items():
            status = "ok" if not msgs else f"DRIFT ({len(msgs)})"
            lines.append(f"golden corpus {name:<22s} {status}")
            for msg in msgs[:3]:
                lines.append(f"    {msg}")
        lines.append(f"campaign {'PASSED' if self.ok else 'FAILED'} in {self.seconds:.2f} s")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# campaign execution
# ----------------------------------------------------------------------
def run_relation(
    rel: Relation,
    n_cases: int,
    master_seed: int = DEFAULT_MASTER_SEED,
    shrink: bool = True,
) -> RelationReport:
    """Run ``n_cases`` sampled configurations of one relation.

    Only the first failure is shrunk (the minimal counterexample is what
    a human debugs); later failures are recorded verbatim, up to
    :data:`MAX_RECORDED_FAILURES`, and all are counted.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    report = RelationReport(
        name=rel.name,
        equation=rel.equation,
        description=rel.description,
        n_cases=n_cases,
    )
    start = time.perf_counter()
    for index in range(n_cases):
        sample_seq, exec_seq = _case_sequences(rel.name, master_seed, index)
        values = _draw_case(rel.params, sample_seq)
        message = _run_case(rel, values, exec_seq)
        if message is None:
            continue
        report.n_failures += 1
        if len(report.failures) >= MAX_RECORDED_FAILURES:
            continue
        if shrink and not report.failures:
            shrunk, shrunk_message, evals = _shrink_case(
                rel, values, message, exec_seq
            )
            report.failures.append(
                CaseFailure(
                    case_index=index,
                    message=message,
                    config=values,
                    shrunk_config=shrunk,
                    shrunk_message=shrunk_message,
                    shrink_evaluations=evals,
                )
            )
        else:
            report.failures.append(
                CaseFailure(case_index=index, message=message, config=values)
            )
    report.seconds = time.perf_counter() - start
    return report


def run_campaign(
    names: Optional[Sequence[str]] = None,
    n_cases: int = 50,
    master_seed: int = DEFAULT_MASTER_SEED,
    registry: Optional[Registry] = None,
    shrink: bool = True,
    report_path: Optional[str] = None,
) -> CampaignReport:
    """Run a relation campaign over the (default) registry.

    With ``registry=None`` the built-in relation library
    (:mod:`repro.verify.relations`) is loaded into the default registry
    first.  ``report_path`` additionally writes the JSON campaign report.
    """
    if registry is None:
        # importing the library populates DEFAULT_REGISTRY exactly once
        import repro.verify.relations  # noqa: F401

        registry = DEFAULT_REGISTRY
    campaign = CampaignReport(master_seed=master_seed, n_cases=n_cases)
    start = time.perf_counter()
    for rel in registry.get(names):
        campaign.relations.append(
            run_relation(rel, n_cases=n_cases, master_seed=master_seed, shrink=shrink)
        )
    campaign.seconds = time.perf_counter() - start
    if report_path is not None:
        campaign.write(report_path)
    return campaign
