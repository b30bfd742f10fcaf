"""Fleet and cohort specifications (DESIGN.md §12).

A *fleet* is a population of simulated devices grouped into *cohorts*.
Every device in a cohort shares one configuration (device model, scale,
filesystem, workload) and one trajectory prefix; devices differ only in
their per-device seed — which drives their endurance draw, their
workload entropy, and nothing else a cohort-shared trajectory depends
on.  That sharing is what the cohort engine exploits
(:mod:`repro.fleet.engine`); the spec layer just makes it addressable:

* cohorts are content-hashed (:func:`cohort_key`) exactly like campaign
  points, so fleet stores resume and fingerprint the same way;
* the cohort seed derives from the fleet base seed and the cohort's
  content hash, and every *device* seed derives from the cohort seed
  and the device's index — all pure functions, so any worker in any
  scheduling order computes identical seeds (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rng import DEFAULT_SEED, substream_seed
from repro.units import KIB


@dataclass(frozen=True)
class CohortSpec:
    """One cohort: N devices sharing a configuration and a trajectory
    prefix, diverging only by per-device seed.

    Attributes:
        device: Device catalog key (``repro.devices.DEVICE_SPECS``).
        population: Number of devices in the cohort.
        scale: Capacity scale factor for the device build.
        filesystem: "ext4", "f2fs", or None for the catalog default.
        pattern: "rand" or "seq" rewrite pattern.
        request_bytes: Per-write request size.
        num_files: Rewrite targets for the workload.
        until_level: Wear-indicator level that ends each device's run.
        duty_cycle: Fraction of wall-clock time the workload is
            actively writing.  The simulated trajectory (device-busy
            time) is identical at any duty cycle; the analysis layer
            stretches observables to wall time — survival-curve days
            scale by ``1/duty_cycle`` and the detection features see
            the diluted write rate.  The paper's attack is sustained
            (1.0); benign phone profiles write in bursts.
        endurance_sigma: Lognormal sigma of the per-block endurance
            draw, overriding the device model's default (0.05).  The
            catalog's rber/ECC-derived cycle limits sit ~1.27x above
            nominal endurance for every device, so at the default sigma
            no block ever crosses its limit before the run ends — every
            member stays in lockstep.  Wider sigmas model binned /
            end-of-line flash where weak blocks retire early, which is
            what makes *heterogeneous* cohorts (some members demoting
            to scalar replays) reachable.  None keeps the device
            default and — deliberately — stays out of
            :meth:`to_dict`, so pre-existing cohort content hashes,
            derived seeds, and store fingerprints are unchanged.
        seed: Explicit cohort seed, or None to derive one from the
            fleet base seed and this cohort's content hash.
        label: Display label ("benign", "attacker", ...); part of the
            cohort's identity.
    """

    device: str
    population: int
    scale: int = 512
    filesystem: Optional[str] = None
    pattern: str = "rand"
    request_bytes: int = 4 * KIB
    num_files: int = 4
    until_level: int = 3
    duty_cycle: float = 1.0
    endurance_sigma: Optional[float] = None
    seed: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if self.population < 1:
            raise ConfigurationError("cohort population must be >= 1")
        if self.pattern not in ("rand", "seq"):
            raise ConfigurationError(f"unknown pattern {self.pattern!r}")
        if self.scale < 1:
            raise ConfigurationError("scale must be >= 1")
        if not 2 <= self.until_level <= 11:
            raise ConfigurationError("until_level must be in [2, 11]")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty_cycle must be in (0, 1]")
        if self.endurance_sigma is not None and self.endurance_sigma < 0.0:
            raise ConfigurationError("endurance_sigma must be >= 0 when set")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (the content that gets hashed).

        The content hash keys resumable stores and derives seeds, so
        the dict must stay what every stored cohort was hashed from.
        ``endurance_sigma`` is omitted while None so every cohort hash
        minted before the field existed stays valid: a default-valued
        field must hash exactly like its absence.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if data["endurance_sigma"] is None:
            del data["endurance_sigma"]
        # The retired prototype warm-up level, always None: every hash
        # was minted with it.
        data["warm_until"] = None
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CohortSpec":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})

    @property
    def display(self) -> str:
        parts = [self.label or "cohort", self.device, self.pattern,
                 f"{self.request_bytes}B", f"n={self.population}"]
        return ":".join(str(p) for p in parts)


def cohort_key(spec: CohortSpec) -> str:
    """Content hash of a cohort spec — the fleet store's key."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def resolve_cohort_seed(spec: CohortSpec, base_seed: int) -> int:
    """The seed a cohort actually runs with (explicit wins, else derived
    from the fleet base seed and the cohort's content hash)."""
    if spec.seed is not None:
        return spec.seed
    return substream_seed(base_seed, f"fleet-cohort:{cohort_key(spec)}")


def device_seed(cohort_seed: int, index: int) -> int:
    """Per-device seed: a pure function of (cohort seed, device index).

    Device 0 is the cohort's *leader* — the device whose experiment the
    engine actually steps; every other index labels a follower whose
    scalar counterpart is :func:`repro.fleet.branch.branch_experiment`
    built with this seed.
    """
    return substream_seed(cohort_seed, f"device-{index}")


@dataclass(frozen=True)
class FleetSpec:
    """A named fleet: an ordered tuple of cohorts plus a base seed."""

    name: str
    cohorts: Tuple[CohortSpec, ...]
    base_seed: int = DEFAULT_SEED
    description: str = ""

    def __post_init__(self):
        if not self.cohorts:
            raise ConfigurationError(f"fleet {self.name!r} has no cohorts")
        keys = [cohort_key(c) for c in self.cohorts]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"fleet {self.name!r} contains duplicate cohorts")

    def __len__(self) -> int:
        return len(self.cohorts)

    @property
    def population(self) -> int:
        return sum(c.population for c in self.cohorts)

    def keyed_cohorts(self) -> Tuple[Tuple[str, CohortSpec], ...]:
        return tuple((cohort_key(c), c) for c in self.cohorts)

    def subset(self, count: int) -> "FleetSpec":
        return replace(self, cohorts=self.cohorts[:count])


def attacker_prevalence_fleet(
    name: str,
    population: int,
    prevalence: float,
    device: str = "emmc-8gb",
    scale: int = 512,
    until_level: int = 3,
    base_seed: int = DEFAULT_SEED,
    attacker_request_bytes: int = 4 * KIB,
    benign_request_bytes: int = 128 * KIB,
    attacker_duty: float = 1.0,
    benign_duty: float = 0.005,
) -> FleetSpec:
    """A two-cohort fleet at a given attacker prevalence.

    The attacker cohort runs the paper's §4.4 hot-rewrite pattern
    (small random sync writes, sustained); the benign cohort models
    bulk media traffic (large sequential writes in bursts — phones
    spend most wall-clock time idle, hence the low default duty
    cycle).  ``prevalence`` is the fraction of the population running
    the attack.
    """
    if not 0.0 < prevalence < 1.0:
        raise ConfigurationError("prevalence must be in (0, 1)")
    attackers = max(1, round(population * prevalence))
    benign = max(1, population - attackers)
    cohorts = (
        CohortSpec(
            device=device, population=benign, scale=scale,
            pattern="seq", request_bytes=benign_request_bytes,
            until_level=until_level, duty_cycle=benign_duty,
            label="benign",
        ),
        CohortSpec(
            device=device, population=attackers, scale=scale,
            pattern="rand", request_bytes=attacker_request_bytes,
            until_level=until_level, duty_cycle=attacker_duty,
            label="attacker",
        ),
    )
    return FleetSpec(
        name=name,
        cohorts=cohorts,
        base_seed=base_seed,
        description=f"attacker prevalence {prevalence:.0%} of {population} devices",
    )
