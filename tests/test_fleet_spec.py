"""Tests for fleet/cohort specs, keys, and seed derivation."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    CohortSpec,
    FleetSpec,
    attacker_prevalence_fleet,
    cohort_key,
    device_seed,
    resolve_cohort_seed,
)
from repro.units import KIB


def spec(**overrides) -> CohortSpec:
    base = dict(device="emmc-8gb", population=10)
    base.update(overrides)
    return CohortSpec(**base)


class TestCohortSpecValidation:
    def test_defaults_valid(self):
        s = spec()
        assert s.population == 10
        assert s.duty_cycle == 1.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"population": 0},
            {"pattern": "zipf"},
            {"scale": 0},
            {"until_level": 1},
            {"until_level": 12},
            {"duty_cycle": 0.0},
            {"duty_cycle": 1.5},
            {"duty_cycle": -0.1},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ConfigurationError):
            spec(**overrides)

    def test_dict_roundtrip(self):
        s = spec(pattern="seq", request_bytes=128 * KIB, duty_cycle=0.25, label="benign")
        assert CohortSpec.from_dict(s.to_dict()) == s


class TestCohortKey:
    def test_stable_for_equal_specs(self):
        assert cohort_key(spec()) == cohort_key(spec())

    def test_key_and_seed_are_pinned(self):
        # Stored fleet records are keyed and seeded by these hashes, so
        # the canonical dict must never change (it still carries the
        # retired ``warm_until``, always None).
        assert cohort_key(spec()) == "e37135a66715f659"
        assert resolve_cohort_seed(spec(), base_seed=7) == 8093660196311530871

    def test_every_field_is_identity(self):
        base = spec()
        for changed in (
            replace(base, population=11),
            replace(base, pattern="seq"),
            replace(base, duty_cycle=0.5),
            replace(base, label="x"),
            replace(base, seed=123),
        ):
            assert cohort_key(changed) != cohort_key(base)


class TestSeeds:
    def test_explicit_seed_wins(self):
        assert resolve_cohort_seed(spec(seed=123), base_seed=7) == 123

    def test_derived_seed_depends_on_base_and_content(self):
        a = resolve_cohort_seed(spec(), base_seed=7)
        assert a == resolve_cohort_seed(spec(), base_seed=7)
        assert a != resolve_cohort_seed(spec(), base_seed=8)
        assert a != resolve_cohort_seed(spec(population=11), base_seed=7)

    def test_device_seeds_distinct(self):
        cohort_seed = resolve_cohort_seed(spec(), base_seed=7)
        seeds = [device_seed(cohort_seed, i) for i in range(64)]
        assert len(set(seeds)) == 64


class TestFleetSpec:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(name="empty", cohorts=())
        with pytest.raises(ConfigurationError):
            FleetSpec(name="dup", cohorts=(spec(), spec()))

    def test_population_and_subset(self):
        fleet = FleetSpec(name="f", cohorts=(spec(), spec(population=5)))
        assert fleet.population == 15
        assert len(fleet.subset(1)) == 1

    def test_attacker_prevalence_fleet(self):
        fleet = attacker_prevalence_fleet("f", population=1000, prevalence=0.01)
        labels = {c.label: c for c in fleet.cohorts}
        assert set(labels) == {"benign", "attacker"}
        assert labels["attacker"].population == 10
        assert labels["benign"].population == 990
        assert labels["attacker"].duty_cycle == 1.0
        assert labels["benign"].duty_cycle < 0.1
        assert labels["attacker"].pattern == "rand"
        assert labels["benign"].pattern == "seq"

    def test_attacker_prevalence_bounds(self):
        with pytest.raises(ConfigurationError):
            attacker_prevalence_fleet("f", population=100, prevalence=0.0)
        with pytest.raises(ConfigurationError):
            attacker_prevalence_fleet("f", population=100, prevalence=1.0)
