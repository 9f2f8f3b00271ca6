"""Tests for the synthetic workload generators and query mixes."""

import pytest

from repro.core.domains import build_location_tree
from repro.core.errors import ConfigurationError
from repro.query.parser import parse
from repro.workloads import (
    AdmissionGenerator,
    Distributions,
    LocationTraceGenerator,
    OLAPMix,
    OLTPMix,
    SearchLogGenerator,
    admissions_table_sql,
    person_table_sql,
    searchlog_table_sql,
    standard_purposes_sql,
)


class TestDistributions:
    def test_determinism_with_same_seed(self):
        a, b = Distributions(3), Distributions(3)
        assert [a.uniform_int(0, 100) for _ in range(10)] == \
               [b.uniform_int(0, 100) for _ in range(10)]

    def test_zipf_weights_normalized_and_decreasing(self):
        weights = Distributions().zipf_weights(10, skew=1.2)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_zipf_choice_prefers_head(self):
        dist = Distributions(1)
        items = list(range(50))
        samples = [dist.zipf_choice(items, skew=1.5) for _ in range(500)]
        assert samples.count(0) > samples.count(49)

    @pytest.mark.parametrize("n,skew", [(1, 1.0), (7, 0.6), (50, 1.5), (4000, 0.8)])
    def test_zipf_draws_are_those_of_the_per_draw_weight_list(self, n, skew):
        """Memoized cumulative weights draw bit for bit what rebuilding and
        normalizing the weight list on every draw drew (the seeded inputs of
        every workload depend on it)."""
        def rebuilt(rng, count):
            raw = [1.0 / (rank ** skew) for rank in range(1, count + 1)]
            total = sum(raw)
            weights = [weight / total for weight in raw]
            return rng.choices(range(count), weights=weights, k=1)[0]

        dist, reference = Distributions(11), Distributions(11).random
        items = [f"item{i}" for i in range(n)]
        for _ in range(300):
            assert dist.zipf_index(n, skew) == rebuilt(reference, n)
            assert dist.zipf_choice(items, skew) == items[rebuilt(reference, n)]

    def test_poisson_arrivals_within_horizon(self):
        arrivals = Distributions(2).poisson_arrivals(rate=1.0, horizon=100.0)
        assert all(0 <= when <= 100.0 for when in arrivals)
        assert arrivals == sorted(arrivals)
        assert 50 <= len(arrivals) <= 200

    def test_regular_arrivals(self):
        assert Distributions().regular_arrivals(3, 10.0, start=5.0) == [5.0, 15.0, 25.0]

    def test_gaussian_int_clamped(self):
        dist = Distributions(4)
        values = [dist.gaussian_int(50, 100, minimum=0, maximum=60) for _ in range(100)]
        assert all(0 <= value <= 60 for value in values)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            Distributions().uniform_choice([])
        with pytest.raises(ConfigurationError):
            Distributions().zipf_weights(0)
        with pytest.raises(ConfigurationError):
            Distributions().exponential(0)


class TestLocationTraces:
    def test_events_are_deterministic(self):
        a = LocationTraceGenerator(num_users=5, seed=9).events(10)
        b = LocationTraceGenerator(num_users=5, seed=9).events(10)
        assert [(e.user_id, e.address) for e in a] == [(e.user_id, e.address) for e in b]

    def test_events_are_consistent_with_the_tree(self):
        tree = build_location_tree()
        for event in LocationTraceGenerator(num_users=5, seed=1).events(30):
            assert tree.generalize(event.address, 1) == event.city
            assert tree.generalize(event.city, 3, from_level=1) == event.country

    def test_timestamps_follow_interval(self):
        events = LocationTraceGenerator(seed=1).events(5, interval=60.0, start=100.0)
        assert [e.timestamp for e in events] == [100.0, 160.0, 220.0, 280.0, 340.0]

    def test_poisson_events(self):
        events = LocationTraceGenerator(seed=1).poisson_events(rate=0.1, horizon=1000.0)
        assert all(0 <= e.timestamp <= 1000.0 for e in events)

    def test_as_row_matches_person_table(self):
        event = LocationTraceGenerator(seed=1).event_at(0.0)
        row = event.as_row()
        assert set(row) == {"id", "user_id", "name", "location", "salary", "activity"}

    def test_sample_helpers(self):
        generator = LocationTraceGenerator(seed=1)
        tree = build_location_tree()
        assert generator.sample_city() in tree.values_at_level(1)
        assert generator.sample_country() in tree.values_at_level(3)
        assert 1 <= generator.sample_user_id() <= generator.num_users
        low, high = generator.sample_salary_range().split("-")
        assert int(high) - int(low) == 1000


class TestOtherGenerators:
    def test_search_events_consistent_with_tree(self):
        generator = SearchLogGenerator(seed=2)
        for event in generator.events(20):
            assert generator.tree.generalize(event.query, 1) == event.topic
            assert generator.tree.generalize(event.query, 2) == event.category

    def test_admissions_consistent_with_tree(self):
        generator = AdmissionGenerator(seed=2)
        for event in generator.events(20):
            assert generator.tree.generalize(event.diagnosis, 2) == event.specialty
            assert 1 <= event.duration_days <= 60

    def test_table_sql_statements_parse(self):
        for sql in (person_table_sql(), person_table_sql(salary_policy="salary_lcp"),
                    searchlog_table_sql(), admissions_table_sql()):
            parse(sql)
        for sql in standard_purposes_sql():
            parse(sql)


class TestQueryMixes:
    def test_oltp_queries_parse_and_cover_kinds(self):
        generator = LocationTraceGenerator(seed=3)
        mix = OLTPMix(generator, seed=3)
        queries = mix.queries(50)
        for spec in queries:
            parse(spec.sql)
        assert {spec.kind for spec in queries} >= {"point_user", "point_city"}

    def test_olap_queries_parse_and_cover_kinds(self):
        generator = LocationTraceGenerator(seed=3)
        mix = OLAPMix(generator, seed=3)
        queries = mix.queries(50)
        for spec in queries:
            parse(spec.sql)
        assert {spec.kind for spec in queries} >= {"events_by_country", "country_count"}

    def test_mix_is_deterministic(self):
        generator = LocationTraceGenerator(seed=3)
        first = [spec.sql for spec in OLTPMix(generator, seed=7).queries(10)]
        generator2 = LocationTraceGenerator(seed=3)
        second = [spec.sql for spec in OLTPMix(generator2, seed=7).queries(10)]
        assert first == second
