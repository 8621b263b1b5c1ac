"""Property-based tests (hypothesis) for the simulation kernel and
randomness/metrics utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RandomStream, Resource, Simulator


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6),
                           min_size=1, max_size=50))
    def test_clock_ends_at_max_delay(self, delays):
        sim = Simulator()
        for delay in delays:
            sim.timeout(delay)
        assert sim.run() == max(delays)

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e3),
                           min_size=1, max_size=30))
    def test_completion_order_is_time_order(self, delays):
        sim = Simulator()
        finished = []

        def proc(sim, tag, delay):
            yield sim.timeout(delay)
            finished.append((sim.now, tag))

        for tag, delay in enumerate(delays):
            sim.spawn(proc(sim, tag, delay))
        sim.run()
        times = [t for t, _ in finished]
        assert times == sorted(times)
        assert len(finished) == len(delays)

    @given(
        n_procs=st.integers(min_value=1, max_value=20),
        capacity=st.integers(min_value=1, max_value=5),
        hold=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_resource_never_exceeds_capacity(self, n_procs, capacity, hold):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        peak = {"value": 0}

        def proc(sim):
            yield resource.acquire()
            peak["value"] = max(peak["value"], resource.in_use)
            yield sim.timeout(hold)
            resource.release()

        for _ in range(n_procs):
            sim.spawn(proc(sim))
        sim.run()
        assert peak["value"] <= capacity
        assert resource.in_use == 0  # everything released


class TestRandomStreamProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_fork_determinism(self, seed):
        a = RandomStream(seed).fork("child")
        b = RandomStream(seed).fork("child")
        assert a.uniform() == b.uniform()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_items=st.integers(min_value=1, max_value=1000),
        skew=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=30)
    def test_zipf_indices_in_support(self, seed, n_items, skew):
        stream = RandomStream(seed)
        indices = stream.zipf_indices(n_items, skew, size=100)
        assert indices.min() >= 0
        assert indices.max() < n_items

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        low=st.integers(min_value=-100, max_value=100),
        width=st.integers(min_value=1, max_value=50),
    )
    def test_integer_bounds(self, seed, low, width):
        stream = RandomStream(seed)
        draw = stream.integer(low, low + width)
        assert low <= draw < low + width

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        items=st.lists(st.integers(), min_size=1, max_size=30),
    )
    def test_shuffle_is_permutation(self, seed, items):
        stream = RandomStream(seed)
        assert sorted(stream.shuffle(items)) == sorted(items)
