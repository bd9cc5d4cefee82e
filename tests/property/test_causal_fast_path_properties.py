"""Property tests pinning the causal-metadata fast paths to their definitions.

``VectorClock.merge``/``dominates``/``concurrent_or_newer``,
``CausalLattice.merge``/``with_dependency`` with carried sizes, and the
index-driven locality scorer each take shortcuts (identity checks, single
passes, lazily copied dicts, inherited sizes).  Every test here compares a
fast path with a plain reference written out from the definition.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.anna.index import KeyCacheIndex
from repro.cloudburst.policy import LocalityPlacementPolicy
from repro.cloudburst.references import CloudburstReference
from repro.lattices import CausalLattice, VectorClock

NODES = ["a", "b", "c", "d", "e"]

clocks = st.builds(
    VectorClock,
    st.dictionaries(st.sampled_from(NODES), st.integers(min_value=0, max_value=4),
                    max_size=5),
)


def reference_merge_entries(a: VectorClock, b: VectorClock) -> dict:
    nodes = set(a.reveal()) | set(b.reveal())
    return {node: max(a.get(node), b.get(node)) for node in nodes}


def reference_dominates(a: VectorClock, b: VectorClock) -> bool:
    """The two-pass set-union definition the single pass replaced."""
    at_least_equal = all(a.get(node) >= clock for node, clock in b.entries())
    strictly_greater = any(a.get(node) > b.get(node)
                           for node in set(a.reveal()) | set(b.reveal()))
    return at_least_equal and strictly_greater


# -- vector clocks -------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(clocks, clocks)
def test_merge_is_entrywise_max_and_returns_a_covering_operand(a, b):
    merged = a.merge(b)
    assert merged.reveal() == reference_merge_entries(a, b)
    if reference_dominates(a, b) or a == b:
        assert merged is a
    elif reference_dominates(b, a):
        assert merged is b
    assert a.merge(a) is a


@settings(max_examples=300, deadline=None)
@given(clocks, clocks)
def test_single_pass_dominates_matches_the_set_union_definition(a, b):
    assert a.dominates(b) == reference_dominates(a, b)
    assert b.dominates(a) == reference_dominates(b, a)


@settings(max_examples=300, deadline=None)
@given(clocks, clocks)
def test_validity_predicate_is_concurrent_or_newer(local, required):
    expected = local.dominates_or_equal(required) or local.concurrent_with(required)
    assert local.concurrent_or_newer(required) == expected
    assert expected == (not required.dominates(local))


# -- causal lattices -------------------------------------------------------------------
def reference_lattice_merge(a: CausalLattice, b: CausalLattice) -> CausalLattice:
    """The copy-everything merge the fast paths must agree with."""
    deps = dict(a.dependencies)
    for key, clock in b.dependencies.items():
        deps[key] = VectorClock(reference_merge_entries(deps[key], clock)) \
            if key in deps else clock
    return CausalLattice(dependencies=deps,
                         siblings=list(a.siblings) + list(b.siblings))


def assert_same_lattice(actual: CausalLattice, expected: CausalLattice) -> None:
    assert actual == expected
    # Dependency order drives the causal-cut worklists, so it must match too.
    assert list(actual.dependencies) == list(expected.dependencies)
    assert [clock for clock, _ in actual.siblings] == \
        [clock for clock, _ in expected.siblings]
    assert actual.vector_clock == expected.vector_clock


# Shared value objects (lists of growing length, like Retwis post lists)
# so chains hit the identity paths; equal-but-distinct copies are in the
# pool too, and must be re-measured rather than inherit a size.
POSTS = [[f"t{i}" for i in range(n)] for n in (0, 3, 12, 40)]
VALUES = POSTS + [list(POSTS[2]), "x", 7]

lattice_seeds = st.builds(
    lambda clock, value, deps: CausalLattice(clock, VALUES[value], dependencies=deps),
    clocks,
    st.integers(min_value=0, max_value=len(VALUES) - 1),
    st.dictionaries(st.sampled_from(["k1", "k2", "k3"]), clocks, max_size=3),
)

steps = st.lists(
    st.tuples(st.sampled_from(["merge", "merge_rev", "dep", "size"]),
              st.integers(min_value=0, max_value=63),
              st.integers(min_value=0, max_value=63),
              st.sampled_from(["k1", "k2", "k4"])),
    min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(st.lists(lattice_seeds, min_size=1, max_size=5), steps)
def test_merge_chains_match_reference_and_fresh_sizes(seeds, chain):
    pool = list(seeds)
    for op, i, j, dep_key in chain:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "size":
            a.size_bytes()
            continue
        if op == "dep":
            clock = b.vector_clock
            result = a.with_dependency(dep_key, clock)
            expected = reference_lattice_merge(
                a, CausalLattice(dependencies={dep_key: clock}, siblings=a.siblings))
        else:
            if op == "merge_rev":
                a, b = b, a
            result = a.merge(b)
            expected = reference_lattice_merge(a, b)
        assert_same_lattice(result, expected)
        pool.append(result)
    for lattice in pool:
        fresh = CausalLattice(dependencies=lattice.dependencies,
                              siblings=lattice.siblings)
        assert lattice.metadata_bytes() == fresh.metadata_bytes()
        assert lattice.size_bytes() == fresh.size_bytes()


# -- locality scoring ----------------------------------------------------------------------
def reference_pick(scheduler, threads, references, now_ms):
    """threads x references scoring, as locality placement was first written."""
    index = scheduler.kvs.cache_index
    scores = []
    for thread in threads:
        cache_id = thread.vm.cache.cache_id
        cached = sum(1 for ref in references if cache_id in index.caches_for(ref.key))
        scores.append((cached, thread.thread_id, thread))
    scores.sort(key=lambda item: (-item[0], item[1]))
    for cached, _, thread in scores:
        if cached <= 0:
            break
        if thread.vm.utilization(now_ms) > scheduler.overload_threshold:
            continue
        if now_ms is not None and thread.work_queue.busy_at(now_ms):
            continue
        return thread
    return None


class _Queue:
    def __init__(self, busy: bool):
        self.busy = busy

    def busy_at(self, now_ms):
        return self.busy


def _fixture(vm_loads, holdings, busy_threads, threads_per_vm):
    index = KeyCacheIndex()
    vms = []
    for number, load in enumerate(vm_loads):
        cache_id = f"cache-{number}"
        for key in holdings.get(number, ()):
            index.add_entry(cache_id, key)
        vms.append(SimpleNamespace(cache=SimpleNamespace(cache_id=cache_id),
                                   utilization=lambda now_ms, load=load: load))
    threads = []
    for number, vm in enumerate(vms):
        for slot in range(threads_per_vm):
            position = len(threads)
            threads.append(SimpleNamespace(
                vm=vm, thread_id=f"vm{number:02d}-t{slot}",
                work_queue=_Queue(position in busy_threads)))
    scheduler = SimpleNamespace(kvs=SimpleNamespace(cache_index=index),
                                overload_threshold=0.7)
    return scheduler, threads


KEYS = [f"key{i}" for i in range(8)]


@settings(max_examples=300, deadline=None)
@given(vm_loads=st.lists(st.sampled_from([0.0, 0.3, 0.7, 0.71, 1.0]),
                         min_size=1, max_size=6),
       holdings=st.dictionaries(st.integers(min_value=0, max_value=5),
                                st.sets(st.sampled_from(KEYS), max_size=6)),
       busy=st.sets(st.integers(min_value=0, max_value=17), max_size=10),
       threads_per_vm=st.integers(min_value=1, max_value=3),
       refs=st.lists(st.sampled_from(KEYS + ["absent"]), max_size=6),
       now_ms=st.one_of(st.none(), st.just(5.0)),
       shuffle=st.randoms(use_true_random=False))
def test_index_driven_locality_matches_reference_scorer(
        vm_loads, holdings, busy, threads_per_vm, refs, now_ms, shuffle):
    scheduler, threads = _fixture(vm_loads, holdings, busy, threads_per_vm)
    shuffle.shuffle(threads)
    references = [CloudburstReference(key) for key in refs]
    chosen = LocalityPlacementPolicy().pick_by_locality(
        scheduler, threads, references, now_ms)
    assert chosen is reference_pick(scheduler, threads, references, now_ms)
