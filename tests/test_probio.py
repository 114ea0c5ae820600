import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixnet import netcore as nc
from fixnet import bench, probio

TWO_NODE = "p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 0 10 3 100\n"


# -- parse_fcnf -------------------------------------------------------------------


def test_parse_minimal_instance():
    p = probio.parse_fcnf(TWO_NODE)
    assert p.node_count == 2 and p.arc_count == 1
    assert p.supply.tolist() == [5, -5]
    assert [col.tolist() for col in (p.tail, p.head, p.cost, p.fixed, p.cap)] == \
        [[0], [1], [3], [100], [10]]


def test_parse_missing_node_line_defaults_to_zero():
    text = "p fcnf 3 2\nn 1 5\nn 3 -5\na 1 2 0 10 3 0\na 2 3 0 10 3 0\n"
    p = probio.parse_fcnf(text)
    assert p.supply.tolist() == [5, 0, -5]


def test_parse_comments_ignored():
    text = "c header\n" + TWO_NODE + "c trailer\n"
    assert probio.parse_fcnf(text) == probio.parse_fcnf(TWO_NODE)


def test_parse_rejects_self_loop_via_validation():
    text = "p fcnf 2 1\nn 1 5\nn 2 -5\na 1 1 0 10 3 100\n"
    with pytest.raises(nc.BadArcEndpoint):
        probio.parse_fcnf(text)


@pytest.mark.parametrize("lines,error", [
    ("n 1 5\nn 2 -5\na 1 2 0 10 100000000000000000000 100", nc.NegativeCapacityOrCharge),
    ("n 1 5\nn 2 -5\na 1 2 0 10000000000000000000 3 100", nc.NegativeCapacityOrCharge),
    ("n 1 5\nn 2 -5\na 1 18446744073709551617 0 10 3 100", nc.BadArcEndpoint),
    ("n 1 100000000000000000000\nn 2 -100000000000000000000\na 1 2 0 10 3 100", ValueError),
], ids=["cost", "capacity", "head", "supply"])
def test_parse_rejects_values_outside_int64(lines, error):
    with pytest.raises(error):
        probio.parse_fcnf(f"p fcnf 2 1\n{lines}\n")


def test_parse_rejects_arc_count_mismatch():
    text = "p fcnf 2 2\nn 1 5\nn 2 -5\na 1 2 0 10 3 100\n"
    with pytest.raises(probio.CountMismatch, match="^line 4: declared 2 arcs, found 1$"):
        probio.parse_fcnf(text)


def test_parse_rejects_duplicate_node_line():
    text = "p fcnf 2 1\nn 1 5\nn 1 -5\na 1 2 0 10 3 100\n"
    with pytest.raises(probio.DuplicateNodeLine, match="^line 3: node 1 given twice$"):
        probio.parse_fcnf(text)


def test_parse_rejects_nonzero_lower_bound():
    text = "p fcnf 2 1\nn 1 5\nn 2 -5\na 1 2 1 10 3 100\n"
    with pytest.raises(probio.FcnfSyntaxError) as err:
        probio.parse_fcnf(text)
    assert err.value.line == 4 and str(err.value) == "line 4: lower bound must be 0"


@pytest.mark.parametrize("text,line,message", [
    ("p fcnf 2 0\np fcnf 2 0\n", 2, "duplicate problem line"),
    ("c shape\np fcnf 2\n", 2, "expected 'p fcnf <nodes> <arcs>'"),
    ("p min 2 0\n", 1, "expected 'p fcnf <nodes> <arcs>'"),
    ("p fcnf two 0\n", 1, "node/arc counts must be integers"),
    ("p fcnf 0 0\n", 1, "counts out of range"),
    ("c first\nn 1 5\np fcnf 2 0\n", 2, "problem line must precede node and arc lines"),
    ("c first\na 1 2 0 10 3 100\np fcnf 2 1\n", 2,
     "problem line must precede node and arc lines"),
    ("p fcnf 2 0\nn 1\n", 2, "expected 'n <node_id> <supply>'"),
    ("p fcnf 2 0\nn 1 five\n", 2, "node id and supply must be integers"),
    ("p fcnf 2 0\n\nn 3 5\n", 3, "node id 3 out of range 1..2"),
    ("p fcnf 2 1\na 1 2 0 10 3\n", 2,
     "expected 'a <tail> <head> <lower> <cap> <cost> <fixed>'"),
    ("p fcnf 2 1\na 1 2 0 10 3 1.5\n", 2, "arc fields must be integers"),
    ("c only\n\nc comments\n", 3, "missing problem line"),
], ids=["duplicate-p", "short-p", "not-fcnf", "non-integer-count", "count-out-of-range",
        "record-before-p", "arc-before-p", "short-n", "non-integer-n", "node-out-of-range",
        "short-a", "non-integer-a", "missing-p"])
def test_parse_syntax_errors_name_their_line(tmp_path, text, line, message):
    with pytest.raises(probio.FcnfSyntaxError) as err:
        probio.parse_fcnf(text)
    assert type(err.value) is probio.FcnfSyntaxError
    assert err.value.line == line and str(err.value) == f"line {line}: {message}"
    path = tmp_path / "bad.fcnf"
    path.write_text(text)
    assert bench.main(["solve", str(path)]) == 2


def test_parse_rejects_garbage_record():
    with pytest.raises(probio.FcnfSyntaxError, match="^line 2: unknown record type 'q'$"):
        probio.parse_fcnf("p fcnf 1 0\nq nonsense\n")


def test_parse_refuses_a_node_count_beyond_the_range_contract_before_allocating(tmp_path):
    # a supply column of 5 million nodes would take over 40 MiB
    text = "p fcnf 5000000 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(nc.FixnetError, match="no working-cost scale"):
            probio.parse_fcnf(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "huge.fcnf"
    path.write_text(text)
    assert bench.main(["solve", str(path)]) == 2


def test_the_parse_refuses_no_node_count_that_validate_accepts():
    # validate needs a working-cost scale at T = max |c_j| + BIGM_CAP, the
    # parse at T = BIGM_CAP, and a larger T allows no more nodes; without
    # arcs the two tests are one, and 4,611,684 nodes is the largest count
    assert nc.scale_for(4_611_684, nc.BIGM_CAP) == 1
    with pytest.raises(nc.OutOfExactRange):
        nc.scale_for(4_611_685, nc.BIGM_CAP)
    arcless = nc.make_problem([0] * 3, [])
    assert nc.working_scale(arcless, nc.BIGM_CAP) == (nc.scale_for(3, nc.BIGM_CAP), nc.BIGM_CAP)
    for nodes in (2, 100, 10**4, 4_611_684):
        for t in (nc.BIGM_CAP, 2**40, 2**53 // (nodes + 2), 2**53):
            try:
                nc.scale_for(nodes, max(t, nc.BIGM_CAP))
            except nc.OutOfExactRange:
                continue
            assert nc.scale_for(nodes, nc.BIGM_CAP) >= 1


@pytest.mark.parametrize("nodes", [2, 509])
def test_parse_accepts_the_largest_node_count_at_the_largest_cost(nodes):
    # at T = 2^53, the largest T validate accepts, 509 nodes is the most
    cost = 2**53 - nc.BIGM_CAP
    p = probio.parse_fcnf(f"p fcnf {nodes} 1\nn 1 1\nn 2 -1\na 1 2 0 1 {cost} 0\n")
    assert p.node_count == nodes and p.cost.tolist() == [cost]
    with pytest.raises(nc.OutOfExactRange, match="no working-cost scale"):
        probio.parse_fcnf(f"p fcnf 510 1\nn 1 1\nn 2 -1\na 1 2 0 1 {cost} 0\n")


# A small instance for the fuzz gate, and what its edits insert: integers the
# parser's int() reads (signs, underscores, non-ASCII digits), values beyond
# int64 and beyond the node-count bound, record letters and separators.
FUZZ_BASE = ("c fuzz\np fcnf 4 4\nn 1 6\nn 4 -6\na 1 2 0 6 2 10\na 2 4 0 6 -1 7\n"
             "a 1 3 0 3 5 0\na 3 4 0 3 1 4\n")
FUZZ_PIECES = ("0", "1", "7", "-1", "+2", "1_0", "\u0665", "9223372036854775808",
               "99999999999999999999", "4611685", "1.5", "1e3", " ", "\t", "\n", "a", "n",
               "p", "c", "q", "fcnf", "-")
FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "token", "line"]),
                                st.integers(0, 10**6), st.sampled_from(FUZZ_PIECES)),
                      min_size=1, max_size=5)


def mutate(text, edits):
    """Apply each edit: insert a piece at a character, delete a character,
    replace a whitespace-separated token with a piece, or drop or repeat a
    line."""
    for op, pos, piece in edits:
        if op == "insert":
            at = pos % (len(text) + 1)
            text = text[:at] + piece + text[at:]
        elif op == "delete" and text:
            at = pos % len(text)
            text = text[:at] + text[at + 1:]
        elif op == "token":
            tokens = text.split(" ")
            tokens[pos % len(tokens)] = piece
            text = " ".join(tokens)
        elif op == "line":
            lines = text.split("\n")
            at = pos % len(lines)
            lines[at:at + 1] = [lines[at]] * (pos // len(lines) % 3)
            text = "\n".join(lines)
    return text


def test_mutated_fcnf_texts_parse_or_raise_a_fixnet_error(tmp_path):
    # The CLI solves only instances of at most 50 nodes, so that an edit
    # that grows the node count costs no search over millions of nodes.
    path, out = tmp_path / "fuzz.fcnf", tmp_path / "rec.csv"

    @settings(max_examples=200, deadline=None)
    @given(FUZZ_EDITS)
    @example([("insert", 2999, "9223372036854775808")])  # a supply beyond int64
    @example([("token", 3, "4611685")])  # a node count beyond the range contract
    def check(edits):
        text = mutate(FUZZ_BASE, edits)
        try:
            p = probio.parse_fcnf(text)
        except nc.FixnetError:
            p = None
        if p is None or p.node_count <= 50:
            path.write_text(text)
            with contextlib.redirect_stderr(io.StringIO()):
                assert bench.main(["solve", str(path), "--output", str(out)]) in (0, 2, 3)

    check()


# -- write_fcnf -------------------------------------------------------------------


def test_write_round_trip_identity():
    p = probio.parse_fcnf(TWO_NODE)
    assert probio.parse_fcnf(probio.write_fcnf(p)) == p


def test_write_omits_zero_supplies_and_round_trips():
    p = nc.make_problem([5, 0, -5], [(0, 1, 3, 0, 10), (1, 2, 3, 0, 10)])
    text = probio.write_fcnf(p)
    assert "n 2" not in text
    assert probio.parse_fcnf(text) == p


def test_write_is_byte_stable():
    p = probio.generate_fctp(probio.FctpSpec(sources=3, sinks=4, total_supply=50, seed=8))
    assert probio.write_fcnf(p) == probio.write_fcnf(p)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(2, 5))
def test_generated_instances_round_trip(seed, m, n):
    p = probio.generate_fctp(
        probio.FctpSpec(sources=m, sinks=n, total_supply=10 * max(m, n), seed=seed)
    )
    assert probio.parse_fcnf(probio.write_fcnf(p)) == p


# -- generate_fctp ----------------------------------------------------------------


def test_fctp_published_small_shape():
    spec = probio.FctpSpec(sources=10, sinks=10, total_supply=10000,
                           cost_range=(3, 8), fc_range=(50, 200), seed=42)
    p = probio.generate_fctp(spec)
    assert p.arc_count == 100
    assert sum(b for b in p.supply if b > 0) == 10000
    assert np.all((3 <= p.cost) & (p.cost <= 8))
    assert np.all((50 <= p.fixed) & (p.fixed <= 200))


def test_fctp_published_large_shape():
    spec = probio.FctpSpec(sources=50, sinks=100, total_supply=50000,
                           fc_range=(6400, 25600), seed=1)
    p = probio.generate_fctp(spec)
    assert p.arc_count == 5000
    assert np.all((6400 <= p.fixed) & (p.fixed <= 25600))


def test_fctp_deterministic_in_seed():
    spec = probio.FctpSpec(sources=6, sinks=7, total_supply=300, seed=77)
    assert probio.generate_fctp(spec) == probio.generate_fctp(spec)
    other = probio.FctpSpec(sources=6, sinks=7, total_supply=300, seed=78)
    assert probio.generate_fctp(other) != probio.generate_fctp(spec)


def test_fctp_fc_count_limits_charged_arcs():
    spec = probio.FctpSpec(sources=5, sinks=5, total_supply=100, fc_count=12, seed=3)
    p = probio.generate_fctp(spec)
    assert np.count_nonzero(p.fixed > 0) == 12


def test_fctp_capacities_are_tight_transport_bounds():
    spec = probio.FctpSpec(sources=3, sinks=3, total_supply=60, seed=5)
    p = probio.generate_fctp(spec)
    sup = p.supply[:3]
    dem = -p.supply[3:]
    assert np.array_equal(p.cap, np.minimum(sup[p.tail], dem[p.head - 3]))


def test_fctp_rejects_undersized_supply():
    with pytest.raises(probio.InfeasibleSpec):
        probio.generate_fctp(probio.FctpSpec(sources=10, sinks=3, total_supply=5, seed=0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(12, 400))
def test_partition_exact_and_positive(seed, k, total):
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = probio._partition(rng, total, k)
    assert parts.sum() == total
    assert (parts >= 1).all()


# -- generate_netgen_fc -------------------------------------------------------------


def weakly_connected(problem):
    adj = [[] for _ in range(problem.node_count)]
    for t, h in zip(problem.tail.tolist(), problem.head.tolist()):
        adj[t].append(h)
        adj[h].append(t)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == problem.node_count


def test_netgen_published_row_dimensions():
    spec = probio.NetgenFcSpec(nodes=500, source_count=150, sink_count=350,
                               arc_count=10000, total_supply=100000,
                               fc_range=(20, 200), seed=0)
    p = probio.generate_netgen_fc(spec)
    assert p.node_count == 500 and p.arc_count == 10000
    assert sum(b for b in p.supply if b > 0) == 100000
    assert sum(1 for b in p.supply if b > 0) == 150
    assert sum(1 for b in p.supply if b < 0) == 350
    assert np.all((20 <= p.fixed) & (p.fixed <= 200))
    assert np.all((200 <= p.cap) & (p.cap <= 1500))
    assert np.all((3 <= p.cost) & (p.cost <= 8))


def test_netgen_transshipment_row_dimensions():
    spec = probio.NetgenFcSpec(nodes=1000, source_count=200, sink_count=200,
                               arc_count=50000, total_supply=500000,
                               fc_range=(1600, 6400), seed=44)
    p = probio.generate_netgen_fc(spec)
    assert p.node_count == 1000 and p.arc_count == 50000
    mids = sum(1 for b in p.supply if b == 0)
    assert mids == 600
    assert np.all((1600 <= p.fixed) & (p.fixed <= 6400))


def test_netgen_no_duplicate_arcs_and_connected():
    spec = probio.NetgenFcSpec(nodes=40, source_count=10, sink_count=12,
                               arc_count=300, total_supply=2000, seed=5)
    p = probio.generate_netgen_fc(spec)
    pairs = set(zip(p.tail.tolist(), p.head.tolist()))
    assert len(pairs) == p.arc_count
    assert weakly_connected(p)


def test_netgen_instances_are_lp_feasible():
    for seed in range(4):
        spec = probio.NetgenFcSpec(nodes=24, source_count=6, sink_count=8,
                                   arc_count=90, total_supply=1200,
                                   cap_range=(100, 400), seed=seed)
        p = probio.generate_netgen_fc(spec)
        state = nc.solve_lp(p, p.cost.tolist())
        state.assert_valid_basis()


def test_netgen_deterministic_in_seed():
    spec = probio.NetgenFcSpec(nodes=30, source_count=8, sink_count=9,
                               arc_count=120, total_supply=900, seed=13)
    assert probio.generate_netgen_fc(spec) == probio.generate_netgen_fc(spec)


def test_generators_reject_a_negative_seed():
    with pytest.raises(probio.InfeasibleSpec, match="seed -1"):
        probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=40, seed=-1))
    with pytest.raises(probio.InfeasibleSpec, match="seed -1"):
        probio.generate_netgen_fc(probio.NetgenFcSpec(nodes=30, source_count=8, sink_count=9,
                                                      arc_count=120, total_supply=900, seed=-1))


@pytest.mark.parametrize("total", [2**63, 3 * 10**21, 2**70])
def test_generators_reject_a_supply_beyond_int64(total):
    with pytest.raises(probio.InfeasibleSpec, match="int64"):
        probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=total))
    with pytest.raises(probio.InfeasibleSpec):
        probio.generate_netgen_fc(probio.NetgenFcSpec(
            nodes=30, source_count=8, sink_count=9, arc_count=120, total_supply=total))


def test_fctp_refuses_the_largest_int64_supply():
    # its capacities times its costs sum far past 2^62
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the partition's float rounding
        with pytest.raises(nc.OutOfExactRange):
            probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=2**63 - 1))


def test_fctp_generates_at_the_largest_supply_inside_the_objective_bound():
    def generates(total):
        try:
            probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=total))
        except nc.OutOfExactRange:
            return False
        return True

    lo, hi = 4, 2**63 - 1  # generates, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if generates(mid) else (lo, mid)
    p = probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=lo))
    assert sum(p.supply[p.supply > 0].tolist()) == lo
    bound = sum(abs(c) * u for c, u in zip(p.cost.tolist(), p.cap.tolist())) + sum(p.fixed.tolist())
    assert 2**62 - 2**32 < bound < 2**62  # refused only at the bound, not short of it


def test_netgen_rejects_a_supply_its_skeleton_cannot_carry():
    # at most arc_count * cap_hi leaves the sources; a supply beyond it once
    # built a skeleton chunk by chunk for as long as the supply lasted
    with pytest.raises(probio.InfeasibleSpec, match="exceeds arc count"):
        probio.generate_netgen_fc(probio.NetgenFcSpec(
            nodes=30, source_count=8, sink_count=9, arc_count=120, total_supply=2**63 - 1))


def netgen_spec(**fields):
    base = dict(nodes=30, source_count=8, sink_count=9, arc_count=120, total_supply=900)
    return probio.NetgenFcSpec(**{**base, **fields})


@pytest.mark.parametrize("make,match", [
    (lambda: probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=40,
                                                  cost_range=(8, 3))),
     r"cost range \[8, 3\] is empty"),
    (lambda: probio.generate_fctp(probio.FctpSpec(sources=0, sinks=4, total_supply=40)),
     "at least one source and one sink"),
    (lambda: probio.generate_fctp(probio.FctpSpec(sources=4, sinks=4, total_supply=40,
                                                  fc_count=-1)),
     "fc_count must be nonnegative"),
    (lambda: probio.generate_netgen_fc(netgen_spec(total_supply=5)),
     "cannot split 5 into 8 positive parts"),
    (lambda: probio.generate_netgen_fc(netgen_spec(nodes=4, source_count=1, sink_count=1,
                                                   arc_count=13)),
     "exceeds simple-digraph maximum"),
    # one relay, and two chunks of cap_hi between the same source and sink
    (lambda: probio.generate_netgen_fc(netgen_spec(nodes=3, source_count=1, sink_count=1,
                                                   arc_count=6, total_supply=10,
                                                   cap_range=(1, 5))),
     "no relay node can absorb a skeleton chunk"),
    # two relays carry one chunk each: four skeleton arcs for a budget of three
    (lambda: probio.generate_netgen_fc(netgen_spec(nodes=4, source_count=1, sink_count=1,
                                                   arc_count=3, total_supply=10,
                                                   cap_range=(1, 5))),
     "arc budget 3 below skeleton size 4"),
    # no relay: both chunks land on the one source-sink arc
    (lambda: probio.generate_netgen_fc(netgen_spec(nodes=2, source_count=1, sink_count=1,
                                                   arc_count=2, total_supply=10,
                                                   cap_range=(1, 5))),
     "skeleton flow exceeds the capacity range"),
], ids=["empty-range", "no-source", "negative-fc-count", "supply-below-sources",
        "too-many-arcs", "no-relay-room", "skeleton-over-budget",
        "skeleton-over-capacity"])
def test_generators_refuse_a_spec_they_cannot_meet(make, match):
    with pytest.raises(probio.InfeasibleSpec, match=match):
        make()


def test_netgen_rejects_bad_specs():
    with pytest.raises(probio.InfeasibleSpec):
        probio.generate_netgen_fc(
            probio.NetgenFcSpec(nodes=10, source_count=6, sink_count=6,
                                arc_count=20, total_supply=100, seed=0)
        )
    with pytest.raises(probio.InfeasibleSpec):
        probio.generate_netgen_fc(
            probio.NetgenFcSpec(nodes=10, source_count=2, sink_count=2,
                                arc_count=5, total_supply=100, seed=0)
        )
