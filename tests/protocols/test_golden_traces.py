"""Golden-trace regression tests: exact event sequences on tiny platforms,
and pinned fingerprints on deep generator trees.

These lock the protocol's micro-behaviour.  The Figure 2(a) fork under
interruptible communication is hand-verified below; any change to the
scheduling rules, priority order, preemption timing or request bookkeeping
will shift these events and fail loudly.  The deep-tree goldens cover
what two- and three-node platforms barely reach: multi-hop relays,
request cascades, preemption with full shelves, and idle send attempts.
"""

import pytest

from repro.experiments.fig4 import FIG4_CONFIGS
from repro.platform import PlatformTree, figure2a_tree
from repro.platform.generator import PAPER_DEFAULTS, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer, simulate
from repro.protocols import trace as tr


def traced(tree, config, num_tasks):
    engine = ProtocolEngine(tree, config, num_tasks)
    tracer = Tracer(limit=None)
    engine.tracer = tracer
    result = engine.run()
    return result, tracer


class TestFigure2aInterruptibleGolden:
    """A (root, w=10) with B (c=1, w=2) and C (c=5, w=8); IC, FB=1.

    Hand-trace: A computes from t=0 and pipelines tasks to B every time B's
    buffer frees; the 5-unit send to C starts at t=2 and is preempted by
    B's request every 2 steps (t=3,5,7,9), resuming in between, finally
    completing at t=11 after 5 units of sliced service.
    """

    @pytest.fixture(scope="class")
    def trace(self):
        _result, tracer = traced(figure2a_tree(parent_w=10),
                                 ProtocolConfig.interruptible(1), 12)
        return tracer

    def test_opening_event_sequence(self, trace):
        expected = [
            (0, tr.COMPUTE_START, 0, None),   # A's CPU takes task 1
            (0, tr.SEND_START, 0, 1),         # A starts feeding B
            (1, tr.SEND_DONE, 0, 1),
            (1, tr.SEND_START, 0, 1),         # B consumed instantly; next one
            (1, tr.COMPUTE_START, 1, None),
            (2, tr.SEND_DONE, 0, 1),
            (2, tr.SEND_START, 0, 2),         # port free: the 5-unit C send
            (3, tr.COMPUTE_DONE, 1, None),
            (3, tr.PREEMPT, 0, 2),            # B's request interrupts C
            (3, tr.SEND_START, 0, 1),
            (3, tr.COMPUTE_START, 1, None),
            (4, tr.SEND_DONE, 0, 1),
            (4, tr.SEND_RESUME, 0, 2),        # C resumes with 4 units left
        ]
        got = [(e.time, e.kind, e.node, e.peer) for e in trace.events]
        assert got[:len(expected)] == expected

    def test_preemption_rhythm(self, trace):
        """C's send is preempted exactly at t=3,5,7,9 (B's period of 2)."""
        preempts = [e.time for e in trace.events if e.kind == tr.PREEMPT]
        assert preempts[:4] == [3, 5, 7, 9]

    def test_c_transfer_completes_after_sliced_service(self, trace):
        done = [e.time for e in trace.events
                if e.kind == tr.SEND_DONE and e.peer == 2]
        assert done[0] == 11  # 5 units of service between t=2 and t=11

    def test_b_never_idles_once_warm(self, trace):
        """From t=1 on, B's compute intervals abut seamlessly (the IC
        headline: the fastest-communicating child never waits)."""
        intervals = trace.compute_intervals(1)
        warm = [iv for iv in intervals if iv[0] <= 21]
        for (s1, e1), (s2, e2) in zip(warm, warm[1:]):
            assert s2 == e1  # back-to-back

    def test_a_cpu_cadence(self, trace):
        starts = [e.time for e in trace.events
                  if e.kind == tr.COMPUTE_START and e.node == 0]
        assert starts[:2] == [0, 10]  # w=10, always busy


class TestFigure2aNonInterruptibleGolden:
    """Same platform, non-IC with one fixed buffer: once the C send starts
    at t=2 it pins the port for 5 full units and B starves."""

    @pytest.fixture(scope="class")
    def trace(self):
        cfg = ProtocolConfig.non_interruptible(1, buffer_growth=False)
        _result, tracer = traced(figure2a_tree(parent_w=10), cfg, 12)
        return tracer

    def test_no_preemptions(self, trace):
        assert trace.count(tr.PREEMPT) == 0

    def test_c_send_blocks_port_for_five_units(self, trace):
        c_sends = [(e.time, e.kind) for e in trace.events
                   if e.peer == 2 and e.kind in (tr.SEND_START, tr.SEND_DONE)]
        start_t, done_t = c_sends[0][0], c_sends[1][0]
        assert done_t - start_t == 5  # uninterrupted

    def test_b_starves_during_c_send(self, trace):
        """B (FB=1) runs dry while the port serves C: its compute intervals
        have a gap in the first C-send window."""
        intervals = trace.compute_intervals(1)
        gaps = [(s2 - e1) for (s1, e1), (s2, e2) in zip(intervals, intervals[1:])]
        assert any(g > 0 for g in gaps[:4])


class TestChainGolden:
    """Root (w=2) → child (c=1, w=2), IC/FB=1: strict alternation."""

    def test_exact_completion_interleaving(self):
        tree = PlatformTree.linear_chain([2, 2], [1])
        result, trace = traced(tree, ProtocolConfig.interruptible(1), 6)
        assert result.completion_times == (2, 3, 4, 5, 6, 7)
        by_node = [e.node for e in trace.events
                   if e.kind == tr.COMPUTE_DONE]
        assert by_node == [0, 1, 0, 1, 0, 1]


#: ``SimulationResult.fingerprint()`` (a sha256) of each ``PAPER_DEFAULTS``
#: generator tree (seed: nodes, depth) under the four ``FIG4_CONFIGS``
#: (non-IC/FB=1 with growth, IC/FB=1, IC/FB=2, IC/FB=3), 2,000 tasks each.
DEEP_TREE_GOLDENS = {
    0: (442, 26, (  # 1.8k preemptions per IC run
        "bb9802f9eaf205c677802059d6b15587e8e461ed4e66b2c2ae674874d4235f93",
        "689489655237bc52a557b534e856a1f964c09fb26355a5f73ff65e4c5612e7bd",
        "83908c92c44c2dec02b62af33d92474bf3c39cad6a1e0fa164f39afc636036e6",
        "ae9ad6a14922012f1fbd739297c4b709e7eae6fb3f30cea2c7b55116800f904b",
    )),
    2: (499, 38, (
        "bc7815b2b78e26ef5e73b90ee86c301a0ddb02b76550cef818c9de62c4db5100",
        "5898125724149d3b104f40855a05e474436e4f963bbf3216aad5a21f7d438e25",
        "afe67b41638e43f6b983ced9545546fa63ab6b122b27a62e386b106eec3ad575",
        "88c3876f9891a062dd50810e6158e26c0e0a894543b3570cb85b259ec03f8f0e",
    )),
    3: (131, 23, (
        "8f55a186b7f7f695cea7a4d05ceb5fd769b17877986d405a2a10ade0011e6ecb",
        "ed677eee1a82e117670092ce7fed7cadd274c337f2b7b83c636f37717b847ee8",
        "8fb3dfdcdf78ca242aba1d0feb067f6318aafff30e85b3ca28e6e994a16c6aac",
        "3c4a0cfb2b21e61df4a84b0431eb3b7de2497d67e13774c4312509503bd884b4",
    )),
}


class TestDeepTreeGolden:
    """Figure 4's protocols on deep random trees stay bit-identical."""

    @pytest.mark.parametrize("seed", sorted(DEEP_TREE_GOLDENS))
    def test_fig4_fingerprints(self, seed):
        nodes, depth, expected = DEEP_TREE_GOLDENS[seed]
        tree = generate_tree(PAPER_DEFAULTS, seed=seed)
        assert len(tree) == nodes
        assert max(tree.depth(i) for i in range(nodes)) == depth
        got = tuple(simulate(tree, config, 2000).fingerprint()
                    for config in FIG4_CONFIGS)
        assert got == expected
