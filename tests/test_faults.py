"""Fault injection: plans, determinism, recovery, and fault-free purity."""

import pytest

from repro.capture import trace_digest
from repro.des import Simulator
from repro.faults import CrashWindow, FaultInjector, FaultPlan, StallWindow
from repro.fx import FxCluster
from repro.harness.store import TraceKey
from repro.net import EthernetBus, EthernetFrame, Nic
from repro.programs import run_measured
from repro.transport import HostStack

from .golden import GOLDEN_FAULT_FREE, legacy_digest


class TestFaultPlan:
    def test_parse_round_trips_through_describe(self):
        spec = ("loss=0.01,corrupt=0.001,queue=8,attempts=4,"
                "stall=2:10-20:3,stall=*:0-5:2,crash=1:5-8,seed=7")
        plan = FaultPlan.parse(spec)
        assert plan.loss_rate == 0.01
        assert plan.corrupt_rate == 0.001
        assert plan.nic_queue_limit == 8
        assert plan.max_attempts == 4
        assert plan.stalls == (StallWindow(2, 10.0, 20.0, 3.0),
                               StallWindow(None, 0.0, 5.0, 2.0))
        assert plan.crashes == (CrashWindow(1, 5.0, 8.0),)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_attempts_zero_means_retry_forever(self):
        assert FaultPlan.parse("attempts=0").max_attempts is None
        assert "attempts=0" in FaultPlan(max_attempts=None).describe()

    @pytest.mark.parametrize("spec", [
        "loss=1.5", "loss=-0.1", "queue=0", "attempts=-1",
        "stall=2:10-5:3", "stall=2:0-5:0.5", "crash=1:8-5",
        "nope=1", "loss", "stall=2:0-5",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_coerce_forms_are_equivalent(self):
        spec = "loss=0.01,stall=1:0-2:3,crash=0:1-2,seed=4"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.coerce(spec) == plan
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.canonical()) == plan
        assert FaultPlan.coerce(None) is None
        with pytest.raises(TypeError):
            FaultPlan.coerce(42)

    def test_canonical_handles_mixed_stall_hosts(self):
        plan = FaultPlan.parse("stall=*:0-5:2,stall=2:0-5:2")
        assert plan.canonical() == FaultPlan.parse(
            "stall=2:0-5:2,stall=*:0-5:2").canonical()


class TestTraceKeyFaults:
    def test_spec_string_plan_and_dict_digest_equally(self):
        spec = "loss=0.01,seed=1"
        plan = FaultPlan.parse(spec)
        a = TraceKey.make("2dfft", scale="smoke", faults=spec)
        b = TraceKey.make("2dfft", scale="smoke", faults=plan)
        c = TraceKey.make("2dfft", scale="smoke", faults=plan.canonical())
        assert a.digest() == b.digest() == c.digest()

    def test_none_digests_like_absent(self):
        assert (TraceKey.make("sor", faults=None).digest()
                == TraceKey.make("sor").digest())

    def test_faults_change_the_digest(self):
        assert (TraceKey.make("sor", faults="loss=0.01").digest()
                != TraceKey.make("sor").digest())
        assert (TraceKey.make("sor", faults="loss=0.01,seed=1").digest()
                != TraceKey.make("sor", faults="loss=0.01,seed=2").digest())


class TestFaultFreePurity:
    """The goldens predate the fault subsystem: they fail if fault
    plumbing perturbs a fault-free run."""


    @pytest.mark.parametrize("name", sorted(GOLDEN_FAULT_FREE))
    def test_traces_byte_identical_to_pre_fault_goldens(self, name):
        packets, digest = GOLDEN_FAULT_FREE[name]
        trace = run_measured(name, scale="smoke", seed=0)
        assert len(trace) == packets
        assert legacy_digest(trace) == digest
        assert not trace.data["retx"].any()
        assert trace.retransmit_share() == 0.0


class TestFaultedDeterminism:
    def test_same_plan_same_seed_byte_identical(self):
        runs = [
            run_measured("2dfft", scale="smoke", seed=0,
                         faults="loss=0.01,seed=1")
            for _ in range(2)
        ]
        assert trace_digest(runs[0]) == trace_digest(runs[1])
        assert runs[0].data["retx"].any()
        assert runs[0].retransmit_share() > 0.0

    def test_fault_seed_changes_the_trace(self):
        a = run_measured("sor", scale="smoke", seed=0,
                         faults="loss=0.05,seed=1")
        b = run_measured("sor", scale="smoke", seed=0,
                         faults="loss=0.05,seed=2")
        assert trace_digest(a) != trace_digest(b)

    def test_detail_reports_fault_counters(self):
        detail = {}
        trace = run_measured("2dfft", scale="smoke", seed=0,
                             faults="loss=0.01,seed=1", detail=detail)
        assert detail["drops"].get("loss", 0) > 0
        assert detail["frames_dropped"] == sum(detail["drops"].values())
        assert detail["retransmitted_segments"] > 0
        assert detail["retransmit_share"] == trace.retransmit_share()
        assert detail["packets"] == len(trace)


class TestLossRecovery:
    def _net(self, plan):
        sim = Simulator()
        injector = FaultInjector(plan)
        bus = EthernetBus(sim, seed=3, max_attempts=plan.max_attempts,
                          fault_injector=injector)
        stacks = [HostStack(sim, Nic(sim, bus, i), i, name=f"h{i}")
                  for i in range(2)]
        return sim, bus, injector, stacks

    def test_messages_survive_heavy_loss(self):
        plan = FaultPlan.parse("loss=0.05,seed=2")
        sim, bus, injector, stacks = self._net(plan)
        conn = stacks[0].connect(stacks[1], loss_recovery=True,
                                 rto_min=0.05, rto_initial=0.2)
        for i in range(20):
            conn.forward.send(4000, obj=i)
        sim.run()
        got = [conn.forward.mailbox.get().value.obj
               for _ in range(len(conn.forward.mailbox))]
        assert got == list(range(20))
        assert injector.frames_lost > 0
        assert conn.forward.retransmits > 0

    def test_corruption_also_recovered(self):
        plan = FaultPlan.parse("corrupt=0.05,seed=5")
        sim, bus, injector, stacks = self._net(plan)
        conn = stacks[0].connect(stacks[1], loss_recovery=True,
                                 rto_min=0.05, rto_initial=0.2)
        conn.forward.send(50000, obj="bulk")
        sim.run()
        assert conn.forward.mailbox.get().value.obj == "bulk"
        assert injector.frames_corrupted > 0
        corrupt_drops = [e for e in bus.drop_log if e.reason == "corrupt"]
        assert len(corrupt_drops) == injector.frames_corrupted

    def test_retransmitted_segments_are_flagged(self):
        plan = FaultPlan.parse("loss=0.05,seed=2")
        sim, bus, injector, stacks = self._net(plan)
        conn = stacks[0].connect(stacks[1], loss_recovery=True,
                                 rto_min=0.05, rto_initial=0.2)
        retx_frames = []
        bus.add_listener(
            lambda f, t: retx_frames.append(f)
            if getattr(f.payload, "retransmit", False) else None
        )
        for i in range(20):
            conn.forward.send(4000, obj=i)
        sim.run()
        assert conn.forward.retransmits == len(retx_frames)
        assert conn.forward.retransmits > 0


class TestDropAccounting:
    def test_queue_overflow_counter_matches_drop_log(self):
        sim = Simulator()
        bus = EthernetBus(sim, seed=0)
        nic = Nic(sim, bus, 0, queue_limit=1)
        Nic(sim, bus, 1)
        outcomes = [nic.send(EthernetFrame(src=0, dst=1, payload_size=1500))
                    for _ in range(5)]
        sim.run()
        overflow = [e for e in bus.drop_log if e.reason == "queue-overflow"]
        assert nic.stats.frames_dropped == len(overflow) > 0
        assert all(e.src == 0 and e.dst == 1 for e in overflow)
        # Dropped sends resolve False, delivered ones True.
        values = [ev.value for ev in outcomes]
        assert values.count(False) == len(overflow)
        assert values.count(True) == 5 - len(overflow)

    def test_excess_collision_counter_matches_drop_log(self):
        sim = Simulator()
        bus = EthernetBus(sim, seed=0, max_attempts=1)
        nics = [Nic(sim, bus, i) for i in range(2)]
        # Simultaneous sends guarantee a collision; one attempt means
        # both frames die as excessive-collision drops.
        for nic in nics:
            nic.send(EthernetFrame(src=nic.station_id,
                                   dst=1 - nic.station_id,
                                   payload_size=1500))
        sim.run()
        excess = [e for e in bus.drop_log if e.reason == "excess-collisions"]
        assert len(excess) == 2
        assert sum(n.stats.frames_dropped for n in nics) == 2
        assert bus.stats.frames_dropped == 2
        assert bus.stats.frames_delivered == 0


class TestStallsAndCrashes:
    def test_stall_window_lengthens_the_run(self):
        base = run_measured("sor", scale="smoke", seed=0)
        stalled = run_measured("sor", scale="smoke", seed=0,
                               faults="stall=*:0-1000:4,attempts=0")
        assert stalled.duration > base.duration

    def test_stall_factor_composes_overlapping_windows(self):
        injector = FaultInjector(
            FaultPlan.parse("stall=1:0-10:2,stall=*:5-10:3"))
        assert injector.stall_factor(1, 2.0) == 2.0
        assert injector.stall_factor(1, 7.0) == 6.0
        assert injector.stall_factor(0, 7.0) == 3.0
        assert injector.stall_factor(1, 12.0) == 1.0

    def test_crash_window_drops_traffic_and_gaps_keepalives(self):
        cluster = FxCluster(n_machines=3, seed=0, keepalive_interval=0.05,
                            faults="crash=1:0.2-0.6,seed=0")
        cluster.sim.run(until=1.5)
        daemon = cluster.vm.machines[1].daemon
        assert daemon.drops > 0
        assert cluster.fault_injector.daemon_drops == daemon.drops
        gaps = [gap for m in cluster.vm.machines
                for gap in m.daemon.keepalive_gaps]
        assert gaps, "peers should notice the crashed daemon's silence"
        report = cluster.fault_report()
        assert report["daemon_drops"] == daemon.drops
        assert report["keepalive_gaps"] == len(gaps)

    def test_faults_require_the_ethernet_medium(self):
        with pytest.raises(ValueError):
            FxCluster(n_machines=3, medium="switched", faults="loss=0.01")


class TestWarmParallelism:
    def test_faulted_traces_identical_across_warm_jobs(self, tmp_path):
        from repro.harness.store import TraceStore

        specs = [("sor", "smoke", 0, {"faults": "loss=0.01,seed=1"}),
                 ("hist", "smoke", 0, {"faults": "loss=0.01,seed=1"})]
        serial = TraceStore(disk_dir=tmp_path / "serial").warm(specs, jobs=1)
        parallel = TraceStore(disk_dir=tmp_path / "parallel").warm(specs, jobs=2)
        assert all(r.ok for r in serial + parallel)
        assert ([r.trace_sha256 for r in serial]
                == [r.trace_sha256 for r in parallel])
