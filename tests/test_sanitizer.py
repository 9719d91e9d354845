"""The runtime simulation sanitizer: violations caught, clean runs clean."""

from types import SimpleNamespace

import pytest

from repro.des import Simulator
from repro.fx import FxCluster
from repro.programs import run_measured
from repro.simlint import SanitizerError, SimSanitizer
from repro.transport import TcpSegment

from .golden import GOLDEN_FAULT_FREE, legacy_digest


def _stub_pipe(sim=None, src=1, dst=2):
    sim = sim if sim is not None else SimpleNamespace(now=0.0)
    return SimpleNamespace(
        sim=sim,
        src_stack=SimpleNamespace(host_id=src),
        dst_stack=SimpleNamespace(host_id=dst),
    )


class TestActivation:
    def test_off_by_default(self):
        assert Simulator().sanitizer is None

    def test_constructor_flag(self):
        assert Simulator(sanitize=True).sanitizer is not None
        assert Simulator(sanitize=False).sanitizer is None

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator().sanitizer is not None
        # Explicit False beats the environment.
        assert Simulator(sanitize=False).sanitizer is None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Simulator().sanitizer is None

    def test_cluster_forwards_flag(self):
        cluster = FxCluster(n_machines=3, sanitize=True)
        assert cluster.sim.sanitizer is not None


class TestCausality:
    def test_past_event_caught(self):
        sim = Simulator(sanitize=True)
        sim.timeout(1.0)
        sim.run()  # advance the clock to t=1
        past = sim.event()
        sim._enqueue(past, -0.5)  # bypass the Timeout guard deliberately
        with pytest.raises(SanitizerError) as exc_info:
            sim.run()
        err = exc_info.value
        assert "past" in str(err)
        assert err.event is past
        assert err.time == pytest.approx(1.0)

    def test_normal_schedule_unaffected(self):
        sim = Simulator(sanitize=True)
        out = []

        def proc(sim, out):
            yield sim.timeout(1.5)
            out.append(sim.now)

        sim.process(proc(sim, out))
        sim.run()
        assert out == [1.5]
        assert sim.sanitizer.checks > 0


class TestBusInvariants:
    def test_overlapping_transmissions_caught(self):
        san = SimSanitizer()
        san.on_bus_transmission(0.0, 1.0)
        san.on_bus_transmission(1.0, 2.0)  # back-to-back is legal
        with pytest.raises(SanitizerError, match="overlap"):
            san.on_bus_transmission(1.5, 2.5)

    def test_backwards_interval_caught(self):
        san = SimSanitizer()
        with pytest.raises(SanitizerError, match="backwards"):
            san.on_bus_transmission(2.0, 1.0)


class TestNicConservation:
    def _run_cluster(self):
        cluster = FxCluster(n_machines=3, sanitize=True)

        def chatter(ctx_vm, sim):
            msg_bytes = 4096
            from repro.pvm import PvmMessage

            msg = PvmMessage(tag=1)
            msg.pack(msg_bytes)
            yield from ctx_vm.send(tasks[0], tasks[1], msg)

        tasks = [cluster.vm.spawn(i, name=f"t{i}") for i in range(2)]
        cluster.sim.process(chatter(cluster.vm, cluster.sim))
        cluster.sim.run()
        return cluster

    def test_clean_run_passes(self):
        cluster = self._run_cluster()
        cluster.sim.sanitizer.verify_end_of_run()

    def test_desynced_sent_counter_caught(self):
        cluster = self._run_cluster()
        nic = cluster.stacks[1].nic
        nic.stats.frames_sent += 1
        with pytest.raises(SanitizerError) as exc_info:
            cluster.sim.sanitizer.verify_end_of_run()
        assert "host 1" in str(exc_info.value)
        assert exc_info.value.host == 1

    def test_desynced_drop_counter_caught(self):
        cluster = self._run_cluster()
        nic = cluster.stacks[0].nic
        nic.stats.frames_dropped += 1
        with pytest.raises(SanitizerError) as exc_info:
            cluster.sim.sanitizer.verify_end_of_run()
        assert exc_info.value.host == 0


class TestTcpInvariants:
    def test_contiguous_stream_passes(self):
        san = SimSanitizer()
        pipe = _stub_pipe()
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 1460))
        san.on_tcp_data(pipe, TcpSegment(pipe, 1460, 540))
        san.on_tcp_ack(pipe, 1460)
        san.on_tcp_ack(pipe, 2000)

    def test_sequence_gap_caught(self):
        san = SimSanitizer()
        pipe = _stub_pipe()
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 100))
        with pytest.raises(SanitizerError, match="gap"):
            san.on_tcp_data(pipe, TcpSegment(pipe, 500, 100))

    def test_unmarked_rewind_caught(self):
        san = SimSanitizer()
        pipe = _stub_pipe(src=3, dst=4)
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 1000))
        with pytest.raises(SanitizerError) as exc_info:
            san.on_tcp_data(pipe, TcpSegment(pipe, 0, 1000))
        assert "3->4" in str(exc_info.value)
        assert exc_info.value.host == 3

    def test_marked_retransmit_passes(self):
        san = SimSanitizer()
        pipe = _stub_pipe()
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 1000))
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 1000, retransmit=True))

    def test_ack_regression_caught(self):
        san = SimSanitizer()
        pipe = _stub_pipe()
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 2000))
        san.on_tcp_ack(pipe, 1500)
        with pytest.raises(SanitizerError, match="backwards"):
            san.on_tcp_ack(pipe, 1000)

    def test_ack_beyond_stream_caught(self):
        san = SimSanitizer()
        pipe = _stub_pipe()
        san.on_tcp_data(pipe, TcpSegment(pipe, 0, 100))
        with pytest.raises(SanitizerError, match="beyond"):
            san.on_tcp_ack(pipe, 5000)


class TestSanitizedRunsAreByteIdentical:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FAULT_FREE))
    def test_golden_digest_under_sanitizer(self, name):
        """Acceptance: all six programs complete sanitized with zero
        errors and reproduce the pre-sanitizer golden traces exactly."""
        packets, digest = GOLDEN_FAULT_FREE[name]
        trace = run_measured(name, scale="smoke", seed=0, sanitize=True)
        assert len(trace) == packets
        assert legacy_digest(trace) == digest

    def test_faulted_run_sanitized(self):
        """Loss/queue/attempt faults exercise every conservation branch."""
        trace = run_measured(
            "2dfft", scale="smoke", seed=0,
            faults="loss=0.005,corrupt=0.005,queue=4,attempts=16,seed=2",
            sanitize=True,
        )
        assert len(trace) > 0

    def test_cli_sanitized_trace(self, tmp_path, capsys, monkeypatch):
        import os

        from repro.__main__ import main

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        out = tmp_path / "sor.npz"
        try:
            rc = main(["trace", "sor", "--scale", "smoke", "--no-cache",
                       "--sanitize", "--out", str(out)])
        finally:
            # --sanitize exports REPRO_SANITIZE for worker processes;
            # keep the test process clean for the rest of the session.
            os.environ.pop("REPRO_SANITIZE", None)
        assert rc == 0
        assert out.exists()
        assert "sha256=" in capsys.readouterr().out
