"""The Figure-1 workflow: profiled quiescent points actually suffice.

The strongest possible check that the profiler's output is *correct*:
strip every hand-declared quiescent point from a server, instrument it
purely from a profiling run, and verify that a live update still works
end to end.
"""

import pytest

from repro.kernel import Kernel
from repro.mcr.ctl import McrCtl
from repro.mcr.libmcr import MCRSession
from repro.mcr.quiescence.profiler import profile_program
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.servers import nginx, simple, vsftpd
from repro.workloads import profiles


class TestProfileWorkflow:
    def test_profiled_points_match_declared_nginx(self):
        report = profile_program(
            nginx.make_program, nginx.setup_world, profiles.web_profile(8081)
        )
        assert report.quiescent_points() == nginx.make_program().quiescent_points

    def test_profiled_points_match_declared_vsftpd(self):
        report = profile_program(
            vsftpd.make_program, vsftpd.setup_world, profiles.ftp_profile(21)
        )
        assert report.quiescent_points() == vsftpd.make_program().quiescent_points

    def test_update_with_purely_profiled_instrumentation(self):
        """Build both versions only from profiling; live-update works."""

        report = profile_program(
            lambda: nginx.make_program(1), nginx.setup_world,
            profiles.web_profile(8081),
        )

        def profiled(version):
            program = nginx.make_program(version)
            # Forget the hand annotations: only the profile's points remain.
            program.quiescent_points = set(report.quiescent_points())
            return program

        v1, v2 = profiled(1), profiled(2)

        kernel = Kernel()
        nginx.setup_world(kernel)
        session = MCRSession(kernel, v1, BuildConfig.full())
        load_program(kernel, v1, build=BuildConfig.full(), session=session)
        kernel.run(until=lambda: session.startup_complete, max_steps=300_000)
        assert session.startup_complete
        result = McrCtl(kernel, session).live_update(v2)
        assert result.committed, result.error

    def test_unprofiled_program_cannot_quiesce(self):
        """Without (correct) quiescent points the update times out and
        rolls back — why the profiling step exists at all."""
        v1 = simple.make_program(1)
        v1.quiescent_points = set()  # "forgot" to profile
        kernel = Kernel()
        simple.setup_world(kernel)
        session = MCRSession(kernel, v1, BuildConfig.full())
        root = load_program(kernel, v1, build=BuildConfig.full(), session=session)
        kernel.run(max_steps=50_000)
        # Startup completion never observed (no QP hooks) and quiescence
        # cannot converge.
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.rolled_back
