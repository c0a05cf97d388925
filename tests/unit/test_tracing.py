"""Unit tests for the library logging layer."""

import logging

from repro.sim.tracing import get_logger, trace


class TestLoggingLayer:
    def test_get_logger_roots_under_repro(self):
        assert get_logger().name == "repro"
        assert get_logger("sim").name == "repro.sim"
        assert get_logger("repro.core").name == "repro.core"

    def test_trace_emits_on_repro_sim_logger(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.sim"):
            trace("fires at t=%s", 1.5)
        assert caplog.records[-1].name == "repro.sim"
        assert "fires at t=1.5" in caplog.records[-1].getMessage()

    def test_silent_by_default(self, caplog):
        # No handler configured and propagation gated above DEBUG: the
        # library must not emit anything at default WARNING level.
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            trace("invisible")
        assert caplog.records == []
