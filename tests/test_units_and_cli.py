"""Tests for unit helpers, the error hierarchy, and the CLI."""

import json

import pytest

from repro import errors, units
from repro.cli import main as cli_main


class TestUnits:
    def test_sizes(self):
        assert units.KiB(8) == 8192
        assert units.MiB(2) == 2 * 1024 * 1024
        assert units.KB == 1000

    def test_rates(self):
        assert units.gbps(100) == 100e9
        assert units.mbps(500) == 500e6

    def test_time(self):
        assert units.usec(20) == pytest.approx(20e-6)

    def test_cycles(self):
        assert units.PAPER_CORE_HZ == 2.3e9


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.RingFullError, errors.ResourceError)
        assert issubclass(errors.ResourceError, errors.NetKernelError)
        assert issubclass(errors.SocketError, errors.NetKernelError)

    def test_errno_names(self):
        assert errors.AddressInUseError().errno_name == "EADDRINUSE"
        assert errors.ConnectionRefusedError_().errno_name == "ECONNREFUSED"
        assert errors.MessageTooLargeError().errno_name == "EMSGSIZE"

    def test_socket_error_message_defaults_to_errno(self):
        error = errors.NotConnectedError()
        assert "ENOTCONN" in str(error)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "table6" in out

    def test_run_single(self, capsys):
        assert cli_main(["run", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "144" in out  # the 8KB calibration anchor

    def test_run_unknown(self, capsys):
        # Bad invocations exit with the "usage" row of the errors table.
        assert cli_main(["run", "fig99"]) == errors.EXIT_CODES["usage"]

    def test_run_accepts_zero_padded_alias(self, capsys):
        assert cli_main(["run", "fig08"]) == 0
        assert "fig8" in capsys.readouterr().out

    def test_json_envelope_shape(self, capsys):
        assert cli_main(["calibration", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert set(envelope) == {"ok", "kind", "data", "error"}
        assert envelope["ok"] is True
        assert envelope["kind"] == "calibration"
        assert envelope["error"] is None
        assert "core_hz" in envelope["data"]

    def test_json_envelope_failure(self, capsys):
        code = cli_main(["run", "fig99", "--json"])
        assert code == errors.EXIT_CODES["usage"]
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "usage"
        assert envelope["error"]["exit_code"] == code

    def test_exit_code_table(self):
        assert errors.EXIT_CODES["ok"] == 0
        assert errors.exit_code("nonsense") == errors.EXIT_CODES["failure"]
        # Every named outcome is distinct, so CI logs are unambiguous.
        values = list(errors.EXIT_CODES.values())
        assert len(values) == len(set(values))

    def test_calibration_dump(self, capsys):
        assert cli_main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "ce_switch_fixed" in out
        assert "core_hz" in out
