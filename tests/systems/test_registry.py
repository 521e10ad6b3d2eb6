"""Tests for the execution-system registry."""

import pytest

from repro.errors import UnknownNameError
from repro.systems import (
    DEFAULT_SYSTEM,
    ExecutionBackend,
    SystemOptions,
    available_systems,
    create_system,
    system_names,
    validate_system,
)

BUILTINS = ("accel", "cpu", "gpu", "eyeriss", "multichip")


class TestLookup:
    def test_builtin_systems_registered(self):
        assert system_names() == BUILTINS

    def test_available_systems_carry_summaries(self):
        infos = available_systems()
        assert [info.name for info in infos] == list(BUILTINS)
        for info in infos:
            assert info.summary  # every row documents its fidelity

    def test_created_systems_satisfy_the_protocol(self):
        for name in BUILTINS:
            system = create_system(name)
            assert isinstance(system, ExecutionBackend)
            assert system.name == name

    def test_unknown_system_error_lists_valid_names(self):
        with pytest.raises(UnknownNameError) as excinfo:
            create_system("tpu")
        message = str(excinfo.value)
        assert "tpu" in message
        for name in BUILTINS:
            assert name in message

    def test_validate_is_a_cheap_preflight(self):
        validate_system("cpu")  # no instantiation, no error
        with pytest.raises(UnknownNameError):
            validate_system("npu")


class TestDefaults:
    def test_default_is_the_accelerator(self):
        assert DEFAULT_SYSTEM == "accel"
        assert create_system(DEFAULT_SYSTEM).name == "accel"

    def test_only_none_selects_the_default_clock(self):
        """A clock of 0 is a bad value, not an unset one: both clock
        resolvers raise instead of falling back to 2.4 GHz."""
        from repro.systems.accel import resolve_accel_config

        assert resolve_accel_config().clock_ghz == 2.4
        assert resolve_accel_config(clock_ghz=None).clock_ghz == 2.4
        for system in ("accel", "eyeriss", "multichip"):
            with pytest.raises(ValueError, match="clock_ghz"):
                create_system(system, clock_ghz=0)
        with pytest.raises(ValueError, match="clock_ghz"):
            resolve_accel_config(clock_ghz=0)

    def test_only_none_selects_the_default_configuration(self):
        """An empty configuration name is an unknown row, not an unset
        one: it never falls back to CPU iso-BW."""
        from repro.systems.accel import resolve_accel_config

        assert resolve_accel_config(config_name=None).name == "CPU iso-BW"
        with pytest.raises(UnknownNameError, match="configuration ''"):
            resolve_accel_config("")
        for system in ("accel", "multichip"):
            with pytest.raises(UnknownNameError, match="configuration ''"):
                create_system(system, config_name="")


class TestRegistration:
    def test_options_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            create_system(
                "eyeriss",
                options=SystemOptions(clock_ghz=1.2),
                clock_ghz=2.4,
            )

    def test_overrides_build_options(self):
        system = create_system("eyeriss", clock_ghz=1.2)
        # The array clock reaches the backend: its plans say so.
        plan = system.prepare("gcn-cora")
        assert dict(plan.params)["freq_ghz"] == 1.2
