"""Tests for the execution-system registry."""

import pytest

from repro.systems import (
    DEFAULT_SYSTEM,
    ExecutionBackend,
    SystemOptions,
    UnknownSystemError,
    available_systems,
    create_system,
    register_system,
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
        with pytest.raises(UnknownSystemError) as excinfo:
            create_system("tpu")
        message = str(excinfo.value)
        assert "tpu" in message
        for name in BUILTINS:
            assert name in message

    def test_validate_is_a_cheap_preflight(self):
        validate_system("cpu")  # no instantiation, no error
        with pytest.raises(UnknownSystemError):
            validate_system("npu")


class TestDefaults:
    def test_default_is_the_accelerator(self):
        assert DEFAULT_SYSTEM == "accel"
        assert create_system(DEFAULT_SYSTEM).name == "accel"


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            register_system(
                "accel", lambda options: None, "an impostor"
            )

    def test_options_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            create_system(
                "cpu",
                options=SystemOptions(measured=False),
                measured=True,
            )

    def test_overrides_build_options(self):
        system = create_system("cpu", measured=False)
        # The modeled-only flag reaches the backend: its plans say so.
        from repro.systems import resolve_workload

        plan = system.prepare(resolve_workload("gcn-cora"))
        assert dict(plan.params)["measured"] is False
