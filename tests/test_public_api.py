"""Public API surface tests: everything the README and examples rely on
must be importable from the top-level package, and the error taxonomy
must be intact."""

import pytest

import repro
from repro.errors import (
    AddressError,
    AllocationError,
    ConfigError,
    DatasetError,
    ExperimentError,
    GraphError,
    OutOfMemoryError,
    ReproError,
    WorkloadError,
)


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_quickstart_surface(self):
        """The README quickstart's exact imports."""
        from repro import (
            Machine,
            ThpPolicy,
            create_workload,
            load_dataset,
        )

        data = load_dataset("test-small")
        machine = Machine(
            repro.tiny(), thp=ThpPolicy.always()
        )
        metrics = machine.run(
            create_workload("bfs", data.graph), dataset=data.name
        )
        summary = metrics.summary()
        assert summary["dataset"] == "test-small"

    def test_policy_surface_is_the_hook_api(self):
        """Run-time managers are policy hooks: their base class is
        public, and the helper shims that built them beside the hook
        API are gone."""
        import repro.api as api

        assert "HugePageManager" in api.__all__
        for removed in (
            "AutotunerHook",
            "autotuner_policy",
            "hotness_manager_policy",
            "utilization_manager_policy",
        ):
            assert not hasattr(api, removed), removed

    def test_get_policy_is_the_one_policy_namespace(self):
        """``repro.api.get_policy`` resolves every ``--policy``
        spelling: the paper's fixed names, ``selective:`` and the
        zoo."""
        import repro.api as api

        assert api.get_policy("base4k").name == "base4k"
        assert api.get_policy("thp-opt") is api.POLICIES["thp-opt"]
        assert (
            api.get_policy("selective:0.3").name
            == api.selective_policy(0.3).name
        )
        assert api.get_policy("ingens").spec == "ingens"

    def test_version(self):
        assert repro.__version__


class TestErrorTaxonomy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            AddressError,
            AllocationError,
            ConfigError,
            DatasetError,
            ExperimentError,
            GraphError,
            OutOfMemoryError,
            WorkloadError,
        ):
            assert issubclass(exc, ReproError)

    def test_dataset_error_is_graph_error(self):
        assert issubclass(DatasetError, GraphError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            repro.load_dataset("definitely-not-a-dataset")
        with pytest.raises(ReproError):
            repro.get_profile("definitely-not-a-profile")
        with pytest.raises(ReproError):
            repro.create_workload("definitely-not-a-workload", None)
