"""The kernel-backend resource registry and its resolution funnel."""

from __future__ import annotations

import io

import pytest

from repro.beagle import (
    BACKEND_ENV_VAR,
    BackendInfo,
    BlockedNumpyBackend,
    KernelBackend,
    UnknownResourceError,
    acquire,
    available_resources,
    list_resources,
    register_resource,
    resolve_backend,
)
from repro.beagle.resources import DEFAULT_RESOURCE, main


class TestRegistry:
    def test_blocked_is_the_only_resource(self):
        assert available_resources() == ["blocked"]

    def test_list_resources_returns_descriptors(self):
        infos = list_resources()
        assert all(isinstance(info, BackendInfo) for info in infos)
        assert [i.name for i in infos] == available_resources()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_resource("blocked", BlockedNumpyBackend)

    def test_replace_allows_reregistration(self):
        register_resource("blocked", BlockedNumpyBackend, replace=True)
        assert isinstance(acquire("blocked"), BlockedNumpyBackend)


class TestAcquire:
    def test_by_name(self):
        assert isinstance(acquire("blocked"), BlockedNumpyBackend)

    def test_default_is_blocked(self):
        assert acquire().info.name == DEFAULT_RESOURCE == "blocked"

    def test_reference_is_unknown(self):
        # The whole-set NumPy path is gone; its name is no resource.
        with pytest.raises(UnknownResourceError) as excinfo:
            acquire("reference")
        assert excinfo.value.available == ["blocked"]

    def test_unknown_name_is_typed_and_lists_available(self):
        with pytest.raises(UnknownResourceError) as excinfo:
            acquire("does-not-exist")
        err = excinfo.value
        assert err.requested == "does-not-exist"
        assert err.available == available_resources()
        # The message itself must name the available resources.
        for name in available_resources():
            assert name in str(err)

    def test_unknown_is_a_lookup_error(self):
        # CLIs can catch LookupError without importing the module.
        with pytest.raises(LookupError):
            acquire("nope")


class TestResolveBackend:
    def test_none_resolves_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).info.name == "blocked"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        assert isinstance(resolve_backend(None), BlockedNumpyBackend)
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        with pytest.raises(UnknownResourceError):
            resolve_backend(None)

    def test_env_var_consulted_per_call(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        with pytest.raises(UnknownResourceError):
            resolve_backend(None)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert resolve_backend(None).info.name == "blocked"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        assert resolve_backend("blocked").info.name == "blocked"

    def test_backend_object_passes_through(self):
        backend = BlockedNumpyBackend()
        assert resolve_backend(backend) is backend

    def test_protocol_is_runtime_checkable(self):
        assert isinstance(BlockedNumpyBackend(), KernelBackend)

    def test_garbage_spec_raises_type_error(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)


class TestListingCli:
    def test_module_listing_output(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        out = io.StringIO()
        assert main([], out=out) == 0
        text = out.getvalue()
        assert "kernel backend resource(s):" in text
        for name in available_resources():
            assert name in text
        assert "default resource: blocked (built-in default" in text

    def test_module_listing_reports_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        out = io.StringIO()
        main([], out=out)
        assert f"default resource: blocked (${BACKEND_ENV_VAR}" in out.getvalue()

    def test_module_listing_rejects_unknown_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        out = io.StringIO()
        assert main([], out=out) == 2
        assert "unknown kernel-backend resource 'reference'" in out.getvalue()
