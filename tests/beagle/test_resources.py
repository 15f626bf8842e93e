"""The kernel-backend resource registry and its resolution funnel."""

from __future__ import annotations

import io

import pytest

from repro.beagle import (
    BACKEND_ENV_VAR,
    BackendInfo,
    BlockedNumpyBackend,
    KernelBackend,
    ReferenceBackend,
    UnknownResourceError,
    acquire,
    available_resources,
    list_resources,
    register_resource,
    resolve_backend,
)
from repro.beagle.resources import DEFAULT_RESOURCE, main


class TestRegistry:
    def test_reference_and_blocked_registered(self):
        names = available_resources()
        assert names[0] == "reference"  # preference order: ground truth first
        assert "blocked" in names

    def test_list_resources_returns_descriptors(self):
        infos = list_resources()
        assert all(isinstance(info, BackendInfo) for info in infos)
        assert [i.name for i in infos] == available_resources()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_resource("reference", ReferenceBackend)

    def test_replace_allows_reregistration(self):
        register_resource("reference", ReferenceBackend, replace=True)
        assert isinstance(acquire("reference"), ReferenceBackend)


class TestAcquire:
    def test_by_name(self):
        assert isinstance(acquire("blocked"), BlockedNumpyBackend)

    def test_default_is_reference(self):
        assert acquire().info.name == DEFAULT_RESOURCE == "reference"

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
        assert resolve_backend(None).info.name == "reference"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        assert isinstance(resolve_backend(None), BlockedNumpyBackend)

    def test_env_var_consulted_per_call(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        first = resolve_backend(None)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        second = resolve_backend(None)
        assert first.info.name == "blocked"
        assert second.info.name == "reference"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        assert resolve_backend("reference").info.name == "reference"

    def test_backend_object_passes_through(self):
        backend = BlockedNumpyBackend()
        assert resolve_backend(backend) is backend

    def test_protocol_is_runtime_checkable(self):
        assert isinstance(ReferenceBackend(), KernelBackend)
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
        assert "default resource: reference (built-in default" in text

    def test_module_listing_reports_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        out = io.StringIO()
        main([], out=out)
        assert f"default resource: blocked (${BACKEND_ENV_VAR}" in out.getvalue()
