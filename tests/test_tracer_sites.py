"""The benchmark's tracer wraps library calls by name; every name it patches
must exist where it looks, or ``perfbench/run.py --trace 1`` fails at
``Tracer.install()`` with a KeyError."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def site_ids():
    return [
        (span, owner, attr)
        for span, sites in tracer._sites().items()
        for owner, attr in sites
    ]


@pytest.mark.parametrize(
    "span,owner,attr",
    site_ids(),
    ids=[f"{span}:{getattr(owner, '__name__', owner)}.{attr}" for span, owner, attr in site_ids()],
)
def test_every_traced_name_resolves_on_its_owner(span, owner, attr):
    assert attr in owner.__dict__, f"{span}: {owner!r} has no attribute {attr!r} of its own"


def test_install_and_uninstall_restore_every_site():
    before = [owner.__dict__[attr] for _, owner, attr in site_ids()]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not fn for (_, owner, attr), fn in zip(site_ids(), before))
    finally:
        t.uninstall()
    assert [owner.__dict__[attr] for _, owner, attr in site_ids()] == before
