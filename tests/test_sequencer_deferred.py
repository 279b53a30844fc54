"""The token-ring idle shortcut: remote uncontended sequence acquires
take an analytically-scheduled deferred grant instead of running the
generator token protocol (ROADMAP perf follow-on, landed with the
scenario engine PR).

The virtual-time results of the broadcast-heavy apps that exercise it
are pinned by the golden manifest (cells ``app/asp/original/2x2`` and
``app/acp/original/2x2``, written from the generator token protocol);
here we assert the shortcut actually *fires* on the protocols it covers.
"""

import pytest

from repro.apps import make_app, small_params
from repro.harness import run_app
from repro.orca import sequencer as seq_mod


def _run(app, **kw):
    return run_app(make_app(app), "original", 2, 2, small_params(app), **kw)


@pytest.mark.parametrize("app,protocol", [
    ("asp", "distributed"),   # token ring: remote idle-token grants
    ("acp", "migrating"),     # migrating: remote takeover grants
])
def test_deferred_shortcut_fires(app, protocol, monkeypatch):
    fired = []
    original = seq_mod.SequencerProtocol._deferred_grant

    def counting(self, ring, cluster, dist):
        fired.append((type(self).__name__, cluster, dist))
        return original(self, ring, cluster, dist)

    monkeypatch.setattr(seq_mod.SequencerProtocol, "_deferred_grant",
                        counting)
    _run(app)
    assert fired, f"{protocol} never took the deferred shortcut"
    assert all(dist >= 1 for _cls, _cluster, dist in fired)


def test_base_protocol_declines_deferred():
    # Centralized sequencing stamps synchronously via try_acquire; the
    # deferred hook is a token-protocol refinement and the base must
    # decline it.
    class Probe(seq_mod.SequencerProtocol):
        pass

    probe = Probe.__new__(Probe)
    assert seq_mod.SequencerProtocol.try_acquire_deferred(probe, 0) is None
