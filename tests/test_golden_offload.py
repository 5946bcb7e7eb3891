"""Golden digests for the offloaded (BE↔FE) path.

On/off identity tests compare two runs of the *same* commit, so a change
that moves both sides together goes unnoticed. These pin the outputs of
the paper's CPS and failover experiments across commits instead: the
sha256 of fig9's ``--fast`` result table and of one fig14 failover point
(sorted-key JSON).

A change that moves either digest must re-bless it here and say why in
CHANGES.md.
"""

import hashlib
import json

FIG9_FAST_SHA256 = (
    "a5a43a342a3c94936c78ed16c841b423bc08a16940fc3bee528075a9caa8d963")
FIG14_POINT = (1.0, 2.5, 0.5, 0.4, 0)
FIG14_POINT_SHA256 = (
    "6076e35f8548f014a6c895aa8ef257b0ba936b76e22982008447a069931fbf49")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_fig9_fast_table_digest():
    from repro.experiments.runner import run_experiment
    result, _elapsed = run_experiment("fig9", seed=0, jobs=1, fast=True)
    assert _sha256(result.to_text()) == FIG9_FAST_SHA256


def test_fig14_failover_point_digest():
    from repro.experiments import fig14
    point = fig14.run_point(FIG14_POINT)
    assert _sha256(json.dumps(point, sort_keys=True)) == FIG14_POINT_SHA256
