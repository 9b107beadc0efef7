"""Applications from Section 1.1 of the paper.

Three end-to-end applications exercise the library's public API the way the
paper motivates it:

* :mod:`repro.apps.voting` — the Costa-Rica-style electronic voting system:
  voter IDs are locked country-wide through a probabilistic (dissemination
  or masking) quorum protocol so that large-scale repeat voting is detected
  with overwhelming probability even when some voting stations misbehave;
* :mod:`repro.apps.location` — a mobile-device location service: device
  locations are replicated across location stores with an ε-intersecting
  system; readers tolerate (and recover from) occasionally stale answers via
  forwarding pointers, and a gossip diffusion layer keeps staleness rare;
* :mod:`repro.apps.mutex` — the §1.1 lock as a *service*: requests queued
  and granted by an arbiter on every replica, sent through the async quorum
  client (in-process or TCP), plus a contention load harness measuring
  throughput, fairness, starvation and the two safety counters.
"""

from repro.apps.voting import VoteOutcome, VotingService
from repro.apps.location import LocationService, LocationAnswer
from repro.apps.mutex import (
    AsyncQuorumMutex,
    LockAttempt,
    LockLoadReport,
    LockLoadSpec,
    mutex_for,
    run_lock_load,
)

__all__ = [
    "VotingService",
    "VoteOutcome",
    "LocationService",
    "LocationAnswer",
    "AsyncQuorumMutex",
    "LockAttempt",
    "LockLoadReport",
    "LockLoadSpec",
    "mutex_for",
    "run_lock_load",
]
