"""Seeded, composable fault injection for the PBE-CC pipeline.

The paper's prototype lives with an imperfect physical world: the SDR
decoder misses control messages and occasionally passes a bogus CRC
(§5), the reverse path loses and compresses ACKs (§2), and a client
can stop reporting entirely (§7).  This package makes those
impairments a first-class evaluation axis:

* :class:`FaultSpec` — a JSON-round-trippable bundle of impairment
  knobs, seed-keyed so identical specs reproduce identical impairment
  schedules across processes;
* :class:`LossyDecoder` — wraps a
  :class:`~repro.monitor.decoder.ControlChannelDecoder` with
  per-message miss probability, false-positive DCI synthesis and
  Gilbert-Elliott burst outages (CRC-failure runs, handover gaps);
* :class:`ImpairedPipe` — wraps any ACK return-path pipe with loss,
  reordering, duplication and feedback-field corruption.

Every injector is a no-op passthrough at probability zero (the
record/packet stream is object-identical to an uninjected run), and
every random decision comes from a private :func:`derived_rng` stream,
so injectors compose without perturbing each other's schedules.

The degradation machinery that lets PBE-CC survive these faults lives
with the components themselves: gap/staleness tracking in
:mod:`repro.monitor.pbe`, saturating feedback decoding in
:mod:`repro.core.feedback`, and the feedback watchdog + delay-based
fallback in :mod:`repro.core.sender`.  A flow is impaired through
``FlowSpec.faults`` (a :meth:`FaultSpec.to_dict` dictionary).
"""

from .decoder import LossyDecoder
from .pipe import ImpairedPipe
from .spec import FaultSpec, derived_rng

__all__ = ["FaultSpec", "ImpairedPipe", "LossyDecoder", "derived_rng"]
