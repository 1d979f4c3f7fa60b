"""Discrete-event simulation substrate.

The simulator is a classic event-calendar design: an :class:`EventQueue`
orders :class:`Event` records by ``(time, priority, sequence)``, and the
:class:`Engine` pops and dispatches them while advancing a virtual
:class:`Clock`.  Everything above this layer (the simulated kernel, ALPS
agents, workloads, the web-server model) is built out of events.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "Clock": "repro.sim.clock",
    "Engine": "repro.sim.engine",
    "Event": "repro.sim.event_queue",
    "EventHandle": "repro.sim.event_queue",
    "EventQueue": "repro.sim.event_queue",
    "RngStreams": "repro.sim.rng",
    "TraceRecord": "repro.sim.trace",
    "Tracer": "repro.sim.trace",
})
