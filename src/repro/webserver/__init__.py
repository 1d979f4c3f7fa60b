"""Shared web server substrate (paper Section 5).

Models the paper's testbed: three Apache-prefork sites on one
single-CPU web server machine (each site a different user, up to 50
worker processes), a separate database server machine, and closed-loop
client populations driving a RUBBoS-like dynamic-content workload
(each page request runs PHP CPU bursts interleaved with blocking
database round-trips).

The CPU of the (simulated) web server machine is the bottleneck
resource, as in the paper's characterisation of the bulletin-board
benchmark, so apportioning it with ALPS reapportions throughput.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ClosedLoopClients": "repro.webserver.clients",
    "DatabaseServer": "repro.webserver.database",
    "PageRequest": "repro.webserver.requests",
    "PreforkSite": "repro.webserver.apache",
    "RequestFactory": "repro.webserver.requests",
})
