"""Likelihood-as-a-service: the long-running placement server.

The paper's §VII outlook names EPA placement as the kernel workload
with the best parallel profile — one fixed reference tree, independent
(branch × query) evaluations with near-zero communication.  This
package keeps that reference state *warm*: a
:class:`~repro.search.epa.PlacementSession` stays resident per
reference tree, queries arrive over the package's
one stdlib HTTP front (:class:`repro.obs.server.ObsServer`), and each
request is placed on the thread that received it, under its tenant's
lock — the long-lived instance model of BEAGLE 4.1, at placement
granularity.
"""

from .server import PlacementServer, Tenant, serve

__all__ = ["PlacementServer", "Tenant", "serve"]
