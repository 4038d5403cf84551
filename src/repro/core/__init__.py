"""NetKernel proper: the paper's contribution.

GuestLib redirects BSD socket calls inside the guest into NQEs; CoreEngine
switches NQEs between VM and NSM over lockless shared-memory queues;
ServiceLib translates them into real stack operations inside the NSM; and
application payloads travel through shared hugepages.
"""

from repro.core.nqe import Nqe, NqeOp, NQE_SIZE
from repro.core.queues import QueueSet
from repro.core.nk_device import NKDevice
from repro.core.conn_table import ConnectionTable
from repro.core.coreengine import CoreEngine
from repro.core.guestlib import GuestLib
from repro.core.servicelib import ServiceLib
from repro.core.nsm import NetworkStackModule
from repro.core.vm import GuestVM
from repro.core.host import NetKernelHost

__all__ = [
    "Nqe",
    "NqeOp",
    "NQE_SIZE",
    "QueueSet",
    "NKDevice",
    "ConnectionTable",
    "CoreEngine",
    "GuestLib",
    "ServiceLib",
    "NetworkStackModule",
    "GuestVM",
    "NetKernelHost",
]
