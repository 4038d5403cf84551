"""Application models.

Each application is a generator coroutine written against the BSD socket
facade (:class:`repro.core.sockets.SocketApi`), so the same code runs in a
NetKernel VM and in a baseline VM — the transparency property of §4.1.
"""

from repro.apps.epoll_server import EpollServer, ServerStats
from repro.apps.load_gen import LoadGenerator, LoadStats
from repro.apps.iperf import StreamSender, StreamReceiver, StreamStats
from repro.apps.redis import RedisServer, RedisClient

__all__ = [
    "EpollServer",
    "ServerStats",
    "LoadGenerator",
    "LoadStats",
    "StreamSender",
    "StreamReceiver",
    "StreamStats",
    "RedisServer",
    "RedisClient",
]
