"""``StorageCluster.execute``'s use of a partition server, for the tests.

After its request leg a round trip books a slot, waits for the one event
that ends its response leg, and cancels the booking if it is interrupted.
"""

from repro.simkit import Interrupt


def round_trip(server, occupancy, response=0.0, nbytes=0, booked=None):
    """``yield from`` this generator where ``execute`` is after its request
    leg; ``booked(booking)`` is called with the booking once it is made."""
    booking = server.book(occupancy, response)
    if booked is not None:
        booked(booking)
    try:
        yield booking.event
    except Interrupt:
        server.cancel(booking, nbytes)
        raise
    server.ops_served += 1
    server.bytes_served += nbytes
    return booking


def idle(server):
    """No booking waits and no hold outlasts the clock."""
    return (server.queue_length == 0
            and max(server._ends) <= server.env.now)
