"""The SN->DN hop with a pickle round trip: the oracle of the plain call.

``repro.service.datanode`` hands the request's objects to the data node
and the result's objects back, and relies on the state machines to copy
what they keep and to return nothing they will change.  This link
pickles the request before the node sees it and the result before the
caller does, so the two sides can never share an object, whatever a
state machine does; what the plain call computes must match it.
"""

import pickle

from repro.service import DataNodeClient


class PicklingLink(DataNodeClient):
    """A :class:`DataNodeClient` whose request and result each cross a
    pickle round trip, as frames between processes would."""

    async def call(self, account, client, op, args, kwargs):
        frame = pickle.dumps((account, client, op, args, kwargs))
        result = await super().call(*pickle.loads(frame))
        return pickle.loads(pickle.dumps(result))
